package analysis

import "sledge/internal/wasm"

// The memory-safety pass walks a structured function body once, mirroring
// the validator's control-frame discipline, and decides per access whether
// its address is provably in bounds. Two mechanisms cooperate:
//
//  1. Unsigned intervals: every abstract value carries an optional [lo, hi]
//     enclosure of its u32 value. An access with hi + offset + width <=
//     MinMemBytes can never trap. Intervals come from constants, zero-
//     initialized locals, narrow loads, and arithmetic on known ranges, and
//     are refined by dominating compares (including the canonical loop-head
//     exit compare, where an induction certificate extends the signed
//     compare to an unsigned range — see refine).
//
//  2. Availability: every abstract value also carries an interned symbolic
//     expression over (local, version) leaves and constants. Once any
//     access through expression e completes, e + extent is proven <=
//     memLen for the rest of the program wherever e's leaves are
//     unmodified — linear memory never shrinks, so the proof never
//     expires. A later access through the same expression with an equal or
//     smaller extent needs no check. Versions make staleness structural: a
//     local.set bumps the local's version, so stale expressions simply
//     stop matching instead of needing kill sets; loop back edges are
//     handled by re-versioning (and pruning availability over) every local
//     assigned anywhere in the loop body.
//
// Soundness notes live in docs/ANALYSIS.md.

// iv is an unsigned-32-bit interval; known=false means no enclosure.
type iv struct {
	known  bool
	lo, hi uint64
}

func ivConst(v uint64) iv { return iv{known: true, lo: v, hi: v} }

func hull(a, b iv) iv {
	if !a.known || !b.known {
		return iv{}
	}
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// cmpFact marks a value as the boolean result of `local <op> const`,
// possibly negated by an interleaved i32.eqz.
type cmpFact struct {
	local int
	ver   int32
	op    wasm.Opcode
	c     uint64 // u32 constant right-hand side
	neg   bool
}

// aval is one abstract operand value.
type aval struct {
	iv   iv
	expr int32 // interned symbolic expression; 0 = untracked
	// leaf identifies values produced directly by local.get, the anchors
	// for compare refinement.
	isLeaf    bool
	leafLocal int
	leafVer   int32
	cmp       *cmpFact
}

// mstate is the abstract machine state at one program point.
type mstate struct {
	stack []aval
	lver  []int32 // local -> version
	liv   []iv    // local -> interval
	// avail maps an address expression to the largest extent (static
	// offset + access width) proven <= current memory length.
	avail map[int32]uint64
}

func (st *mstate) clone() *mstate {
	ns := &mstate{
		stack: append([]aval(nil), st.stack...),
		lver:  append([]int32(nil), st.lver...),
		liv:   append([]iv(nil), st.liv...),
		avail: make(map[int32]uint64, len(st.avail)),
	}
	for k, v := range st.avail {
		ns.avail[k] = v
	}
	return ns
}

// inductInfo is a loop-entry certificate for a candidate induction local:
// every assignment in the loop body is a nonnegative constant increment.
type inductInfo struct {
	ok    bool
	sum   uint64 // total constant increment per iteration
	entry iv     // interval at loop entry (before re-versioning)
	ver   int32  // version assigned at loop entry
}

// mframe mirrors one structured control frame.
type mframe struct {
	op     wasm.Opcode // OpBlock, OpLoop, OpIf, OpElse
	height int         // operand height at entry (after the if condition pop)
	arity  int
	join   *mstate // meet of forward-branch states targeting this frame's end
	// elseState is the refined condition-false state saved at OpIf.
	elseState *mstate
	// headerClean is true while the walk is still in the loop's dominating
	// straight-line header (only compares and br_ifs seen so far); the
	// induction certificates in induct are usable only while it holds.
	headerClean bool
	induct      map[int]inductInfo
}

// interner deduplicates symbolic expressions and records which locals each
// one mentions (for loop-entry availability pruning).
type interner struct {
	ids    map[exprKey]int32
	locals [][]int16 // expr id -> referenced local indices
	nodes  []int16   // expr id -> tree size
}

// exprKey identifies one expression structurally: a versioned local
// (a = local index, b = version), a 32-bit constant (a = value bits), or a
// binary node (op over the expr ids a and b). Comparable, so a lookup
// allocates nothing.
type exprKey struct {
	kind exprKind
	op   wasm.Opcode
	a, b int32
}

type exprKind uint8

const (
	exprLeaf exprKind = iota
	exprConst
	exprBin
)

const maxExprNodes = 32

func newInterner() *interner {
	// id 0 is reserved for "untracked".
	return &interner{ids: map[exprKey]int32{}, locals: [][]int16{nil}, nodes: []int16{0}}
}

// add files a new expression under key; callers look the key up first, so
// the locals slice is only built on a miss.
func (it *interner) add(key exprKey, locals []int16, nodes int16) int32 {
	id := int32(len(it.locals))
	it.ids[key] = id
	it.locals = append(it.locals, locals)
	it.nodes = append(it.nodes, nodes)
	return id
}

func (it *interner) leaf(local int, ver int32) int32 {
	key := exprKey{kind: exprLeaf, a: int32(local), b: ver}
	if id, ok := it.ids[key]; ok {
		return id
	}
	return it.add(key, []int16{int16(local)}, 1)
}

func (it *interner) constE(v uint64) int32 {
	key := exprKey{kind: exprConst, a: int32(uint32(v))}
	if id, ok := it.ids[key]; ok {
		return id
	}
	return it.add(key, nil, 1)
}

func (it *interner) bin(op wasm.Opcode, a, b int32) int32 {
	if a == 0 || b == 0 {
		return 0
	}
	n := it.nodes[a] + it.nodes[b] + 1
	if n > maxExprNodes {
		return 0
	}
	key := exprKey{kind: exprBin, op: op, a: a, b: b}
	if id, ok := it.ids[key]; ok {
		return id
	}
	la, lb := it.locals[a], it.locals[b]
	locals := make([]int16, len(la), len(la)+len(lb))
	copy(locals, la)
	for _, l := range lb {
		seen := false
		for _, e := range locals {
			if e == l {
				seen = true
				break
			}
		}
		if !seen {
			locals = append(locals, l)
		}
	}
	return it.add(key, locals, n)
}

func (it *interner) mentionsAny(id int32, set map[int]bool) bool {
	for _, l := range it.locals[id] {
		if set[int(l)] {
			return true
		}
	}
	return false
}

// mwalker drives the pass over one function.
type mwalker struct {
	m      *wasm.Module
	f      *wasm.Func
	minMem uint64
	safe   map[int]bool
	report *Report

	it      *interner
	nextVer int32

	cur       *mstate
	frames    []mframe
	dead      bool
	deadDepth int
}

func (w *mwalker) ver() int32 {
	w.nextVer++
	return w.nextVer
}

func analyzeMemSafety(m *wasm.Module, f *wasm.Func, minMem uint64, report *Report) map[int]bool {
	ft := m.Types[f.TypeIdx]
	nLocals := len(ft.Params) + len(f.Locals)
	st := &mstate{
		lver:  make([]int32, nLocals),
		liv:   make([]iv, nLocals),
		avail: map[int32]uint64{},
	}
	w := &mwalker{m: m, f: f, minMem: minMem, safe: map[int]bool{}, report: report, it: newInterner()}
	for i := range st.lver {
		st.lver[i] = w.ver()
	}
	// Declared (non-parameter) locals start zeroed.
	for i := len(ft.Params); i < nLocals; i++ {
		st.liv[i] = ivConst(0)
	}
	w.cur = st
	w.frames = []mframe{{op: wasm.OpBlock, arity: len(ft.Results)}}
	for i := range f.Body {
		w.step(i, f.Body[i])
		if len(w.frames) == 0 {
			break // function-level frame closed by an explicit end
		}
	}
	return w.safe
}

// topState builds an all-unknown state at the given operand height: fresh
// versions everywhere, no intervals, empty availability. Used to continue
// the walk after statically unreachable block ends.
func (w *mwalker) topState(height int) *mstate {
	n := len(w.cur.lver)
	st := &mstate{
		stack: make([]aval, height),
		lver:  make([]int32, n),
		liv:   make([]iv, n),
		avail: map[int32]uint64{},
	}
	for i := range st.lver {
		st.lver[i] = w.ver()
	}
	return st
}

// meet combines two predecessor states; nil is the unreachable identity.
func (w *mwalker) meet(a, b *mstate) *mstate {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	if len(b.stack) < len(out.stack) {
		out.stack = out.stack[:len(b.stack)]
	}
	for i := range out.stack {
		out.stack[i] = meetVal(out.stack[i], b.stack[i])
	}
	for k := range out.lver {
		if out.lver[k] == b.lver[k] {
			out.liv[k] = hull(out.liv[k], b.liv[k])
		} else {
			out.lver[k] = w.ver()
			out.liv[k] = hull(out.liv[k], b.liv[k])
		}
	}
	for id, end := range out.avail {
		bend, ok := b.avail[id]
		if !ok {
			delete(out.avail, id)
		} else if bend < end {
			out.avail[id] = bend
		}
	}
	return out
}

func meetVal(a, b aval) aval {
	out := aval{iv: hull(a.iv, b.iv)}
	if a.expr != 0 && a.expr == b.expr {
		out.expr = a.expr
	}
	if a.isLeaf && b.isLeaf && a.leafLocal == b.leafLocal && a.leafVer == b.leafVer {
		out.isLeaf, out.leafLocal, out.leafVer = true, a.leafLocal, a.leafVer
	}
	return out
}

// shapeTo returns a clone of st shaped for a branch into a frame at the
// given height carrying arity values.
func shapeTo(st *mstate, height, arity int) *mstate {
	ns := st.clone()
	top := len(ns.stack) - arity
	ns.stack = append(ns.stack[:height:height], ns.stack[top:]...)
	return ns
}

func (w *mwalker) top() *mframe { return &w.frames[len(w.frames)-1] }

// dirtyHeader ends the current loop's dominating header, if any.
func (w *mwalker) dirtyHeader() {
	if f := w.top(); f.op == wasm.OpLoop {
		f.headerClean = false
	}
}

func (w *mwalker) push(v aval) { w.cur.stack = append(w.cur.stack, v) }
func (w *mwalker) pop() aval {
	s := w.cur.stack
	v := s[len(s)-1]
	w.cur.stack = s[:len(s)-1]
	return v
}
func (w *mwalker) popN(n int) {
	w.cur.stack = w.cur.stack[:len(w.cur.stack)-n]
}

// setLocal assigns local k a new value with the given interval.
func (w *mwalker) setLocal(k int, nv iv) {
	w.cur.lver[k] = w.ver()
	w.cur.liv[k] = nv
}

// closeFrame processes a live or dead `end`: fall may be nil (dead path).
func (w *mwalker) closeFrame(fall *mstate) {
	fr := *w.top()
	w.frames = w.frames[:len(w.frames)-1]
	var res *mstate
	if fall != nil {
		res = shapeTo(fall, fr.height, fr.arity)
	}
	res = w.meet(res, fr.join)
	if fr.op == wasm.OpIf && fr.elseState != nil {
		// if without else: the condition-false path skips the block.
		res = w.meet(res, fr.elseState)
	}
	if res == nil {
		res = w.topState(fr.height + fr.arity)
	}
	w.cur = res
	if len(w.frames) > 0 {
		w.dirtyHeader()
	}
}

// branchTo shapes st for a branch to the frame labeled `label` and merges it
// into that frame's join (loop targets are back edges: the conservative
// loop-entry state already covers them, so nothing to record).
func (w *mwalker) branchTo(label uint64, st *mstate) {
	fr := &w.frames[len(w.frames)-1-int(label)]
	if fr.op == wasm.OpLoop {
		return
	}
	arity := fr.arity
	fr.join = w.meet(fr.join, shapeTo(st, fr.height, arity))
}

func blockTypeArity(imm uint64) int {
	if byte(imm) == wasm.BlockTypeEmpty {
		return 0
	}
	return 1
}

// prescanLoop scans the loop body starting after body index i, returning the
// set of locals assigned anywhere inside and induction certificates for
// those whose every assignment is the canonical `k = k + const` shape. A
// site nested inside an inner loop runs an unknown number of times per
// iteration of this loop, so its increment cannot be summed statically:
// any assignment under a nested OpLoop disqualifies the candidate.
func (w *mwalker) prescanLoop(i int) (map[int]bool, map[int]inductInfo) {
	killed := map[int]bool{}
	induct := map[int]inductInfo{}
	body := w.f.Body
	var nest []bool // opened frames; true = nested loop
	inner := 0      // nested OpLoop frames currently open
	for j := i + 1; j < len(body); j++ {
		switch body[j].Op {
		case wasm.OpBlock, wasm.OpIf:
			nest = append(nest, false)
		case wasm.OpLoop:
			nest = append(nest, true)
			inner++
		case wasm.OpEnd:
			if len(nest) == 0 {
				return killed, induct
			}
			if nest[len(nest)-1] {
				inner--
			}
			nest = nest[:len(nest)-1]
		case wasm.OpLocalTee:
			k := int(body[j].Imm)
			killed[k] = true
			induct[k] = inductInfo{}
		case wasm.OpLocalSet:
			k := int(body[j].Imm)
			killed[k] = true
			inf, seen := induct[k]
			if !seen {
				inf.ok = true
			}
			// Recognize the exact producer window `local.get k;
			// i32.const d; i32.add` with d >= 0, outside any nested
			// loop. Anything else disqualifies the local.
			if inf.ok && inner == 0 && j-3 > i &&
				body[j-3].Op == wasm.OpLocalGet && int(body[j-3].Imm) == k &&
				body[j-2].Op == wasm.OpI32Const && int32(body[j-2].Imm) >= 0 &&
				body[j-1].Op == wasm.OpI32Add {
				inf.sum += uint64(uint32(body[j-2].Imm))
			} else {
				inf.ok = false
			}
			induct[k] = inf
		}
	}
	return killed, induct
}

// relation codes used by refine.
type rel int

const (
	relNone rel = iota
	relLtU
	relLeU
	relGtU
	relGeU
	relLtS
	relLeS
	relGtS
	relGeS
	relEq
)

var cmpRel = map[wasm.Opcode][2]rel{
	// [0] = relation when the compare is true, [1] = when false.
	wasm.OpI32LtU: {relLtU, relGeU},
	wasm.OpI32LeU: {relLeU, relGtU},
	wasm.OpI32GtU: {relGtU, relLeU},
	wasm.OpI32GeU: {relGeU, relLtU},
	wasm.OpI32LtS: {relLtS, relGeS},
	wasm.OpI32LeS: {relLeS, relGtS},
	wasm.OpI32GtS: {relGtS, relLeS},
	wasm.OpI32GeS: {relGeS, relLtS},
	wasm.OpI32Eq:  {relEq, relNone},
	wasm.OpI32Ne:  {relNone, relEq},
}

// refine narrows st's interval for the compared local given the compare's
// truth value. Signed relations are translated to unsigned ranges only when
// the sign region is provable — either the local's interval is already
// below 2^31, the constant side pins the nonnegative region, or the
// enclosing loop's induction certificate applies (see docs/ANALYSIS.md).
//
// exitEdge marks the one refinement the induction certificate is sound for:
// the fall-through state of a loop-header br_if whose taken edge leaves the
// loop. Only then does every header evaluation either exit or continue with
// the refined relation true, which is what the certificate's no-wrap
// induction needs. Refinements inside an if, or on a br_if whose taken edge
// stays in the loop, give no such guarantee — the loop can keep running
// with the compare false, push the local past 2^31, and make the signed
// compare true again at a huge unsigned value.
func (w *mwalker) refine(st *mstate, c *cmpFact, truth bool, exitEdge bool) {
	if c == nil {
		return
	}
	if c.neg {
		truth = !truth
	}
	rels, ok := cmpRel[c.op]
	if !ok {
		return
	}
	r := rels[0]
	if !truth {
		r = rels[1]
	}
	k := c.local
	if st.lver[k] != c.ver || r == relNone {
		return
	}
	cst := c.c
	cur := st.liv[k]
	apply := func(lo, hi uint64) {
		if lo > hi {
			lo = hi // statically empty path; clamp rather than track bottom
		}
		if cur.known {
			if cur.lo > lo {
				lo = cur.lo
			}
			if cur.hi < hi {
				hi = cur.hi
			}
			if lo > hi {
				lo, hi = cur.lo, cur.hi
			}
		}
		st.liv[k] = iv{known: true, lo: lo, hi: hi}
	}
	const signBit = uint64(1) << 31
	switch r {
	case relEq:
		apply(cst, cst)
	case relLtU:
		if cst > 0 {
			apply(0, cst-1)
		}
	case relLeU:
		apply(0, cst)
	case relGtU:
		apply(cst+1, 1<<32-1)
	case relGeU:
		apply(cst, 1<<32-1)
	case relGeS:
		// signed(k) >= C with C >= 0 pins the nonnegative region.
		if int32(cst) >= 0 {
			apply(cst, signBit-1)
		}
	case relGtS:
		if int32(cst) >= -1 {
			apply(uint64(uint32(int32(cst)+1)), signBit-1)
		}
	case relLtS, relLeS:
		bound := cst // exclusive upper bound for LtS
		if r == relLeS {
			bound = cst + 1
		}
		if int32(cst) < 0 || bound == 0 {
			return
		}
		// Nonnegativity: directly known, or via the loop induction
		// certificate for the canonical loop-head exit compare.
		if cur.known && cur.hi < signBit {
			apply(cur.lo, bound-1)
			return
		}
		if fr := w.top(); exitEdge && fr.op == wasm.OpLoop && fr.headerClean {
			if inf, has := fr.induct[k]; has && inf.ok && inf.ver == c.ver &&
				inf.entry.known && inf.entry.hi < signBit &&
				bound-1+inf.sum < signBit {
				apply(inf.entry.lo, bound-1)
			}
		}
	}
}

// noteAccess records the fact for the memory access at body index idx and
// updates availability. addr is the address operand, off/width the static
// offset and access width.
func (w *mwalker) noteAccess(idx int, addr aval, off uint64, width uint32) {
	extent := off + uint64(width)
	safe := false
	if addr.iv.known && addr.iv.hi+extent <= w.minMem {
		safe = true
	}
	if !safe && addr.expr != 0 && w.cur.avail[addr.expr] >= extent {
		safe = true
	}
	w.report.MemAccesses++
	if safe {
		w.report.SafeAccesses++
		w.safe[idx] = true
	}
	// Whether checked or not, a completed access proves addr + extent <=
	// memLen: an out-of-bounds access traps under every strategy, so code
	// after it only runs when the address was in bounds — and linear
	// memory never shrinks.
	if addr.expr != 0 {
		if w.cur.avail[addr.expr] < extent {
			w.cur.avail[addr.expr] = extent
		}
	}
}

func (w *mwalker) step(idx int, in wasm.Instr) {
	if w.dead {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			w.deadDepth++
		case wasm.OpElse:
			if w.deadDepth == 0 {
				fr := w.top()
				w.cur = fr.elseState
				if w.cur == nil {
					w.cur = w.topState(fr.height)
				}
				fr.elseState = nil
				fr.op = wasm.OpElse
				w.dead = false
			}
		case wasm.OpEnd:
			if w.deadDepth > 0 {
				w.deadDepth--
			} else {
				w.dead = false
				w.closeFrame(nil)
			}
		}
		return
	}

	switch in.Op {
	case wasm.OpNop:
		return
	case wasm.OpUnreachable:
		w.dead = true
		return
	case wasm.OpBlock:
		w.dirtyHeader()
		w.frames = append(w.frames, mframe{
			op: wasm.OpBlock, height: len(w.cur.stack), arity: blockTypeArity(in.Imm),
		})
		return
	case wasm.OpLoop:
		w.dirtyHeader()
		killed, induct := w.prescanLoop(idx)
		// Record entry intervals for induction candidates, then assume
		// nothing about body-assigned locals: fresh versions, top
		// intervals, and no availability through them.
		for k := range killed {
			if inf, ok := induct[k]; ok && inf.ok {
				inf.entry = w.cur.liv[k]
				induct[k] = inf
			}
			w.setLocal(k, iv{})
			if inf, ok := induct[k]; ok {
				inf.ver = w.cur.lver[k]
				induct[k] = inf
			}
		}
		for id := range w.cur.avail {
			if w.it.mentionsAny(id, killed) {
				delete(w.cur.avail, id)
			}
		}
		w.frames = append(w.frames, mframe{
			op: wasm.OpLoop, height: len(w.cur.stack), arity: blockTypeArity(in.Imm),
			headerClean: true, induct: induct,
		})
		return
	case wasm.OpIf:
		cond := w.pop()
		elseState := w.cur.clone()
		w.refine(w.cur, cond.cmp, true, false)
		w.refine(elseState, cond.cmp, false, false)
		w.dirtyHeader()
		w.frames = append(w.frames, mframe{
			op: wasm.OpIf, height: len(w.cur.stack), arity: blockTypeArity(in.Imm),
			elseState: elseState,
		})
		return
	case wasm.OpElse:
		fr := w.top()
		fr.join = w.meet(fr.join, shapeTo(w.cur, fr.height, fr.arity))
		w.cur = fr.elseState
		fr.elseState = nil
		fr.op = wasm.OpElse
		return
	case wasm.OpEnd:
		w.closeFrame(w.cur)
		return
	case wasm.OpBr:
		w.branchTo(in.Imm, w.cur)
		w.dead = true
		return
	case wasm.OpBrIf:
		cond := w.pop()
		taken := w.cur.clone()
		w.refine(taken, cond.cmp, true, false)
		w.branchTo(in.Imm, taken)
		// While headerClean holds, the loop is the top frame, so any label
		// other than 0 (the back edge) leaves the loop: the taken edge is a
		// loop exit, and the fall-through may use the induction certificate.
		w.refine(w.cur, cond.cmp, false, in.Imm >= 1)
		return
	case wasm.OpBrTable:
		w.pop()
		for _, l := range wasm.BrTargets(w.f.BrLabels, in) {
			w.branchTo(uint64(l), w.cur)
		}
		w.branchTo(in.Imm, w.cur)
		w.dead = true
		return
	case wasm.OpReturn:
		w.dead = true
		return
	case wasm.OpCall:
		w.dirtyHeader()
		ft, _ := w.m.FuncTypeAt(uint32(in.Imm))
		w.popN(len(ft.Params))
		for range ft.Results {
			w.push(aval{})
		}
		return
	case wasm.OpCallIndirect:
		w.dirtyHeader()
		ft := w.m.Types[in.Imm]
		w.popN(1 + len(ft.Params))
		for range ft.Results {
			w.push(aval{})
		}
		return
	case wasm.OpDrop:
		w.pop()
		return
	case wasm.OpSelect:
		w.dirtyHeader()
		w.pop()
		b := w.pop()
		a := w.pop()
		w.push(meetVal(a, b))
		return
	case wasm.OpLocalGet:
		k := int(in.Imm)
		w.push(aval{
			iv: w.cur.liv[k], expr: w.it.leaf(k, w.cur.lver[k]),
			isLeaf: true, leafLocal: k, leafVer: w.cur.lver[k],
		})
		return
	case wasm.OpLocalSet:
		w.dirtyHeader()
		v := w.pop()
		w.setLocal(int(in.Imm), v.iv)
		return
	case wasm.OpLocalTee:
		w.dirtyHeader()
		v := w.cur.stack[len(w.cur.stack)-1]
		w.setLocal(int(in.Imm), v.iv)
		return
	case wasm.OpGlobalGet:
		w.dirtyHeader()
		w.push(aval{})
		return
	case wasm.OpGlobalSet:
		w.dirtyHeader()
		w.pop()
		return
	case wasm.OpMemorySize:
		w.dirtyHeader()
		w.push(aval{})
		return
	case wasm.OpMemoryGrow:
		// Growth is monotone: availability facts survive.
		w.dirtyHeader()
		w.pop()
		w.push(aval{})
		return
	case wasm.OpI32Const:
		w.push(aval{iv: ivConst(uint64(uint32(in.Imm))), expr: w.it.constE(in.Imm)})
		return
	case wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		w.dirtyHeader()
		w.push(aval{})
		return
	}

	if _, width, store, ok := wasm.MemOpShape(in.Op); ok {
		w.dirtyHeader()
		if store {
			w.pop() // value
			addr := w.pop()
			w.noteAccess(idx, addr, in.Imm, width)
		} else {
			addr := w.pop()
			w.noteAccess(idx, addr, in.Imm, width)
			res := aval{}
			switch in.Op {
			case wasm.OpI32Load8U, wasm.OpI64Load8U:
				res.iv = iv{known: true, hi: 0xFF}
			case wasm.OpI32Load16U, wasm.OpI64Load16U:
				res.iv = iv{known: true, hi: 0xFFFF}
			}
			w.push(res)
		}
		return
	}

	if sig, _, ok := wasm.NumericSig(in.Op); ok {
		w.stepNumeric(in.Op, len(sig))
		return
	}
	// Unknown-to-the-analysis instruction: validation guarantees we never
	// get here, but stay safe by dropping all knowledge.
	w.dirtyHeader()
	w.cur = w.topState(len(w.cur.stack))
}

// stepNumeric models the i32 operators the address language uses, treats
// compares specially to seed refinement, and conservatively clears
// everything else.
func (w *mwalker) stepNumeric(op wasm.Opcode, nIn int) {
	const wrap = uint64(1) << 32
	s := w.cur.stack
	n := len(s)

	if op == wasm.OpI32Eqz {
		v := w.pop()
		out := aval{iv: iv{known: true, hi: 1}}
		if v.cmp != nil {
			c := *v.cmp
			c.neg = !c.neg
			out.cmp = &c
		}
		w.push(out)
		return
	}

	if _, isCmp := cmpRel[op]; isCmp && nIn == 2 {
		rhs, lhs := s[n-1], s[n-2]
		w.popN(2)
		out := aval{iv: iv{known: true, hi: 1}}
		if lhs.isLeaf && rhs.iv.known && rhs.iv.lo == rhs.iv.hi {
			out.cmp = &cmpFact{local: lhs.leafLocal, ver: lhs.leafVer, op: op, c: rhs.iv.lo}
		} else if rhs.isLeaf && lhs.iv.known && lhs.iv.lo == lhs.iv.hi {
			if m, ok := mirrorCmp[op]; ok {
				out.cmp = &cmpFact{local: rhs.leafLocal, ver: rhs.leafVer, op: m, c: lhs.iv.lo}
			}
		}
		w.push(out)
		return
	}

	if nIn == 2 {
		rhs, lhs := s[n-1], s[n-2]
		w.popN(2)
		out := aval{}
		switch op {
		case wasm.OpI32Add:
			if lhs.iv.known && rhs.iv.known && lhs.iv.hi+rhs.iv.hi < wrap {
				out.iv = iv{known: true, lo: lhs.iv.lo + rhs.iv.lo, hi: lhs.iv.hi + rhs.iv.hi}
			}
			out.expr = w.it.bin(op, lhs.expr, rhs.expr)
		case wasm.OpI32Mul:
			if lhs.iv.known && rhs.iv.known && (lhs.iv.hi == 0 || rhs.iv.hi == 0 || lhs.iv.hi*rhs.iv.hi < wrap) {
				out.iv = iv{known: true, lo: lhs.iv.lo * rhs.iv.lo, hi: lhs.iv.hi * rhs.iv.hi}
			}
			out.expr = w.it.bin(op, lhs.expr, rhs.expr)
		case wasm.OpI32Sub:
			if lhs.iv.known && rhs.iv.known && lhs.iv.lo >= rhs.iv.hi {
				out.iv = iv{known: true, lo: lhs.iv.lo - rhs.iv.hi, hi: lhs.iv.hi - rhs.iv.lo}
			}
			out.expr = w.it.bin(op, lhs.expr, rhs.expr)
		case wasm.OpI32And:
			// x & y <= min(x, y) for unsigned operands.
			if lhs.iv.known || rhs.iv.known {
				hi := uint64(wrap - 1)
				if lhs.iv.known && lhs.iv.hi < hi {
					hi = lhs.iv.hi
				}
				if rhs.iv.known && rhs.iv.hi < hi {
					hi = rhs.iv.hi
				}
				out.iv = iv{known: true, hi: hi}
			}
			out.expr = w.it.bin(op, lhs.expr, rhs.expr)
		case wasm.OpI32Shl:
			if lhs.iv.known && rhs.iv.known && rhs.iv.lo == rhs.iv.hi {
				sh := rhs.iv.lo & 31
				if lhs.iv.hi<<sh < wrap {
					out.iv = iv{known: true, lo: lhs.iv.lo << sh, hi: lhs.iv.hi << sh}
				}
			}
			out.expr = w.it.bin(op, lhs.expr, rhs.expr)
		case wasm.OpI32ShrU:
			if lhs.iv.known && rhs.iv.known && rhs.iv.lo == rhs.iv.hi {
				sh := rhs.iv.lo & 31
				out.iv = iv{known: true, lo: lhs.iv.lo >> sh, hi: lhs.iv.hi >> sh}
			}
			out.expr = w.it.bin(op, lhs.expr, rhs.expr)
		}
		if out.iv.known || out.expr != 0 {
			w.push(out)
			return
		}
		w.dirtyHeader()
		w.push(aval{})
		return
	}

	// Unary or other arity: no modeling.
	w.dirtyHeader()
	w.popN(nIn)
	w.push(aval{})
}

// mirrorCmp swaps operand order: `const op local` becomes `local op' const`.
var mirrorCmp = map[wasm.Opcode]wasm.Opcode{
	wasm.OpI32Eq:  wasm.OpI32Eq,
	wasm.OpI32Ne:  wasm.OpI32Ne,
	wasm.OpI32LtU: wasm.OpI32GtU,
	wasm.OpI32LeU: wasm.OpI32GeU,
	wasm.OpI32GtU: wasm.OpI32LtU,
	wasm.OpI32GeU: wasm.OpI32LeU,
	wasm.OpI32LtS: wasm.OpI32GtS,
	wasm.OpI32LeS: wasm.OpI32GeS,
	wasm.OpI32GtS: wasm.OpI32LtS,
	wasm.OpI32GeS: wasm.OpI32LeS,
}
