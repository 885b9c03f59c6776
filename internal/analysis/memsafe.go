package analysis

import (
	"sync"
	"unsafe"

	"sledge/internal/wasm"
)

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
// Every deploy runs the pass, so its machine state is built not to touch the
// allocator: a state has exactly one owner and is moved or merged in place
// (see mstate), every table is a flat slice reset per function (see
// interner, prescan), and the whole walker is pooled across calls. Soundness
// notes and the ownership rule live in docs/ANALYSIS.md.

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
// possibly negated by an interleaved i32.eqz. The zero value (op 0, which is
// no compare) means the value carries no such fact.
type cmpFact struct {
	local int32
	ver   int32
	c     uint64 // u32 constant right-hand side
	op    wasm.Opcode
	neg   bool
}

// aval is one abstract operand value.
type aval struct {
	iv   iv
	expr int32 // interned symbolic expression; 0 = untracked
	// leaf identifies values produced directly by local.get, the anchors
	// for compare refinement.
	leafLocal int32
	leafVer   int32
	isLeaf    bool
	cmp       cmpFact
}

// lstate is what a state knows about one local. leaf caches the interned
// expression of (local, ver) once a local.get has asked for it, 0 before.
type lstate struct {
	ver  int32
	leaf int32
	iv   iv
}

// availEnt records that expr + end <= current memory length: end is the
// largest extent (static offset + access width) an access through the
// address expression has completed with.
type availEnt struct {
	expr int32
	end  uint64
}

// mstate is the abstract machine state at one program point. A state has
// exactly one owner — the walker's cur, a frame's join, or a frame's
// elseState — so whoever holds it may change it in place: meet writes into
// its first argument and retires its second, a state whose program point
// ends at a branch is reshaped and handed to the target frame rather than
// copied, and a state nobody will read again goes back to the walker's free
// list. The only copies are the ones the control flow itself forks: the
// false arm at `if`, the taken edge of `br_if`, all but the last br_table
// target.
type mstate struct {
	stack []aval
	loc   []lstate
	// avail is sorted by expression id: lookup is a binary search, meet a
	// merge-intersection, loop entry one filtering pass.
	avail []availEnt
}

// find returns the position of expr in st.avail, or where it would go.
func (st *mstate) find(expr int32) (int, bool) {
	lo, hi := 0, len(st.avail)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.avail[mid].expr < expr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(st.avail) && st.avail[lo].expr == expr
}

// inductCert is a loop-entry certificate for an induction local: every
// assignment in the loop body is a nonnegative constant increment, outside
// any nested loop.
type inductCert struct {
	local int32
	ver   int32  // version assigned at loop entry
	sum   uint64 // total constant increment per iteration
	entry iv     // interval at loop entry (before re-versioning)
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
	// induction certificates in mwalker.certs are usable only while it
	// holds.
	headerClean bool
}

// exprKey identifies one expression structurally: a versioned local
// (a = local index, b = version), a 32-bit constant (a = value bits), or a
// binary node (op over the expr ids a and b).
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

// exprNode is one interned expression: its key, its tree size, and the
// locals it mentions as a span of interner.locals (for loop-entry
// availability pruning).
type exprNode struct {
	key    exprKey
	nodes  int16
	nloc   int16
	locOff int32
}

// interner deduplicates symbolic expressions: an open-addressed hash table
// of expression ids over the flat exprs slice. Slots carry the generation
// they were written in, so reset empties the table by bumping gen instead of
// clearing it.
type interner struct {
	exprs  []exprNode // id -> node; id 0 is reserved for "untracked"
	locals []int32    // arena the nodes' local spans point into
	slots  []uint64   // gen<<32 | id; a slot of another generation is empty
	gen    uint32
}

const internerMinSlots = 256

func (it *interner) reset() {
	it.exprs = append(it.exprs[:0], exprNode{})
	it.locals = it.locals[:0]
	if len(it.slots) == 0 {
		it.slots = make([]uint64, internerMinSlots)
	}
	it.gen++
	if it.gen == 0 { // wrapped: stale slots could alias
		clear(it.slots)
		it.gen = 1
	}
}

func (k exprKey) hash() uint64 {
	h := (uint64(uint32(k.a)) | uint64(uint32(k.b))<<32) * 0x9E3779B97F4A7C15
	h ^= uint64(k.kind)<<8 | uint64(k.op)
	h *= 0xFF51AFD7ED558CCD
	return h >> 32
}

// lookup returns the id filed under key, or 0 and the slot to file it in.
func (it *interner) lookup(key exprKey) (id int32, slot int) {
	mask := len(it.slots) - 1
	for i := int(key.hash()) & mask; ; i = (i + 1) & mask {
		s := it.slots[i]
		if uint32(s>>32) != it.gen {
			return 0, i
		}
		if it.exprs[uint32(s)].key == key {
			return int32(uint32(s)), i
		}
	}
}

// add files a new expression in the slot lookup returned; its locals are
// the nloc entries the caller just appended to it.locals.
func (it *interner) add(key exprKey, slot int, nodes int16, nloc int) int32 {
	id := int32(len(it.exprs))
	it.exprs = append(it.exprs, exprNode{
		key: key, nodes: nodes, nloc: int16(nloc), locOff: int32(len(it.locals) - nloc),
	})
	it.slots[slot] = uint64(it.gen)<<32 | uint64(id)
	if 2*len(it.exprs) > len(it.slots) {
		it.grow()
	}
	return id
}

func (it *interner) grow() {
	it.slots = make([]uint64, 2*len(it.slots))
	for id := 1; id < len(it.exprs); id++ {
		_, slot := it.lookup(it.exprs[id].key)
		it.slots[slot] = uint64(it.gen)<<32 | uint64(id)
	}
}

func (it *interner) leaf(local int32, ver int32) int32 {
	key := exprKey{kind: exprLeaf, a: local, b: ver}
	id, slot := it.lookup(key)
	if id == 0 {
		it.locals = append(it.locals, local)
		id = it.add(key, slot, 1, 1)
	}
	return id
}

func (it *interner) constE(v uint64) int32 {
	key := exprKey{kind: exprConst, a: int32(uint32(v))}
	id, slot := it.lookup(key)
	if id == 0 {
		id = it.add(key, slot, 1, 0)
	}
	return id
}

func (it *interner) localsOf(id int32) []int32 {
	n := &it.exprs[id]
	return it.locals[n.locOff : n.locOff+int32(n.nloc)]
}

func (it *interner) bin(op wasm.Opcode, a, b int32) int32 {
	if a == 0 || b == 0 {
		return 0
	}
	n := it.exprs[a].nodes + it.exprs[b].nodes + 1
	if n > maxExprNodes {
		return 0
	}
	key := exprKey{kind: exprBin, op: op, a: a, b: b}
	id, slot := it.lookup(key)
	if id != 0 {
		return id
	}
	// The node's locals: a's, then b's that a does not mention.
	start := len(it.locals)
	it.locals = append(it.locals, it.localsOf(a)...)
	for _, l := range it.localsOf(b) {
		seen := false
		for _, e := range it.locals[start:] {
			if e == l {
				seen = true
				break
			}
		}
		if !seen {
			it.locals = append(it.locals, l)
		}
	}
	return it.add(key, slot, n, len(it.locals)-start)
}

// assignSite is one local.set or local.tee inside some loop, recorded by
// prescan in body order.
type assignSite struct {
	local int32
	loop  int32 // innermost enclosing loop, an index into mwalker.loops
	// inc is the site's constant increment when it is the canonical
	// `local.get k; i32.const d; i32.add; local.set k` with d >= 0 and the
	// whole window inside its innermost loop; -1 for any other site.
	inc int64
}

// loopSpan is the run of mwalker.sites inside one loop body, nested loops
// included: a loop body is contiguous, so its sites are too.
type loopSpan struct {
	at, outer      int32 // body index of the OpLoop; enclosing loop or -1
	siteLo, siteHi int32
}

// killMark is per-local scratch for one loop entry, valid when gen matches
// the walker's killGen.
type killMark struct {
	gen uint32
	bad bool   // some assignment is not a canonical increment of this loop
	sum uint64 // total of the canonical increments
}

// mwalker drives the pass over one function. Everything below the first
// block is scratch that survives from function to function and, through
// walkerPool, from one Analyze call to the next.
type mwalker struct {
	m       *wasm.Module
	f       *wasm.Func
	minMem  uint64
	nLocals int
	safe    []uint64 // bitset over body indices, owned by the Facts
	report  *Report

	nextVer   int32
	cur       *mstate // nil while the walk is in dead code
	dead      bool
	deadDepth int

	frames []mframe
	free   []*mstate
	it     interner

	// prescan's tables, and the position of the walk in them: loops are
	// met in body order, live or dead, so the next OpLoop is loops[loopSeq].
	sites   []assignSite
	loops   []loopSpan
	open    []int32
	loopSeq int
	// kill marks the locals assigned in the loop being entered; killed
	// lists them. certs holds the induction certificates of the loop most
	// recently entered — the only ones that can be live: a frame pushed
	// inside a loop first ends that loop's header (dirtyHeader), so once
	// certs is overwritten by an inner loop the outer one's are unusable.
	kill    []killMark
	killGen uint32
	killed  []int32
	certs   []inductCert
}

// maxScratchBytes bounds what a pooled walker may keep between calls; one
// that a large module grew past it is dropped instead of pooled, so a single
// outsized deploy does not raise the process's resident set for good. The
// suite and the whole test corpus leave it at 32 KiB.
const maxScratchBytes = 1 << 20

var walkerPool = sync.Pool{New: func() any { return new(mwalker) }}

// retire returns w to the pool unless it grew past maxScratchBytes. It must
// hold no state outside its free list by now (analyze leaves none).
func (w *mwalker) retire() {
	w.m, w.f, w.safe, w.report = nil, nil, nil, nil
	if w.scratchBytes() <= maxScratchBytes {
		walkerPool.Put(w)
	}
}

// scratchBytes is the memory w's tables and free states pin.
func (w *mwalker) scratchBytes() int {
	size := capBytes(w.it.exprs) + capBytes(w.it.locals) + capBytes(w.it.slots) +
		capBytes(w.sites) + capBytes(w.loops) + capBytes(w.kill) + capBytes(w.frames)
	for _, st := range w.free {
		size += capBytes(st.stack) + capBytes(st.loc) + capBytes(st.avail)
	}
	return size
}

func capBytes[T any](s []T) int {
	var elem T
	return cap(s) * int(unsafe.Sizeof(elem))
}

func (w *mwalker) ver() int32 {
	w.nextVer++
	return w.nextVer
}

// newState takes a state off the free list; its contents are stale.
func (w *mwalker) newState() *mstate {
	if n := len(w.free); n > 0 {
		st := w.free[n-1]
		w.free = w.free[:n-1]
		return st
	}
	return new(mstate)
}

func (w *mwalker) release(st *mstate) {
	if st != nil {
		w.free = append(w.free, st)
	}
}

// fork copies st shaped for a branch into a frame at the given height
// carrying arity values: the bottom height operands, then the top arity.
func (w *mwalker) fork(st *mstate, height, arity int) *mstate {
	ns := w.newState()
	ns.stack = append(ns.stack[:0], st.stack[:height]...)
	ns.stack = append(ns.stack, st.stack[len(st.stack)-arity:]...)
	ns.loc = append(ns.loc[:0], st.loc...)
	ns.avail = append(ns.avail[:0], st.avail...)
	return ns
}

// shape is fork for a state whose program point ends at the branch: the
// state itself is reshaped and moves to the target.
func shape(st *mstate, height, arity int) *mstate {
	copy(st.stack[height:], st.stack[len(st.stack)-arity:])
	st.stack = st.stack[:height+arity]
	return st
}

// analyze runs the pass over one function, setting a bit of safe for every
// access proven in bounds.
func (w *mwalker) analyze(m *wasm.Module, f *wasm.Func, minMem uint64, safe []uint64, report *Report) {
	ft := m.Types[f.TypeIdx]
	w.m, w.f, w.minMem, w.safe, w.report = m, f, minMem, safe, report
	w.nLocals = len(ft.Params) + len(f.Locals)
	w.nextVer, w.dead, w.deadDepth = 0, false, 0
	w.it.reset()
	w.prescan()

	st := w.topState(0)
	// Declared (non-parameter) locals start zeroed.
	for i := len(ft.Params); i < w.nLocals; i++ {
		st.loc[i].iv = ivConst(0)
	}
	w.cur = st
	w.frames = append(w.frames[:0], mframe{op: wasm.OpBlock, arity: len(ft.Results)})
	for i := range f.Body {
		w.step(i, f.Body[i])
		if len(w.frames) == 0 {
			break // function-level frame closed by an explicit end
		}
	}
	// A body need not close its function-level frame: retire what is left.
	for i := range w.frames {
		w.release(w.frames[i].join)
		w.release(w.frames[i].elseState)
	}
	w.release(w.cur)
	w.cur = nil
}

// topState builds an all-unknown state at the given operand height: fresh
// versions everywhere, no intervals, empty availability. Used to start the
// walk and to continue it after statically unreachable block ends.
func (w *mwalker) topState(height int) *mstate {
	st := w.newState()
	st.stack = st.stack[:0]
	for i := 0; i < height; i++ {
		st.stack = append(st.stack, aval{})
	}
	st.loc = st.loc[:0]
	for i := 0; i < w.nLocals; i++ {
		st.loc = append(st.loc, lstate{ver: w.ver()})
	}
	st.avail = st.avail[:0]
	return st
}

// meet combines two predecessor states into a and retires b; nil is the
// unreachable identity.
func (w *mwalker) meet(a, b *mstate) *mstate {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if len(b.stack) < len(a.stack) {
		a.stack = a.stack[:len(b.stack)]
	}
	for i := range a.stack {
		a.stack[i] = meetVal(a.stack[i], b.stack[i])
	}
	for k := range a.loc {
		la, lb := &a.loc[k], &b.loc[k]
		if la.ver != lb.ver {
			la.ver, la.leaf = w.ver(), 0
		} else if la.leaf == 0 {
			la.leaf = lb.leaf
		}
		la.iv = hull(la.iv, lb.iv)
	}
	// Availability survives where both sides proved it, at the smaller
	// extent.
	out, j := a.avail[:0], 0
	for _, e := range a.avail {
		for j < len(b.avail) && b.avail[j].expr < e.expr {
			j++
		}
		if j == len(b.avail) {
			break
		}
		if be := b.avail[j]; be.expr == e.expr {
			if be.end < e.end {
				e.end = be.end
			}
			out = append(out, e)
		}
	}
	a.avail = out
	w.release(b)
	return a
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
	w.cur.loc[k] = lstate{ver: w.ver(), iv: nv}
}

// goDead ends the live path; the walk skips to the enclosing else or end.
func (w *mwalker) goDead() {
	w.release(w.cur)
	w.cur = nil
	w.dead = true
}

// closeFrame processes a live or dead `end`: fall is the state falling off
// the block's end (it moves into the result), nil on a dead path.
func (w *mwalker) closeFrame(fall *mstate) {
	fr := *w.top()
	w.frames = w.frames[:len(w.frames)-1]
	res := fall
	if res != nil {
		shape(res, fr.height, fr.arity)
	}
	res = w.meet(res, fr.join)
	if fr.op == wasm.OpIf {
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

// branch merges st, shaped for the frame labeled `label`, into that frame's
// join (loop targets are back edges: the conservative loop-entry state
// already covers them, so nothing to record). With dies set st's program
// point ends here and st itself is handed over; otherwise a copy is.
func (w *mwalker) branch(label uint64, st *mstate, dies bool) {
	fr := &w.frames[len(w.frames)-1-int(label)]
	switch {
	case fr.op == wasm.OpLoop:
		if dies {
			w.release(st)
		}
	case dies:
		fr.join = w.meet(fr.join, shape(st, fr.height, fr.arity))
	default:
		fr.join = w.meet(fr.join, w.fork(st, fr.height, fr.arity))
	}
}

func blockTypeArity(imm uint64) int {
	if byte(imm) == wasm.BlockTypeEmpty {
		return 0
	}
	return 1
}

// prescan records, in one pass over the body, every local assignment that
// sits inside a loop and each loop's span of them, so that entering a loop
// costs a scan of its own assignments rather than of its whole body. A site
// nested inside an inner loop runs an unknown number of times per iteration
// of an outer one, so its increment cannot be summed statically for the
// outer loop: a site is a canonical increment of its innermost loop only.
func (w *mwalker) prescan() {
	w.sites, w.loops, w.open, w.loopSeq = w.sites[:0], w.loops[:0], w.open[:0], 0
	body := w.f.Body
	cur := int32(-1) // innermost open loop
scan:
	for j := range body {
		switch body[j].Op {
		case wasm.OpBlock, wasm.OpIf:
			w.open = append(w.open, -1)
		case wasm.OpLoop:
			w.open = append(w.open, int32(len(w.loops)))
			w.loops = append(w.loops, loopSpan{at: int32(j), outer: cur, siteLo: int32(len(w.sites))})
			cur = int32(len(w.loops) - 1)
		case wasm.OpEnd:
			if len(w.open) == 0 {
				break scan // the function-level end
			}
			if l := w.open[len(w.open)-1]; l >= 0 {
				w.loops[l].siteHi = int32(len(w.sites))
				cur = w.loops[l].outer
			}
			w.open = w.open[:len(w.open)-1]
		case wasm.OpLocalTee:
			if cur >= 0 {
				w.sites = append(w.sites, assignSite{local: int32(body[j].Imm), loop: cur, inc: -1})
			}
		case wasm.OpLocalSet:
			if cur < 0 {
				continue
			}
			// Recognize the exact producer window `local.get k;
			// i32.const d; i32.add` with d >= 0, all of it after the
			// loop opcode. Anything else disqualifies the local.
			k, inc := body[j].Imm, int64(-1)
			if j-3 > int(w.loops[cur].at) &&
				body[j-3].Op == wasm.OpLocalGet && body[j-3].Imm == k &&
				body[j-2].Op == wasm.OpI32Const && int32(body[j-2].Imm) >= 0 &&
				body[j-1].Op == wasm.OpI32Add {
				inc = int64(uint32(body[j-2].Imm))
			}
			w.sites = append(w.sites, assignSite{local: int32(k), loop: cur, inc: inc})
		}
	}
	if len(w.kill) < w.nLocals {
		w.kill = make([]killMark, w.nLocals)
		w.killGen = 0
	}
}

// enterLoop assumes nothing about the locals the loop body assigns: fresh
// versions, top intervals, and no availability through them. Those whose
// every assignment is a canonical increment of this loop get an induction
// certificate recording the interval they entered with.
func (w *mwalker) enterLoop(idx int) {
	li := w.loopSeq - 1
	if li >= len(w.loops) || int(w.loops[li].at) != idx {
		panic("analysis: loop walk out of step with prescan")
	}
	w.killGen++
	if w.killGen == 0 { // wrapped: stale marks could alias
		clear(w.kill)
		w.killGen = 1
	}
	w.killed, w.certs = w.killed[:0], w.certs[:0]
	span := w.loops[li]
	for _, s := range w.sites[span.siteLo:span.siteHi] {
		mark := &w.kill[s.local]
		if mark.gen != w.killGen {
			*mark = killMark{gen: w.killGen}
			w.killed = append(w.killed, s.local)
		}
		if s.inc < 0 || int(s.loop) != li {
			mark.bad = true
		} else {
			mark.sum += uint64(s.inc)
		}
	}
	for _, k := range w.killed {
		entry := w.cur.loc[k].iv
		w.setLocal(int(k), iv{})
		if mark := w.kill[k]; !mark.bad {
			w.certs = append(w.certs, inductCert{local: k, ver: w.cur.loc[k].ver, sum: mark.sum, entry: entry})
		}
	}
	if len(w.killed) == 0 {
		return
	}
	keep := w.cur.avail[:0]
	for _, e := range w.cur.avail {
		if !w.mentionsKilled(e.expr) {
			keep = append(keep, e)
		}
	}
	w.cur.avail = keep
}

func (w *mwalker) mentionsKilled(expr int32) bool {
	for _, l := range w.it.localsOf(expr) {
		if w.kill[l].gen == w.killGen {
			return true
		}
	}
	return false
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

// cmpRel returns the relation an i32 compare establishes between its
// operands when it is true and when it is false; ok is false for any other
// opcode.
func cmpRel(op wasm.Opcode) (whenTrue, whenFalse rel, ok bool) {
	switch op {
	case wasm.OpI32LtU:
		return relLtU, relGeU, true
	case wasm.OpI32LeU:
		return relLeU, relGtU, true
	case wasm.OpI32GtU:
		return relGtU, relLeU, true
	case wasm.OpI32GeU:
		return relGeU, relLtU, true
	case wasm.OpI32LtS:
		return relLtS, relGeS, true
	case wasm.OpI32LeS:
		return relLeS, relGtS, true
	case wasm.OpI32GtS:
		return relGtS, relLeS, true
	case wasm.OpI32GeS:
		return relGeS, relLtS, true
	case wasm.OpI32Eq:
		return relEq, relNone, true
	case wasm.OpI32Ne:
		return relNone, relEq, true
	}
	return relNone, relNone, false
}

// mirrorCmp swaps operand order: `const op local` becomes `local op' const`.
// It is defined for exactly the opcodes cmpRel is.
func mirrorCmp(op wasm.Opcode) wasm.Opcode {
	switch op {
	case wasm.OpI32LtU:
		return wasm.OpI32GtU
	case wasm.OpI32LeU:
		return wasm.OpI32GeU
	case wasm.OpI32GtU:
		return wasm.OpI32LtU
	case wasm.OpI32GeU:
		return wasm.OpI32LeU
	case wasm.OpI32LtS:
		return wasm.OpI32GtS
	case wasm.OpI32LeS:
		return wasm.OpI32GeS
	case wasm.OpI32GtS:
		return wasm.OpI32LtS
	case wasm.OpI32GeS:
		return wasm.OpI32LeS
	}
	return op // eq, ne
}

// narrow intersects local k's interval in st with [lo, hi].
func narrow(st *mstate, k int32, lo, hi uint64) {
	if lo > hi {
		lo = hi // statically empty path; clamp rather than track bottom
	}
	if cur := st.loc[k].iv; cur.known {
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
	st.loc[k].iv = iv{known: true, lo: lo, hi: hi}
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
func (w *mwalker) refine(st *mstate, c cmpFact, truth bool, exitEdge bool) {
	r, whenFalse, ok := cmpRel(c.op)
	if !ok {
		return // no fact, c.op is not a compare
	}
	if truth == c.neg {
		r = whenFalse
	}
	k := c.local
	if st.loc[k].ver != c.ver || r == relNone {
		return
	}
	cst := c.c
	const signBit = uint64(1) << 31
	switch r {
	case relEq:
		narrow(st, k, cst, cst)
	case relLtU:
		if cst > 0 {
			narrow(st, k, 0, cst-1)
		}
	case relLeU:
		narrow(st, k, 0, cst)
	case relGtU:
		narrow(st, k, cst+1, 1<<32-1)
	case relGeU:
		narrow(st, k, cst, 1<<32-1)
	case relGeS:
		// signed(k) >= C with C >= 0 pins the nonnegative region.
		if int32(cst) >= 0 {
			narrow(st, k, cst, signBit-1)
		}
	case relGtS:
		if int32(cst) >= -1 {
			narrow(st, k, uint64(uint32(int32(cst)+1)), signBit-1)
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
		if cur := st.loc[k].iv; cur.known && cur.hi < signBit {
			narrow(st, k, cur.lo, bound-1)
			return
		}
		if fr := w.top(); exitEdge && fr.op == wasm.OpLoop && fr.headerClean {
			for _, cert := range w.certs {
				if cert.local == k {
					if cert.ver == c.ver && cert.entry.known && cert.entry.hi < signBit &&
						bound-1+cert.sum < signBit {
						narrow(st, k, cert.entry.lo, bound-1)
					}
					break
				}
			}
		}
	}
}

// noteAccess records the fact for the memory access at body index idx and
// updates availability. addr is the address operand, off/width the static
// offset and access width.
func (w *mwalker) noteAccess(idx int, addr aval, off uint64, width uint32) {
	extent := off + uint64(width)
	safe := addr.iv.known && addr.iv.hi+extent <= w.minMem
	at, found := 0, false
	if addr.expr != 0 {
		at, found = w.cur.find(addr.expr)
		if found && w.cur.avail[at].end >= extent {
			safe = true
		}
	}
	w.report.MemAccesses++
	if safe {
		w.report.SafeAccesses++
		w.safe[idx>>6] |= 1 << (idx & 63)
	}
	// Whether checked or not, a completed access proves addr + extent <=
	// memLen: an out-of-bounds access traps under every strategy, so code
	// after it only runs when the address was in bounds — and linear
	// memory never shrinks.
	switch {
	case addr.expr == 0:
	case !found:
		a := append(w.cur.avail, availEnt{})
		copy(a[at+1:], a[at:])
		a[at] = availEnt{expr: addr.expr, end: extent}
		w.cur.avail = a
	case w.cur.avail[at].end < extent:
		w.cur.avail[at].end = extent
	}
}

func (w *mwalker) step(idx int, in wasm.Instr) {
	if w.dead {
		switch in.Op {
		case wasm.OpLoop:
			w.loopSeq++
			w.deadDepth++
		case wasm.OpBlock, wasm.OpIf:
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
		w.goDead()
		return
	case wasm.OpBlock:
		w.dirtyHeader()
		w.frames = append(w.frames, mframe{
			op: wasm.OpBlock, height: len(w.cur.stack), arity: blockTypeArity(in.Imm),
		})
		return
	case wasm.OpLoop:
		w.dirtyHeader()
		w.loopSeq++
		w.enterLoop(idx)
		w.frames = append(w.frames, mframe{
			op: wasm.OpLoop, height: len(w.cur.stack), arity: blockTypeArity(in.Imm),
			headerClean: true,
		})
		return
	case wasm.OpIf:
		cond := w.pop()
		elseState := w.fork(w.cur, len(w.cur.stack), 0)
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
		fr.join = w.meet(fr.join, shape(w.cur, fr.height, fr.arity))
		w.cur = fr.elseState
		fr.elseState = nil
		fr.op = wasm.OpElse
		return
	case wasm.OpEnd:
		w.closeFrame(w.cur)
		return
	case wasm.OpBr:
		w.branch(in.Imm, w.cur, true)
		w.cur = nil
		w.dead = true
		return
	case wasm.OpBrIf:
		cond := w.pop()
		// The taken edge carries the compare refined true. A back edge
		// records nothing, so it needs no copy to refine.
		if fr := &w.frames[len(w.frames)-1-int(in.Imm)]; fr.op != wasm.OpLoop {
			taken := w.fork(w.cur, fr.height, fr.arity)
			w.refine(taken, cond.cmp, true, false)
			fr.join = w.meet(fr.join, taken)
		}
		// While headerClean holds, the loop is the top frame, so any label
		// other than 0 (the back edge) leaves the loop: the taken edge is a
		// loop exit, and the fall-through may use the induction certificate.
		w.refine(w.cur, cond.cmp, false, in.Imm >= 1)
		return
	case wasm.OpBrTable:
		w.pop()
		for _, l := range wasm.BrTargets(w.f.BrLabels, in) {
			w.branch(uint64(l), w.cur, false)
		}
		w.branch(in.Imm, w.cur, true)
		w.cur = nil
		w.dead = true
		return
	case wasm.OpReturn:
		w.goDead()
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
		k := int32(in.Imm)
		l := &w.cur.loc[k]
		if l.leaf == 0 {
			l.leaf = w.it.leaf(k, l.ver)
		}
		w.push(aval{
			iv: l.iv, expr: l.leaf,
			isLeaf: true, leafLocal: k, leafVer: l.ver,
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
	height := len(w.cur.stack)
	w.release(w.cur)
	w.cur = w.topState(height)
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
		out := aval{iv: iv{known: true, hi: 1}, cmp: v.cmp}
		out.cmp.neg = v.cmp.op != 0 && !v.cmp.neg
		w.push(out)
		return
	}

	if _, _, isCmp := cmpRel(op); isCmp {
		rhs, lhs := s[n-1], s[n-2]
		w.popN(2)
		out := aval{iv: iv{known: true, hi: 1}}
		if lhs.isLeaf && rhs.iv.known && rhs.iv.lo == rhs.iv.hi {
			out.cmp = cmpFact{local: lhs.leafLocal, ver: lhs.leafVer, op: op, c: rhs.iv.lo}
		} else if rhs.isLeaf && lhs.iv.known && lhs.iv.lo == lhs.iv.hi {
			out.cmp = cmpFact{local: rhs.leafLocal, ver: rhs.leafVer, op: mirrorCmp(op), c: lhs.iv.lo}
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
