package engine

import (
	"fmt"
	"sync"
	"unsafe"

	"sledge/internal/analysis"
	"sledge/internal/wasm"
)

// Lowering for the optimized tier: one forward walk over a validated wasm
// function body that emits the slot-operand form runRegister executes
// (module.go documents the instruction layout). Nothing is written to be read
// back: each source instruction is lowered when the walk reaches it.
//
// After validation the operand-stack height at every program point is a
// static constant, so a frame's operand stack is a fixed set of registers in
// its slab: depth k lives in slot nLocals+k, its canonical slot, and the
// locals below are registers too. The walk keeps a compile-time virtual
// operand stack whose entries say where each value currently is: in its
// canonical slot, still in local l (a pending local.get), or not in the frame
// at all (a pending constant). local.get and const emit nothing; they push a
// pending entry. A consumer names its sources directly — a local and an
// operand register are both just R[s] — or takes the constant as an
// immediate where a form for that exists, and a producer followed by
// local.set/tee writes that local as its destination. Whatever has no slot
// form for a pending operand first materialises it into its canonical slot
// with iMov/iConst, which is what a stack machine would have cost, so
// correctness never depends on coverage. (Two more kinds of entry, an
// unemitted multiply-by-constant and an unemitted add, feed the three
// superinstructions; see vent.)
//
// Control flow is wasm's label stack (lframe). A branch to a loop names the
// header's pc, which is known already; a branch to the end of a block or an
// if, and an if's false edge, waits on its frame's patch list until the walk
// places that label. After br, br_table, return or unreachable the rest of
// the frame (up to its else or end) is dead: it is dropped, and only its
// nesting is tracked (dead, deadDepth). A label is placed only where a
// branch leads, and a loop header is one only if a branch in the loop leads
// back to it (loopTargeted looks ahead). Where no branch leads, the walk goes
// straight on. In particular, an end nothing branches to that closes arms
// which all left by a branch is never reached (reach is false): its code is
// live to wasm's typing, so the walk still tracks heights and frames through
// it and counts its bounds checks, call_indirect sites and br_table tables,
// but emits nothing.
//
// The hazards are all visible here:
//
//   - a pending read of local l is materialised before anything writes l;
//   - at every control-flow edge — a branch instruction, and falling into a
//     label — everything live across it is materialised, so every path
//     reaches a label with the same, canonical, stack; the results a branch
//     carries are canonical and the handler moves them (or, when they
//     already sit at the destination, moves nothing);
//   - call arguments (and an indirect call's table index) are materialised:
//     the callee's frame starts at the first argument's canonical slot;
//   - nothing is materialised at a charge point. A yield resumes the same
//     code on the same slab, and the resumed consumer reads its pending
//     sources where they still are. Snapshots, held sandboxes and ResumeHost
//     see the slab and Instance.sp, which is set from the instruction's
//     recorded top whenever a run leaves the loop; canonical slots of
//     pending entries hold stale bits below that top and nobody reads them.
//
// In the same walk an i32 comparison (or i32.eqz) fuses with the conditional
// branch it feeds — br_if directly, `if` and `i32.eqz; br_if` with the
// sense inverted. With fuse off (NoFusion, PerInstrNops) every push is
// materialised at once and nothing looks ahead: one dispatch per source
// instruction, operands in canonical slots.
//
// Gas charges (module.go, iGasCharge) are emitted before the instruction
// that anchors them and thinned in the same walk, by three rules that leave
// every path paying the same costs at the same points:
//
//   - two adjacent charges that no label falls between are summed (in every
//     configuration: a charge is not a source instruction);
//   - a charge that directly follows a conditional branch, with no label
//     between, is reached only by falling out of that branch: its cost goes
//     into the branch word and it is not emitted;
//   - a branch whose label is a charge takes the cost into its word and
//     lands one past it. A back-edge does so when it is emitted; forward
//     branches wait at the label until the charge there is final. The
//     charge stays, for whatever falls into it (a loop entered from above, a
//     then-arm running into the merge) and for br_table, which has no room.
//
// The last two are jump threading and need fuse. A branch has neither a
// trap nor a side effect between its test and the charge, so gas at every
// trap is what it was; the handler pays after any result move and yields
// with the pc and frame top dispatching the charge would have left (see
// paidTop), so a resume never pays twice and nothing records "paid".
//
// The pass is total by contract: its output is the only form runRegister
// executes, so a body it cannot lower — which validation rules out — is a
// Compile error, never a panic or code that runs off a table.

// vent is one entry of the virtual operand stack: where the value at that
// depth is, or what it will be computed from. Besides a slot and a constant
// an entry can be an i32 multiply by a constant or an i32 add of two slots
// that has not been emitted yet — so that the add, or the byte load, that
// consumes it can be one instruction (iI32MulAddI, iI32Add3, iI32Load8UX;
// docs/PERF.md §13 has the pair counts that chose these three). Any other
// consumer materialises it with the very instruction it stands for. Its
// hazards are those of a pending read of each slot it names, plus one: an
// unemitted result may name the canonical slot one above its own depth (its
// right operand), which the next push would take — push materialises it
// first.
type vent struct {
	kind  ventKind
	slot  int32
	slot2 int32 // vSum only
	c     uint64
}

type ventKind uint8

const (
	vSlot  ventKind = iota // R[slot]
	vConst                 // c
	vMul                   // R[slot] * c, i32
	vSum                   // R[slot] + R[slot2], i32
)

// reads reports whether e's value depends on slot s.
func (e vent) reads(s int32) bool {
	switch e.kind {
	case vConst:
		return false
	case vSum:
		return e.slot == s || e.slot2 == s
	}
	return e.slot == s
}

// lframe is one entry of the label stack: a block, a loop or an if (an
// OpElse frame from its else on), or the function body, an OpBlock.
type lframe struct {
	kind   wasm.Opcode
	height int // operand height at entry
	arity  int // result count
	// label is a loop header's pc; -1 when no branch leads back to it.
	label int32
	// elseBr is the out index of an if's false-edge branch until the else or
	// the end places it; -1 otherwise.
	elseBr int
	// targeted: a branch the walk lowered, emitted or not, leaves for the
	// frame's end, which is therefore a label.
	targeted bool
	patches  []patch // emitted branches and br_table entries waiting for the end's pc
}

// brArity is how many results a branch to f carries: a loop's label takes
// none.
func (f *lframe) brArity() int {
	if f.kind == wasm.OpLoop {
		return 0
	}
	return f.arity
}

// patch is a jump waiting for its label's pc: out[i].a, or with tbl >= 0 the
// br_table entry cf.brTables[tbl][i].
type patch struct{ tbl, i int32 }

func blockArity(bt byte) int {
	if bt == wasm.BlockTypeEmpty {
		return 0
	}
	return 1
}

// regalloc is the pass state. One value serves every function of a module,
// and through regallocPool one Compile after another, so its scratch slices
// are allocated only when a body outgrows them. Nothing a CompiledModule
// keeps may alias them: run copies out each function's code and tops.
type regalloc struct {
	cm    *CompiledModule
	m     *wasm.Module
	facts *analysis.Facts // nil when analysis is off
	fuse  bool
	// thread: branches pay the charges they lead to (fuse, and every cost
	// fits the branch word; set by Compile).
	thread bool

	// The function being lowered, its charge table and idx, the body index
	// of the instruction at hand (len(f.Body) at the implicit end).
	cf      *compiledFunc
	f       *wasm.Func
	charges []uint32
	fnIdx   int
	idx     int
	nl      int32 // nLocals: canonical slot of depth k is nl+k

	frames    []lframe
	loops     []loopMark // loopTargeted's answers, taken from loopHead on
	loopHead  int
	scan      []int32 // scanLoops' scratch
	dead      bool    // after a terminal instruction, until its frame's else or end
	deadDepth int     // frames opened in dead code
	// reach is false where the code is live but nothing leads to it: from a
	// terminal instruction to the next label. The operand stack there is
	// canonical, and only its height matters.
	reach bool
	maxH  int // the largest operand height the body reaches

	out  []cinstr
	tops []int32 // out's tops in full, kept for a frame too big for cinstr.top
	vs   []vent
	// top is the frame top at the source instruction being lowered, stamped
	// on everything emitted for it.
	top int32
	// barrier is the pc of the latest label: a charge emitted before it must
	// not absorb one emitted after.
	barrier int
	// landing is the pc of the latest forward label (-1 when none waits),
	// and landers the jumps to it, patched once the instruction at landing
	// is final — a charge there may still absorb the next one.
	landing int
	landers []patch
	err     error
}

// maxScratchBytes bounds what a pooled regalloc may keep between compiles;
// one that a large module grew past it is dropped instead of pooled, so a
// single outsized deploy does not raise the process's resident set for good.
const maxScratchBytes = 1 << 20

var regallocPool = sync.Pool{New: func() any { return new(regalloc) }}

// newRegalloc takes a pass off the pool for one Compile of m into cm. The
// caller hands it back with retire.
func newRegalloc(cm *CompiledModule, m *wasm.Module, facts *analysis.Facts, fuse, thread bool) *regalloc {
	ra := regallocPool.Get().(*regalloc)
	ra.cm, ra.m, ra.facts, ra.fuse, ra.thread = cm, m, facts, fuse, thread
	return ra
}

// retire returns ra to the pool unless its scratch grew past
// maxScratchBytes, dropping every reference into the module it compiled.
func (ra *regalloc) retire() {
	ra.cm, ra.m, ra.facts, ra.cf, ra.f, ra.charges = nil, nil, nil, nil, nil, nil
	size := cap(ra.out)*int(unsafe.Sizeof(cinstr{})) + cap(ra.tops)*4 +
		cap(ra.vs)*int(unsafe.Sizeof(vent{})) + cap(ra.frames)*int(unsafe.Sizeof(lframe{}))
	if size <= maxScratchBytes {
		regallocPool.Put(ra)
	}
}

// i32 comparisons are consecutive in both encodings and in the same order,
// so iBrIfEq+k (or iBrIfEqI+k) fuses wasm.OpI32Eq+k. cmpNot[k] is the
// comparison that holds exactly when k does not; cmpSwap[k] the one that
// holds for (y, x) exactly when k holds for (x, y).
var (
	cmpNot  = [10]uint16{1, 0, 8, 9, 6, 7, 4, 5, 2, 3}
	cmpSwap = [10]uint16{0, 1, 4, 5, 2, 3, 8, 9, 6, 7}
)

func (ra *regalloc) fail(format string, args ...any) {
	if ra.err == nil {
		ra.err = fmt.Errorf(format, args...)
	}
}

func (ra *regalloc) emit(ci cinstr) {
	if ra.landing >= 0 && len(ra.out) > ra.landing {
		ra.land()
	}
	ci.top = uint16(ra.top)
	ra.out = append(ra.out, ci)
	ra.tops = append(ra.tops, ra.top)
}

func (ra *regalloc) canon(k int) int32 { return ra.nl + int32(k) }

// clobber is called before anything overwrites the canonical slot of depth
// j (a push, or a callee's frame): only the entry just below can be an
// unemitted result naming it.
func (ra *regalloc) clobber(j int) {
	if j > 0 && ra.vs[j-1].kind != vSlot && ra.vs[j-1].reads(ra.canon(j)) {
		ra.mat(j - 1)
	}
}

func (ra *regalloc) push(e vent) {
	ra.clobber(len(ra.vs))
	ra.vs = append(ra.vs, e)
	ra.maxH = max(ra.maxH, len(ra.vs))
	if !ra.fuse {
		ra.mat(len(ra.vs) - 1)
	}
}

func (ra *regalloc) pop() vent {
	if len(ra.vs) == 0 {
		ra.fail("operand stack underflow")
		return vent{}
	}
	e := ra.vs[len(ra.vs)-1]
	ra.vs = ra.vs[:len(ra.vs)-1]
	return e
}

// effect applies an instruction's stack effect where nothing is emitted
// (reach is false): the stack stays canonical.
func (ra *regalloc) effect(pop, push int) {
	if pop > len(ra.vs) {
		ra.fail("operand stack underflow")
		return
	}
	ra.reset(len(ra.vs) - pop + push)
}

// reset makes the operand stack the canonical one of height h.
func (ra *regalloc) reset(h int) {
	ra.vs = ra.vs[:0]
	for k := 0; k < h; k++ {
		ra.vs = append(ra.vs, vent{slot: ra.canon(k)})
	}
	ra.maxH = max(ra.maxH, h)
}

// mat materialises the entry at depth k into its canonical slot.
func (ra *regalloc) mat(k int) {
	e, c := &ra.vs[k], ra.canon(k)
	if e.kind == vSlot && e.slot == c {
		return
	}
	ra.moveTo(c, *e)
	*e = vent{slot: c}
}

// moveTo emits the instruction that puts e's value into slot d: a move, or
// the operation e stands for.
func (ra *regalloc) moveTo(d int32, e vent) {
	switch e.kind {
	case vConst:
		ra.emit(cinstr{op: iConst, h: d, imm: e.c})
		ra.cm.regallocStats.Materialised++
	case vSlot:
		ra.emit(cinstr{op: iMov, h: d, a: e.slot})
		ra.cm.regallocStats.Materialised++
	case vMul:
		ra.emit(cinstr{op: iI32MulI, h: d, a: e.slot, imm: e.c})
	case vSum:
		ra.emit(cinstr{op: uint16(wasm.OpI32Add), h: d, a: e.slot, b: e.slot2})
	}
}

// flush materialises depths [lo, hi).
func (ra *regalloc) flush(lo, hi int) {
	for k := lo; k < hi; k++ {
		ra.mat(k)
	}
}

// flushLocal materialises every pending read of local l; called before
// anything writes l.
func (ra *regalloc) flushLocal(l int32) {
	for k := range ra.vs {
		if ra.vs[k].reads(l) {
			ra.mat(k)
		}
	}
}

// use returns the slot a consumer reads e from, e having been popped from
// depth k. Whatever is not in a slot yet is put in its canonical one.
func (ra *regalloc) use(e vent, k int) int32 {
	if e.kind != vSlot {
		c := ra.canon(k)
		ra.moveTo(c, e)
		return c
	}
	if e.slot < ra.nl {
		ra.cm.regallocStats.OperandsForwarded++
	}
	return e.slot
}

// next returns the body index, from j on, of the instruction lowered next
// when nothing is emitted before it: a nop passes, a charge point does not.
// Only fusion looks ahead.
func (ra *regalloc) next(j int) (int, bool) {
	if !ra.fuse {
		return 0, false
	}
	for ; j < len(ra.f.Body) && ra.charges[j] == 0; j++ {
		if ra.f.Body[j].Op != wasm.OpNop {
			return j, true
		}
	}
	return 0, false
}

// dst picks where the instruction at hand puts its result, its operands
// already popped: the local a directly following local.set/tee names, else
// the canonical slot. skip is the number of following instructions the
// choice consumed.
func (ra *regalloc) dst() (slot int32, skip int) {
	ra.maxH = max(ra.maxH, len(ra.vs)+1)
	if j, ok := ra.next(ra.idx + 1); ok {
		if nx := ra.f.Body[j]; nx.Op == wasm.OpLocalSet || nx.Op == wasm.OpLocalTee {
			l := int32(nx.Imm)
			ra.flushLocal(l)
			if nx.Op == wasm.OpLocalTee {
				ra.push(vent{slot: l})
			}
			ra.cm.regallocStats.ResultsForwarded++
			return l, j - ra.idx
		}
	}
	c := ra.canon(len(ra.vs))
	ra.push(vent{slot: c})
	return c, 0
}

// open pushes a frame for the operands now on the stack, reusing the patch
// list of the frame that last had its slot.
func (ra *regalloc) open(kind wasm.Opcode, arity int) *lframe {
	f := lframe{kind: kind, height: len(ra.vs), arity: arity, label: -1, elseBr: -1}
	if n := len(ra.frames); n < cap(ra.frames) {
		f.patches = ra.frames[:n+1][n].patches[:0]
	}
	ra.frames = append(ra.frames, f)
	return &ra.frames[len(ra.frames)-1]
}

func (ra *regalloc) frameAt(label uint64) *lframe {
	if label >= uint64(len(ra.frames)) {
		ra.fail("label %d out of range", label)
		return nil
	}
	return &ra.frames[len(ra.frames)-1-int(label)]
}

// label places a label — a pc some branch leads to — at the next
// instruction, for operand height h: control that falls in materialises
// everything pending, and code nothing fell into becomes reachable with the
// canonical stack. No charge merges across it. It returns the pc.
func (ra *regalloc) label(h int) int32 {
	if ra.reach {
		ra.flush(0, len(ra.vs))
	} else {
		ra.reset(h)
		ra.reach = true
	}
	ra.top = ra.canon(len(ra.vs))
	pc := len(ra.out)
	if ra.landing >= 0 && pc > ra.landing {
		ra.land()
	}
	ra.barrier = pc
	return int32(pc)
}

// await makes the forward label at pc, just placed, the one landers wait
// for.
func (ra *regalloc) await(pc int32, ps ...patch) {
	ra.landing = int(pc)
	ra.landers = append(ra.landers, ps...)
}

// land patches the jumps waiting at landing, whose instruction is final.
func (ra *regalloc) land() {
	for _, p := range ra.landers {
		ra.patchTo(p, int32(ra.landing))
	}
	ra.landers, ra.landing = ra.landers[:0], -1
}

// patchTo points p at pc. A branch whose label is a charge is threaded: it
// pays the charge in its word and lands one past it.
func (ra *regalloc) patchTo(p patch, pc int32) {
	if p.tbl >= 0 {
		ra.cf.brTables[p.tbl][p.i].pc = pc
		return
	}
	ci := &ra.out[p.i]
	ci.a = pc
	if t := int(pc); ra.thread && t < len(ra.out) && ra.out[t].op == iGasCharge {
		ci.imm |= ra.out[t].imm << takenShift
		ci.a++
		ra.cm.regallocStats.ChargesAbsorbed++
	}
}

// jump points the branch at out[j] at f's label: a loop header now, an end
// once the walk places it.
func (ra *regalloc) jump(j int, f *lframe) {
	p := patch{tbl: -1, i: int32(j)}
	if f.kind != wasm.OpLoop {
		f.targeted = true
		f.patches = append(f.patches, p)
	} else if f.label < 0 {
		ra.fail("branch to a loop header with no label")
	} else {
		ra.patchTo(p, f.label)
	}
}

// loopMark records, for a loop the walk lowers, whether a branch it lowers
// leads back to the loop's header.
type loopMark struct {
	idx      int
	targeted bool
}

// loopTargeted reports whether a branch in the loop at body[idx] leads back
// to its header — one the walk lowers, so not one in dead code. The scan
// that answers runs from an outermost loop to its end once and marks every
// loop in it, for the walk to take in order.
func (ra *regalloc) loopTargeted() bool {
	if ra.loopHead == len(ra.loops) {
		ra.scanLoops()
	}
	l := ra.loops[ra.loopHead]
	if ra.loopHead++; l.idx != ra.idx {
		ra.fail("loop scan out of step at %d", l.idx)
	}
	return l.targeted
}

// scanLoops fills ra.loops for the loop at body[idx] and every loop it
// nests, tracking dead code as the walk does.
func (ra *regalloc) scanLoops() {
	ra.loops, ra.loopHead = append(ra.loops[:0], loopMark{idx: ra.idx}), 0
	// labels holds, per open frame, its loop's index in ra.loops, -1 for a
	// block or an if.
	labels := append(ra.scan[:0], 0)
	mark := func(l uint64) {
		if l < uint64(len(labels)) {
			if k := labels[len(labels)-1-int(l)]; k >= 0 {
				ra.loops[k].targeted = true
			}
		}
	}
	dead, deadDepth := false, 0
	for j := ra.idx + 1; j < len(ra.f.Body) && len(labels) > 0; j++ {
		in := ra.f.Body[j]
		if dead {
			switch in.Op {
			case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
				deadDepth++
			case wasm.OpElse:
				dead = deadDepth > 0
			case wasm.OpEnd:
				if deadDepth > 0 {
					deadDepth--
				} else {
					dead, labels = false, labels[:len(labels)-1]
				}
			}
			continue
		}
		switch in.Op {
		case wasm.OpBlock, wasm.OpIf:
			labels = append(labels, -1)
		case wasm.OpLoop:
			labels = append(labels, int32(len(ra.loops)))
			ra.loops = append(ra.loops, loopMark{idx: j})
		case wasm.OpEnd:
			labels = labels[:len(labels)-1]
		case wasm.OpBrIf:
			mark(in.Imm)
		case wasm.OpBrTable:
			for _, l := range wasm.BrTargets(ra.f.BrLabels, in) {
				mark(uint64(l))
			}
			fallthrough
		case wasm.OpBr:
			mark(in.Imm)
			dead = true
		case wasm.OpReturn, wasm.OpUnreachable:
			dead = true
		}
	}
	ra.scan = labels
}

// run lowers f's body into cf: code, tops and maxStack. Accumulates into
// cm.regallocStats (and the check and call_indirect counts into cm).
func (ra *regalloc) run(cf *compiledFunc, f *wasm.Func, charges []uint32, fnIdx int) error {
	ra.cf, ra.f, ra.charges, ra.fnIdx, ra.nl = cf, f, charges, fnIdx, int32(cf.nLocals)
	ra.out, ra.tops, ra.vs, ra.frames, ra.landers = ra.out[:0], ra.tops[:0], ra.vs[:0], ra.frames[:0], ra.landers[:0]
	ra.loops, ra.loopHead = ra.loops[:0], 0
	ra.dead, ra.deadDepth, ra.reach, ra.maxH = false, 0, true, 0
	ra.barrier, ra.landing, ra.err = 0, -1, nil
	ra.open(wasm.OpBlock, cf.numResults)
	for i := 0; i <= len(f.Body); i++ {
		in := wasm.Instr{Op: wasm.OpEnd} // the implicit end of the function
		if i < len(f.Body) {
			in = f.Body[i]
		}
		ra.idx = i
		i += ra.step(in)
		if ra.err != nil {
			return fmt.Errorf("instr %d (%s): %w", ra.idx, in, ra.err)
		}
	}
	if ra.reach || len(ra.frames) > 0 {
		return fmt.Errorf("control falls off the end of the function")
	}
	ra.land()
	cf.maxStack = ra.maxH + 1 // slack for the iBrTable index pop ordering
	cf.code = append(make([]cinstr, 0, len(ra.out)), ra.out...)
	if cf.nLocals+cf.maxStack > 0xFFFF {
		cf.tops = append(make([]int32, 0, len(ra.tops)), ra.tops...)
	}
	return nil
}

// step lowers in, the instruction at body[idx], and returns how many
// following instructions it consumed.
func (ra *regalloc) step(in wasm.Instr) (skip int) {
	if len(ra.frames) == 0 {
		ra.fail("instruction past the function's end")
		return 0
	}
	if ra.dead {
		ra.stepDead(in.Op)
		return 0
	}
	if ra.reach {
		ra.top = ra.canon(len(ra.vs))
		if ra.idx < len(ra.charges) && ra.charges[ra.idx] != 0 {
			if c := uint64(ra.charges[ra.idx]); !ra.foldCharge(c) {
				ra.emit(cinstr{op: iGasCharge, imm: c})
			}
		}
		for n := ra.cm.cfg.PerInstrNops; n > 0; n-- {
			ra.emit(cinstr{op: iNop})
		}
	}
	switch in.Op {
	case wasm.OpNop:
	case wasm.OpUnreachable:
		if ra.reach {
			ra.emit(cinstr{op: iUnreachable})
		}
		ra.dead, ra.reach = true, false
	case wasm.OpBlock:
		ra.open(wasm.OpBlock, blockArity(byte(in.Imm)))
	case wasm.OpLoop:
		f := ra.open(wasm.OpLoop, blockArity(byte(in.Imm)))
		if ra.loopTargeted() {
			f.label = ra.label(f.height)
		}
	case wasm.OpIf:
		if ra.reach {
			ra.branchOn(ra.idx, ra.pop(), true)
		} else {
			ra.effect(1, 0)
			ra.open(wasm.OpIf, blockArity(byte(in.Imm)))
		}
	case wasm.OpElse:
		// The then-arm leaves for the end.
		if f := &ra.frames[len(ra.frames)-1]; f.kind == wasm.OpIf {
			ra.br(f)
		}
		ra.elseArm()
	case wasm.OpEnd:
		if f := &ra.frames[len(ra.frames)-1]; len(ra.vs) != f.height+f.arity {
			ra.fail("height %d at end, want %d", len(ra.vs), f.height+f.arity)
		} else {
			ra.closeFrame()
		}
	case wasm.OpBr:
		if f := ra.frameAt(in.Imm); f != nil {
			ra.br(f)
		}
		ra.dead, ra.reach = true, false
	case wasm.OpBrIf:
		if ra.reach {
			ra.branchOn(ra.idx, ra.pop(), false)
		} else {
			ra.effect(1, 0)
			if f := ra.frameAt(in.Imm); f != nil && f.kind != wasm.OpLoop {
				f.targeted = true
			}
		}
	case wasm.OpBrTable:
		ra.brTable(in)
		ra.dead, ra.reach = true, false
	case wasm.OpReturn:
		if ra.reach {
			ra.ret(ra.cf.numResults)
		}
		ra.dead, ra.reach = true, false
	case wasm.OpCall, wasm.OpCallIndirect:
		ra.callOp(in)
	default:
		return ra.plain(in)
	}
	return 0
}

// plain lowers an instruction with no control flow or call in it.
func (ra *regalloc) plain(in wasm.Instr) (skip int) {
	if _, width, store, ok := wasm.MemOpShape(in.Op); ok {
		return ra.memOp(in, width, store)
	}
	if !ra.reach {
		if pop, push, ok := stackEffect(in.Op); ok {
			ra.effect(pop, push)
		} else {
			ra.fail("no register form for opcode %s", in.Op)
		}
		return 0
	}
	st := &ra.cm.regallocStats
	switch in.Op {
	case wasm.OpLocalGet:
		ra.push(vent{slot: int32(in.Imm)})
	case wasm.OpLocalSet, wasm.OpLocalTee:
		e, l := ra.pop(), int32(in.Imm)
		if e.kind != vSlot || e.slot != l {
			ra.flushLocal(l)
			ra.moveTo(l, e)
			if e.kind == vMul || e.kind == vSum {
				e = vent{slot: l} // computed into the local just now
				st.ResultsForwarded++
			}
		}
		if in.Op == wasm.OpLocalTee {
			// The value is now in both places; keep naming the old one,
			// which nothing needs flushing for.
			ra.vs = append(ra.vs, e)
		}
	case wasm.OpDrop:
		// Pure height bookkeeping: nothing is emitted for it.
		ra.pop()
		st.DropsEliminated++
	case wasm.OpI32ReinterpretF32, wasm.OpF32ReinterpretI32,
		wasm.OpI64ReinterpretF64, wasm.OpF64ReinterpretI64:
		// Bit-identical in the raw representation: the entry stands.
		if len(ra.vs) == 0 {
			ra.fail("operand stack underflow")
		}
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		ra.push(vent{kind: vConst, c: in.Imm})
	case wasm.OpGlobalGet:
		d, skip := ra.dst()
		ra.emit(cinstr{op: iGlobalGet, h: d, a: int32(in.Imm)})
		return skip
	case wasm.OpGlobalSet:
		e := ra.pop()
		ra.emit(cinstr{op: iGlobalSet, a: int32(in.Imm), b: ra.use(e, len(ra.vs))})
	case wasm.OpSelect:
		c, y, x := ra.pop(), ra.pop(), ra.pop()
		k := len(ra.vs)
		a, b, cs := ra.use(x, k), ra.use(y, k+1), ra.use(c, k+2)
		d, skip := ra.dst()
		ra.emit(cinstr{op: iSelect, h: d, a: a, b: b, imm: uint64(cs)})
		return skip
	case wasm.OpMemorySize:
		d, skip := ra.dst()
		ra.emit(cinstr{op: iMemorySize, h: d})
		return skip
	case wasm.OpMemoryGrow:
		a := ra.use(ra.pop(), len(ra.vs))
		d, skip := ra.dst()
		ra.emit(cinstr{op: iMemoryGrow, h: d, a: a})
		return skip
	default:
		if sig, _, ok := wasm.NumericSig(in.Op); ok {
			return ra.numeric(uint16(in.Op), len(sig))
		}
		ra.fail("no register form for opcode %s", in.Op)
	}
	return 0
}

// stackEffect is how many operands an instruction with no control, memory
// or call semantics pops and pushes.
func stackEffect(op wasm.Opcode) (pop, push int, ok bool) {
	switch op {
	case wasm.OpLocalGet, wasm.OpGlobalGet, wasm.OpMemorySize,
		wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		return 0, 1, true
	case wasm.OpLocalSet, wasm.OpGlobalSet, wasm.OpDrop:
		return 1, 0, true
	case wasm.OpLocalTee, wasm.OpMemoryGrow:
		return 1, 1, true
	case wasm.OpSelect:
		return 3, 1, true
	}
	if sig, _, ok := wasm.NumericSig(op); ok {
		return len(sig), 1, true
	}
	return 0, 0, false
}

// stepDead tracks nesting through dead code, which ends at its frame's else
// or end.
func (ra *regalloc) stepDead(op wasm.Opcode) {
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		ra.deadDepth++
	case wasm.OpElse:
		if ra.deadDepth == 0 {
			ra.dead = false
			ra.elseArm()
		}
	case wasm.OpEnd:
		if ra.deadDepth > 0 {
			ra.deadDepth--
		} else {
			ra.dead = false
			ra.closeFrame()
		}
	}
}

// elseArm starts an if's else arm: a label, where the if's false edge lands.
func (ra *regalloc) elseArm() {
	f := &ra.frames[len(ra.frames)-1]
	if f.kind != wasm.OpIf {
		ra.fail("else without if")
		return
	}
	f.kind = wasm.OpElse
	if pc := ra.label(f.height); f.elseBr >= 0 {
		ra.await(pc, patch{tbl: -1, i: int32(f.elseBr)})
		f.elseBr = -1
	}
}

// closeFrame pops the innermost frame at its end, which is a label if a
// branch leads there; the function's end returns.
func (ra *regalloc) closeFrame() {
	n := len(ra.frames) - 1
	f := &ra.frames[n]
	arity, h := f.arity, f.height+f.arity
	if f.elseBr >= 0 { // an if without else: its false edge lands here
		f.patches = append(f.patches, patch{tbl: -1, i: int32(f.elseBr)})
	}
	if f.targeted || f.kind == wasm.OpIf {
		ra.await(ra.label(h), f.patches...)
	} else if !ra.reach {
		ra.reset(h)
	}
	ra.frames = ra.frames[:n]
	if n == 0 && ra.reach {
		ra.ret(arity)
	}
}

// br lowers an unconditional branch to f's label. The operands it keeps and
// the results it carries are materialised; what lies between dies with it.
func (ra *regalloc) br(f *lframe) {
	if !ra.reach {
		if f.kind != wasm.OpLoop {
			f.targeted = true
		}
		return
	}
	k, kept, arity := len(ra.vs), f.height, f.brArity()
	if kept+arity > k {
		ra.fail("br keeps %d and carries %d from height %d", kept, arity, k)
		return
	}
	ra.flush(0, kept)
	ra.flush(k-arity, k)
	src, dst := ra.canon(k-arity), ra.canon(kept)
	if src == dst {
		arity = 0
	}
	ra.emit(cinstr{op: iBr, b: src, h: dst, imm: uint64(arity)})
	ra.jump(len(ra.out)-1, f)
	ra.reach = false
}

// brTable lowers a br_table: one table entry per label, the default last.
// Where nothing reaches it the table is still recorded, its entries in the
// raw (height, arity) the lowered form rewrites.
func (ra *regalloc) brTable(in wasm.Instr) {
	var idx vent
	if ra.reach {
		idx = ra.pop()
		ra.flush(0, len(ra.vs))
	} else {
		ra.effect(1, 0)
	}
	k := len(ra.vs)
	labels := wasm.BrTargets(ra.f.BrLabels, in)
	tblIdx := int32(len(ra.cf.brTables))
	tbl := make([]brTarget, 0, len(labels)+1)
	for e := 0; e <= len(labels) && ra.err == nil; e++ {
		l := in.Imm
		if e < len(labels) {
			l = uint64(labels[e])
		}
		f := ra.frameAt(l)
		if f == nil {
			return
		}
		t := brTarget{height: int32(f.height), arity: int32(f.brArity())}
		if ra.reach {
			if t.height += ra.nl; t.height == ra.canon(k-int(t.arity)) {
				t.arity = 0
			}
		}
		if f.kind != wasm.OpLoop {
			f.targeted = true
			f.patches = append(f.patches, patch{tbl: tblIdx, i: int32(e)})
		} else if t.pc = f.label; f.label < 0 {
			ra.fail("br_table to a loop header with no label")
		}
		tbl = append(tbl, t)
	}
	ra.cf.brTables = append(ra.cf.brTables, tbl)
	if ra.reach {
		ra.emit(cinstr{op: iBrTable, a: tblIdx, b: ra.use(idx, k), h: ra.canon(k)})
	}
}

// ret lowers a return of arity results.
func (ra *regalloc) ret(arity int) {
	switch {
	case arity == 0:
		ra.emit(cinstr{op: iReturn})
	case arity == 1:
		e := ra.pop()
		ra.emit(cinstr{op: iReturn, a: ra.use(e, len(ra.vs)), imm: 1})
	case arity <= len(ra.vs):
		k := len(ra.vs)
		ra.flush(k-arity, k)
		ra.emit(cinstr{op: iReturn, a: ra.canon(k - arity), imm: uint64(arity)})
	default:
		ra.fail("return of %d from height %d", arity, len(ra.vs))
	}
	ra.reach = false
}

// memOp lowers a load or store, preceded by the check instruction the
// bounds strategy needs where the analysis did not prove the access safe.
func (ra *regalloc) memOp(in wasm.Instr, width uint32, store bool) (skip int) {
	check, depth := uint16(0), 1
	if store {
		depth = 2
	}
	if ra.cm.cfg.readsAccessFacts() {
		ra.cm.analysisStats.ChecksTotal++
		if ra.facts.SafeAccess(ra.fnIdx, ra.idx) {
			ra.cm.analysisStats.ChecksElided++
		} else if ra.cm.cfg.Bounds == BoundsSoftware {
			check = iBoundsCheck
		} else {
			check = iMPXCheck
		}
	}
	if !ra.reach {
		ra.effect(depth, 2-depth)
		return 0
	}
	if check != 0 {
		// The check pops nothing: it names the slot the access will read
		// the address from.
		k := len(ra.vs) - depth
		if k < 0 {
			ra.fail("operand stack underflow")
			return 0
		}
		if ra.vs[k].kind != vSlot {
			ra.mat(k)
		}
		ra.emit(cinstr{op: check, a: int32(width), b: ra.vs[k].slot, imm: in.Imm})
	}
	op := uint16(in.Op)
	if store {
		v, addr := ra.pop(), ra.pop()
		k := len(ra.vs)
		ra.emit(cinstr{op: op, a: ra.use(addr, k), b: ra.use(v, k+1), imm: in.Imm})
		return 0
	}
	addr := ra.pop()
	if addr.kind == vSum && in.Op == wasm.OpI32Load8U {
		d, skip := ra.dst()
		ra.emit(cinstr{op: iI32Load8UX, h: d, a: addr.slot, b: addr.slot2, imm: in.Imm})
		return skip
	}
	a := ra.use(addr, len(ra.vs))
	d, skip := ra.dst()
	ra.emit(cinstr{op: op, h: d, a: a, imm: in.Imm})
	return skip
}

// callOp lowers call and call_indirect. A call_indirect site the analysis
// proved monomorphic dispatches straight to its only possible target: the
// expected-index compare replaces the table/null/type check chain and needs
// no inline-cache slot. Every other site gets a monomorphic inline-cache
// slot, counted where nothing reaches it too.
func (ra *regalloc) callOp(in wasm.Instr) {
	var ci cinstr
	var ft wasm.FuncType
	npop, nImp := 0, ra.m.NumImportedFuncs()
	if in.Op == wasm.OpCall {
		t, err := ra.m.FuncTypeAt(uint32(in.Imm))
		if err != nil {
			ra.fail("%v", err)
			return
		}
		ft, npop = t, len(t.Params)
		ci = cinstr{op: iCall, a: int32(int(in.Imm) - nImp)}
		if int(in.Imm) < nImp {
			ci = cinstr{op: iCallHost, a: int32(in.Imm), b: int32(len(ft.Results))}
		}
	} else {
		if in.Imm >= uint64(len(ra.m.Types)) {
			ra.fail("type %d out of range", in.Imm)
			return
		}
		ft = ra.m.Types[in.Imm]
		npop = 1 + len(ft.Params)
		canon := ra.cm.canonTypes[in.Imm]
		if d, ok := ra.facts.DevirtAt(ra.fnIdx, ra.idx); ok {
			// imm: result arity, param count, canonical type id.
			ci = cinstr{
				op: iCallDevirt, a: int32(d.FuncIdx) - int32(nImp), b: int32(d.TableIdx),
				imm: uint64(len(ft.Results)) | uint64(len(ft.Params))<<16 | uint64(uint32(canon))<<32,
			}
		} else {
			ci = cinstr{
				op: iCallIndirect, a: canon, b: int32(len(ft.Params)),
				imm: uint64(len(ft.Results)) | uint64(ra.cm.numICSites)<<16,
			}
			ra.cm.numICSites++
		}
	}
	if !ra.reach {
		ra.effect(npop, len(ft.Results))
		return
	}
	for n := ra.cm.cfg.CallOverheadNops; n > 0; n-- {
		ra.emit(cinstr{op: iNop})
	}
	ra.call(ci, npop, len(ft.Results))
}

// foldCharge tries to pay a charge of c through the instruction emitted just
// before it, which must be the only way to reach it (no label since).
// An emitted charge takes c if the sum stays within MaxUncharged. A
// conditional branch takes it as what its fall-through edge pays: the first
// charge when its frame top is the fall-through's (paidTop relies on it),
// a further one on the same terms as two emitted charges would be summed, so
// a threaded run yields exactly where an unthreaded one does.
func (ra *regalloc) foldCharge(c uint64) bool {
	last := len(ra.out) - 1
	if last < ra.barrier {
		return false
	}
	prev, st := &ra.out[last], &ra.cm.regallocStats
	// paid is what prev already pays at this point, kept at shift in imm.
	paid, shift := prev.imm, 0
	if prev.op != iGasCharge {
		pops := branchPops(prev.op)
		if !ra.thread || pops == 0 {
			return false
		}
		paid, shift = prev.imm>>fallShift, fallShift
		if paid == 0 {
			if ra.tops[last]-int32(pops) != ra.top {
				return false
			}
			prev.imm |= c << fallShift
			st.ChargesAbsorbed++
			return true
		}
	}
	if paid+c > uint64(ra.cm.cfg.MaxUncharged) {
		return false
	}
	prev.imm += c << shift
	st.ChargesMerged++
	return true
}

// call lowers a call popping npop operands (arguments, then the table index
// of the indirect forms) and pushing npush results. The callee's frame
// starts at the first argument's canonical slot and its results land there.
func (ra *regalloc) call(ci cinstr, npop, npush int) {
	k := len(ra.vs)
	if npop > k {
		ra.fail("call pops %d from height %d", npop, k)
		return
	}
	ra.flush(k-npop, k)
	ra.vs = ra.vs[:k-npop]
	ra.clobber(k - npop)
	ci.h = ra.canon(k)
	ra.emit(ci)
	for j := 0; j < npush; j++ {
		ra.push(vent{slot: ra.canon(len(ra.vs))})
	}
}

// condBranch looks past the comparison at hand for the conditional branch it
// feeds; each i32.eqz on the way flips the sense. j is the branch's body
// index, not whether it is taken when the comparison does not hold.
func (ra *regalloc) condBranch() (j int, not, ok bool) {
	for j = ra.idx + 1; ; j++ {
		if j, ok = ra.next(j); !ok {
			return 0, false, false
		}
		switch ra.f.Body[j].Op {
		case wasm.OpI32Eqz:
			not = !not
		case wasm.OpBrIf:
			return j, not, true
		case wasm.OpIf:
			return j, !not, true
		default:
			return 0, false, false
		}
	}
}

// condDest resolves the conditional branch at body[j]: a br_if leaves for
// frame f, keeping kept operands and carrying arity results; an if's false
// edge (f nil) keeps the operands below its condition and carries none.
func (ra *regalloc) condDest(j int) (f *lframe, kept, arity int, ok bool) {
	in := ra.f.Body[j]
	if in.Op == wasm.OpIf {
		return nil, len(ra.vs), 0, true
	}
	if f = ra.frameAt(in.Imm); f == nil {
		return nil, 0, 0, false
	}
	return f, f.height, f.brArity(), true
}

// link finishes the conditional branch just emitted for body[j]: a br_if
// jumps to its frame's label, an if opens its frame with the branch as its
// false edge.
func (ra *regalloc) link(j int, f *lframe) {
	if in := ra.f.Body[j]; in.Op == wasm.OpIf {
		ra.open(wasm.OpIf, blockArity(byte(in.Imm))).elseBr = len(ra.out) - 1
		return
	}
	ra.jump(len(ra.out)-1, f)
}

// branchOn lowers the conditional branch at body[j] on the popped condition
// c: taken when c != 0, or when c == 0 if not is set. Both outcomes are
// control-flow edges, so everything below the condition is materialised
// first.
func (ra *regalloc) branchOn(j int, c vent, not bool) {
	f, kept, arity, ok := ra.condDest(j)
	k := len(ra.vs)
	if !ok {
		return
	}
	if kept+arity > k {
		ra.fail("branch keeps %d and carries %d from height %d", kept, arity, k)
		return
	}
	ra.flush(0, k)
	dst := ra.canon(kept)
	if ra.canon(k-arity) == dst {
		arity = 0
	}
	// A branch that moves results finds them directly below the condition,
	// which is therefore read from its canonical slot.
	cond := ra.canon(k)
	if arity == 0 {
		cond = ra.use(c, k)
	} else if c.kind != vSlot || c.slot != cond {
		ra.moveTo(cond, c)
	}
	op := iBrIf
	if not {
		op = iBrIfNot
	}
	ra.emit(cinstr{op: op, b: cond, h: dst, imm: uint64(arity)})
	ra.link(j, f)
}

// numeric lowers the numeric instruction at hand (nargs operands, one
// result) and returns how many following instructions it consumed.
func (ra *regalloc) numeric(op uint16, nargs int) (skip int) {
	st := &ra.cm.regallocStats
	if nargs == 1 {
		x := ra.pop()
		if op == uint16(wasm.OpI32Eqz) {
			if j, not, ok := ra.condBranch(); ok {
				// eqz holds when x == 0: taken on x != 0 iff the chain
				// inverts it.
				ra.branchOn(j, x, !not)
				st.BranchFused++
				return j - ra.idx
			}
		}
		a := ra.use(x, len(ra.vs))
		d, skip := ra.dst()
		ra.emit(cinstr{op: op, h: d, a: a})
		return skip
	}
	y, x := ra.pop(), ra.pop()
	k := len(ra.vs)
	kx, ky := k, k+1 // the depths x and y were popped from, should they swap
	if cmp := op - uint16(wasm.OpI32Eq); cmp < 10 {
		if j, not, ok := ra.condBranch(); ok {
			f, kept, arity, ok := ra.condDest(j)
			if !ok {
				return 0
			}
			// The fused forms carry no move: leave a branch that has
			// results to move on the generic path.
			if arity == 0 || k-arity == kept {
				if not {
					cmp = cmpNot[cmp]
				}
				ra.flush(0, k)
				if x.kind == vConst && y.kind != vConst {
					x, y, kx, ky, cmp = y, x, ky, kx, cmpSwap[cmp]
				}
				if y.kind == vConst {
					ra.emit(cinstr{op: iBrIfEqI + cmp, b: ra.use(x, kx), imm: uint64(uint32(y.c))})
					st.OperandsForwarded++
				} else {
					ra.emit(cinstr{op: iBrIfEq + cmp, b: ra.use(x, kx), h: ra.use(y, ky)})
				}
				ra.link(j, f)
				st.BranchFused++
				return j - ra.idx
			}
		}
	}
	if ra.fuse {
		switch wasm.Opcode(op) {
		case wasm.OpI32Add, wasm.OpI32Mul:
			return ra.addMul(wasm.Opcode(op) == wasm.OpI32Mul, x, y, kx, ky)
		case wasm.OpI32Sub:
			if y.kind == vConst {
				y.c = uint64(-uint32(y.c))
				return ra.addMul(false, x, y, kx, ky)
			}
		}
	}
	a, b := ra.use(x, kx), ra.use(y, ky)
	d, skip := ra.dst()
	ra.emit(cinstr{op: op, h: d, a: a, b: b})
	return skip
}

// addMul lowers an i32.add or i32.mul of x and y (popped from depths kx and
// ky) under fusion: a constant operand rides as an immediate, and a result a
// following add or byte load can absorb is left pending (see vent).
func (ra *regalloc) addMul(mul bool, x, y vent, kx, ky int) (skip int) {
	st := &ra.cm.regallocStats
	if x.kind == vConst && y.kind == vConst {
		c := uint32(x.c) + uint32(y.c)
		if mul {
			c = uint32(x.c) * uint32(y.c)
		}
		ra.push(vent{kind: vConst, c: uint64(c)})
		return 0
	}
	// Both operations commute: put the operand the fused form wants on
	// the left — a constant goes right, a pending product or sum left.
	if x.kind == vConst || (y.kind > x.kind && y.kind != vConst) {
		x, y, kx, ky = y, x, ky, kx
	}
	switch {
	case y.kind == vConst && mul:
		st.OperandsForwarded++
		ra.push(vent{kind: vMul, slot: ra.use(x, kx), c: y.c})
	case y.kind == vConst:
		st.OperandsForwarded++
		a := ra.use(x, kx)
		d, skip := ra.dst()
		ra.emit(cinstr{op: iI32AddI, h: d, a: a, imm: y.c})
		return skip
	case mul:
		a, b := ra.use(x, kx), ra.use(y, ky)
		d, skip := ra.dst()
		ra.emit(cinstr{op: uint16(wasm.OpI32Mul), h: d, a: a, b: b})
		return skip
	case x.kind == vMul:
		b := ra.use(y, ky)
		d, skip := ra.dst()
		ra.emit(cinstr{op: iI32MulAddI, h: d, a: x.slot, b: b, imm: x.c})
		return skip
	case x.kind == vSum:
		c := ra.use(y, ky)
		d, skip := ra.dst()
		ra.emit(cinstr{op: iI32Add3, h: d, a: x.slot, b: x.slot2, imm: uint64(c)})
		return skip
	default:
		ra.push(vent{kind: vSum, slot: ra.use(x, kx), slot2: ra.use(y, ky)})
	}
	return 0
}
