package engine

import (
	"fmt"

	"sledge/internal/wasm"
)

// Register allocation for the optimized tier: the one pass that turns the
// lowerer's stack-form stream into the slot-operand form runRegister
// executes (module.go documents the instruction layout).
//
// After validation the operand-stack height at every program point is a
// static constant, so a frame's operand stack is a fixed set of registers in
// its slab: depth k lives in slot nLocals+k, its canonical slot, and the
// locals below are registers too. The pass walks a function once with a
// compile-time virtual operand stack whose entries say where each value
// currently is: in its canonical slot, still in local l (a pending
// local.get), or not in the frame at all (a pending constant). local.get and
// const emit nothing; they push a pending entry. A consumer names its
// sources directly — a local and an operand register are both just R[s] —
// or takes the constant as an immediate where a form for that exists, and a
// producer followed by local.set/tee writes that local as its destination.
// Whatever has no slot form for a pending operand first materialises it into
// its canonical slot with iMov/iConst, which is what the stack form would
// have cost, so correctness never depends on coverage. (Two more kinds of
// entry, an unemitted multiply-by-constant and an unemitted add, feed the
// three superinstructions; see vent.)
//
// The hazards are all visible here:
//
//   - a pending read of local l is materialised before anything writes l;
//   - at every control-flow edge — a branch instruction, and falling into a
//     branch target — everything live across it is materialised, so every
//     path reaches a label with the same, canonical, stack; the results a
//     branch carries are canonical and the handler moves them (or, when they
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
// Gas charges (module.go, iGasCharge) are thinned in the same walk, by three
// rules that leave every path paying the same costs at the same points:
//
//   - two adjacent charges that no branch can land between are summed (in
//     every configuration: a charge is not a source instruction);
//   - a charge that directly follows a conditional branch, and that no
//     branch targets, is reached only by falling out of that branch: its
//     cost goes into the branch word and it is not emitted;
//   - when targets are healed, a branch whose destination is a charge takes
//     the cost into its word and lands one past it. The charge stays, for
//     whatever falls into it (a loop entered from above, a then-arm running
//     into the merge) and for br_table, which has no room.
//
// The last two are jump threading and need fuse. A branch has neither a
// trap nor a side effect between its test and the charge, so gas at every
// trap is what it was; the handler pays after any result move and yields
// with the pc and frame top dispatching the charge would have left (see
// paidTop), so a resume never pays twice and nothing records "paid".
//
// The pass is total by contract. Its input exists only between lowerFunc and
// here; its output is the only form runRegister executes, so an
// inconsistency is a Compile error.

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

// regalloc is the pass state. One value serves every function of a module
// so the scratch slices are allocated once per Compile.
type regalloc struct {
	cm   *CompiledModule
	fuse bool
	// thread: branches pay the charges they lead to (fuse, and every cost
	// fits the branch word; set by Compile).
	thread bool

	cf   *compiledFunc
	code []cinstr // the function's stack-form stream
	nl   int32    // nLocals: canonical slot of depth k is nl+k
	// tgt marks the branch targets, -1 elsewhere. Until the walk reaches a
	// target it holds the operand height control arrives with; once passed,
	// the target's output pc, which is what healing needs.
	tgt []int32
	// out is the rewritten code. It is written over the stream itself: an
	// instruction emits at most one instruction of its own, and anything
	// materialised stands for an earlier instruction that emitted nothing,
	// so the write position never passes pos, the instruction being read.
	out  []cinstr
	pos  int
	tops []int32 // parallel to out when the frame overflows cinstr.top
	big  bool
	vs   []vent
	// top is the frame top at the source instruction being rewritten,
	// stamped on everything emitted for it.
	top int32
	// barrier is the output pc of the latest branch target: a charge emitted
	// before it must not absorb one emitted after.
	barrier int
	err     error
}

// branchTarget returns the field holding ci's target pc, or nil when ci
// carries none. It is the one definition of "this instruction jumps to a
// pc": target collection and healing both go through it (iBrTable's targets
// live in the function's brTables).
func branchTarget(ci *cinstr) *int32 {
	if op := ci.op; (op >= iBr && op <= iBrIfNot) || (op >= iBrIfEq && op <= iBrIfGeUI) {
		return &ci.a
	}
	return nil
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
	if len(ra.out) > ra.pos {
		ra.fail("rewritten code overtook the stream at pc %d", ra.pos)
		return
	}
	ci.top = uint16(ra.top)
	ra.out = append(ra.out, ci)
	if ra.big {
		ra.tops = append(ra.tops, ra.top)
	}
}

func (ra *regalloc) canon(k int) int32 { return ra.nl + int32(k) }

// topOf returns the frame top stamped on out[j].
func (ra *regalloc) topOf(j int) int32 {
	if ra.big {
		return ra.tops[j]
	}
	return int32(ra.out[j].top)
}

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
	if len(ra.vs) > ra.cf.maxStack {
		ra.fail("height %d exceeds maxStack %d", len(ra.vs), ra.cf.maxStack)
	}
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

// dst picks where the instruction at i puts its result, its operands
// already popped: the local a directly following local.set/tee names (not a
// branch target), else the canonical slot. skip is the number of following
// instructions the choice consumed.
func (ra *regalloc) dst(i int) (slot int32, skip int) {
	if ra.fuse && i+1 < len(ra.code) && ra.tgt[i+1] < 0 {
		nx := &ra.code[i+1]
		if op := wasm.Opcode(nx.op); op == wasm.OpLocalSet || op == wasm.OpLocalTee {
			ra.flushLocal(nx.a)
			if op == wasm.OpLocalTee {
				ra.push(vent{slot: nx.a})
			}
			ra.cm.regallocStats.ResultsForwarded++
			return nx.a, 1
		}
	}
	c := ra.canon(len(ra.vs))
	ra.push(vent{slot: c})
	return c, 0
}

// targets fills ra.tgt: for every branch-target pc, the static operand
// height control arrives with (kept height plus moved results).
func (ra *regalloc) targets() error {
	n := len(ra.code)
	set := func(pc, h int32) error {
		if pc < 0 || int(pc) >= n {
			return fmt.Errorf("branch target %d out of range", pc)
		}
		if ra.tgt[pc] >= 0 && ra.tgt[pc] != h {
			return fmt.Errorf("branch target %d with conflicting heights %d and %d", pc, ra.tgt[pc], h)
		}
		ra.tgt[pc] = h
		return nil
	}
	for i := range ra.code {
		ci := &ra.code[i]
		if p := branchTarget(ci); p != nil {
			if err := set(*p, ci.b+int32(ci.imm)); err != nil {
				return err
			}
		} else if ci.op == iBrTable {
			for _, e := range ra.cf.brTables[ci.a] {
				if err := set(e.pc, e.height+e.arity); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// run rewrites cf.code to slot-operand form. Accumulates into
// cm.regallocStats.
func (ra *regalloc) run(cf *compiledFunc) error {
	n := len(cf.code)
	if n == 0 {
		return nil
	}
	ra.cf, ra.code, ra.nl = cf, cf.code, int32(cf.nLocals)
	ra.big = cf.nLocals+cf.maxStack > 0xFFFF
	if cap(ra.tgt) < n {
		// cf.code is the lowerer's scratch, sized for the module's largest
		// body: one allocation serves every function.
		ra.tgt = make([]int32, max(n, cap(cf.code)))
	}
	ra.tgt = ra.tgt[:n]
	for i := range ra.tgt {
		ra.tgt[i] = -1
	}
	ra.out, ra.tops, ra.vs = ra.code[:0], ra.tops[:0], ra.vs[:0]
	ra.barrier, ra.err = 0, nil
	if err := ra.targets(); err != nil {
		return err
	}

	// Lowered code is straight-line except at recorded targets, so one
	// forward walk suffices. After a terminal instruction nothing is
	// reachable until the next branch target; what lies between never
	// executes and is dropped.
	reachable := true
	for i := 0; i < n; i++ {
		ra.pos = i
		if h := ra.tgt[i]; h >= 0 {
			if reachable {
				ra.top = ra.canon(len(ra.vs))
				ra.flush(0, len(ra.vs))
				if int32(len(ra.vs)) != h {
					return fmt.Errorf("pc %d: fall-through height %d != target height %d", i, len(ra.vs), h)
				}
			} else {
				ra.vs = ra.vs[:0]
				for k := 0; k < int(h); k++ {
					ra.vs = append(ra.vs, vent{slot: ra.canon(k)})
				}
				reachable = true
			}
			ra.barrier = len(ra.out)
			ra.tgt[i] = int32(len(ra.out))
		}
		if !reachable {
			continue
		}
		ra.top = ra.canon(len(ra.vs))
		skip, terminal := ra.step(i)
		if ra.err != nil {
			return fmt.Errorf("pc %d: %w", i, ra.err)
		}
		i += skip
		reachable = !terminal
	}
	if reachable {
		return fmt.Errorf("control falls off the end of the function")
	}

	// Heal branch targets through tgt, verifying on the way that each was
	// recorded as a target (so the entry is a real label, reached with the
	// canonical stack the walk checked there) and stays in range.
	heal := func(p *int32) error {
		old := *p
		if old < 0 || int(old) >= n || ra.tgt[old] < 0 {
			return fmt.Errorf("branch to pc %d, which is not a recorded target", old)
		}
		if *p = ra.tgt[old]; int(*p) >= len(ra.out) {
			return fmt.Errorf("branch target %d lands past the end of the function", old)
		}
		return nil
	}
	for j := range ra.out {
		ci := &ra.out[j]
		p := branchTarget(ci)
		if p == nil {
			continue
		}
		if err := heal(p); err != nil {
			return err
		}
		// Thread the jump: the branch pays the charge it leads to and lands
		// one past it. The charge's amount is final by now (later charges
		// may have been summed into it), and it is never the last
		// instruction: control cannot fall off the end.
		if t := &ra.out[*p]; ra.thread && t.op == iGasCharge {
			ci.imm |= t.imm << takenShift
			*p++
			ra.cm.regallocStats.ChargesAbsorbed++
		}
	}
	for _, tbl := range cf.brTables {
		for ei := range tbl {
			if err := heal(&tbl[ei].pc); err != nil {
				return err
			}
		}
	}
	cf.code = append(make([]cinstr, 0, len(ra.out)), ra.out...)
	if ra.big {
		cf.tops = append(make([]int32, 0, len(ra.tops)), ra.tops...)
	}
	return nil
}

// step rewrites the instruction at i. skip is how many following
// instructions it consumed; terminal reports that straight-line flow ends.
func (ra *regalloc) step(i int) (skip int, terminal bool) {
	ci := &ra.code[i]
	st := &ra.cm.regallocStats
	if ci.op < 0x100 {
		op := wasm.Opcode(ci.op)
		switch op {
		case wasm.OpLocalGet:
			ra.push(vent{slot: ci.a})
			return 0, false
		case wasm.OpLocalSet, wasm.OpLocalTee:
			e := ra.pop()
			if e.kind != vSlot || e.slot != ci.a {
				ra.flushLocal(ci.a)
				ra.moveTo(ci.a, e)
				if e.kind == vMul || e.kind == vSum {
					e = vent{slot: ci.a} // computed into the local just now
					st.ResultsForwarded++
				}
			}
			if op == wasm.OpLocalTee {
				// The value is now in both places; keep naming the old
				// one, which nothing needs flushing for.
				ra.vs = append(ra.vs, e)
			}
			return 0, false
		case wasm.OpDrop:
			// Pure height bookkeeping: the heights downstream already
			// account for it.
			ra.pop()
			st.DropsEliminated++
			return 0, false
		case wasm.OpI32ReinterpretF32, wasm.OpF32ReinterpretI32,
			wasm.OpI64ReinterpretF64, wasm.OpF64ReinterpretI64:
			// Bit-identical in the raw representation: the entry stands.
			return 0, false
		}
		if _, _, store, ok := wasm.MemOpShape(op); ok {
			if store {
				v, addr := ra.pop(), ra.pop()
				k := len(ra.vs)
				ra.emit(cinstr{op: ci.op, a: ra.use(addr, k), b: ra.use(v, k+1), imm: ci.imm})
				return 0, false
			}
			addr := ra.pop()
			if addr.kind == vSum && op == wasm.OpI32Load8U {
				d, skip := ra.dst(i)
				ra.emit(cinstr{op: iI32Load8UX, h: d, a: addr.slot, b: addr.slot2, imm: ci.imm})
				return skip, false
			}
			a := ra.use(addr, len(ra.vs))
			d, skip := ra.dst(i)
			ra.emit(cinstr{op: ci.op, h: d, a: a, imm: ci.imm})
			return skip, false
		}
		if sig, _, ok := wasm.NumericSig(op); ok {
			return ra.numeric(i, len(sig)), false
		}
		ra.fail("no register form for opcode %#x", ci.op)
		return 0, false
	}

	switch ci.op {
	case iNop:
		ra.emit(*ci)
	case iUnreachable:
		ra.emit(*ci)
		return 0, true
	case iGasCharge:
		if ra.foldCharge(ci.imm) {
			return 0, false
		}
		ra.emit(*ci)
	case iConst:
		ra.push(vent{kind: vConst, c: ci.imm})

	case iBr:
		k, kept, arity := len(ra.vs), int(ci.b), int(ci.imm)
		if kept+arity > k {
			ra.fail("br keeps %d and carries %d from height %d", kept, arity, k)
			return 0, true
		}
		// What lies between the kept slots and the carried results dies
		// with the branch.
		ra.flush(0, kept)
		ra.flush(k-arity, k)
		src, dst := ra.canon(k-arity), ra.canon(kept)
		if src == dst {
			arity = 0
		}
		ra.emit(cinstr{op: iBr, a: ci.a, b: src, h: dst, imm: uint64(arity)})
		return 0, true
	case iBrIf:
		ra.branchOn(i, ra.pop(), false)
	case iBrIfNot:
		ra.branchOn(i, ra.pop(), true)
	case iBrTable:
		idx := ra.pop()
		k := len(ra.vs)
		ra.flush(0, k)
		tbl := ra.cf.brTables[ci.a]
		for ei := range tbl {
			e := &tbl[ei]
			src := ra.canon(k - int(e.arity))
			if e.height = ra.nl + e.height; e.height == src {
				e.arity = 0
			}
		}
		ra.emit(cinstr{op: iBrTable, a: ci.a, b: ra.use(idx, k), h: ra.canon(k)})
		return 0, true
	case iReturn:
		switch arity := int(ci.imm); {
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
		return 0, true

	case iCall:
		f := &ra.cm.funcs[ci.a]
		ra.call(ci, f.nParams, f.numResults)
	case iCallHost:
		ra.call(ci, len(ra.cm.hostFuncs[ci.a].ft.Params), int(ci.b))
	case iCallIndirect:
		ra.call(ci, 1+int(ci.b), int(ci.imm&0xFFFF))
	case iCallDevirt:
		ra.call(ci, 1+int((ci.imm>>16)&0xFFFF), int(ci.imm&0xFFFF))

	case iGlobalGet:
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: iGlobalGet, h: d, a: ci.a})
		return skip, false
	case iGlobalSet:
		e := ra.pop()
		ra.emit(cinstr{op: iGlobalSet, a: ci.a, b: ra.use(e, len(ra.vs))})
	case iSelect:
		c, y, x := ra.pop(), ra.pop(), ra.pop()
		k := len(ra.vs)
		a, b, cs := ra.use(x, k), ra.use(y, k+1), ra.use(c, k+2)
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: iSelect, h: d, a: a, b: b, imm: uint64(cs)})
		return skip, false
	case iMemorySize:
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: iMemorySize, h: d})
		return skip, false
	case iMemoryGrow:
		a := ra.use(ra.pop(), len(ra.vs))
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: iMemoryGrow, h: d, a: a})
		return skip, false
	case iBoundsCheck, iMPXCheck:
		// The check precedes its access and pops nothing: it names the
		// slot the access will read the address from.
		k := len(ra.vs) - int(ci.b)
		if k < 0 {
			ra.fail("bounds check of depth %d at height %d", ci.b, len(ra.vs))
			return 0, false
		}
		if ra.vs[k].kind != vSlot {
			ra.mat(k)
		}
		ra.emit(cinstr{op: ci.op, a: ci.a, b: ra.vs[k].slot, imm: ci.imm})
	default:
		ra.fail("no register form for opcode %#x", ci.op)
	}
	return 0, false
}

// foldCharge tries to pay a charge of c through the instruction emitted just
// before it, which must be the only way to reach it (no branch target since).
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
			if ra.topOf(last)-int32(pops) != ra.top {
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

// call rewrites a call popping npop operands (arguments, then the table
// index of the indirect forms) and pushing npush results. The callee's frame
// starts at the first argument's canonical slot and its results land there.
func (ra *regalloc) call(ci *cinstr, npop, npush int) {
	k := len(ra.vs)
	if npop > k {
		ra.fail("call pops %d from height %d", npop, k)
		return
	}
	ra.flush(k-npop, k)
	ra.vs = ra.vs[:k-npop]
	ra.clobber(k - npop)
	out := *ci
	out.h = ra.canon(k)
	ra.emit(out)
	for j := 0; j < npush; j++ {
		ra.push(vent{slot: ra.canon(len(ra.vs))})
	}
}

// condBranch looks past the comparison at i for the conditional branch it
// feeds; each i32.eqz on the way flips the sense. j is the branch's index,
// not whether it is taken when the comparison does not hold.
func (ra *regalloc) condBranch(i int) (j int, not, ok bool) {
	if !ra.fuse {
		return 0, false, false
	}
	for j = i + 1; j < len(ra.code) && ra.tgt[j] < 0; j++ {
		switch ra.code[j].op {
		case uint16(wasm.OpI32Eqz):
			not = !not
		case iBrIf:
			return j, not, true
		case iBrIfNot:
			return j, !not, true
		default:
			return 0, false, false
		}
	}
	return 0, false, false
}

// branchOn emits the conditional branch code[j] on the popped condition c:
// taken when c != 0, or when c == 0 if not is set. Both outcomes are
// control-flow edges, so everything below the condition is materialised
// first.
func (ra *regalloc) branchOn(j int, c vent, not bool) {
	br := &ra.code[j]
	k := len(ra.vs)
	ra.flush(0, k)
	arity, dst := int(br.imm), ra.nl+br.b
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
	ra.emit(cinstr{op: op, a: br.a, b: cond, h: dst, imm: uint64(arity)})
}

// numeric rewrites the numeric instruction at i (nargs operands, one
// result) and returns how many following instructions it consumed.
func (ra *regalloc) numeric(i, nargs int) (skip int) {
	op := ra.code[i].op
	st := &ra.cm.regallocStats
	if nargs == 1 {
		x := ra.pop()
		if op == uint16(wasm.OpI32Eqz) {
			if j, not, ok := ra.condBranch(i); ok {
				// eqz holds when x == 0: taken on x != 0 iff the chain
				// inverts it.
				ra.branchOn(j, x, !not)
				st.BranchFused++
				return j - i
			}
		}
		a := ra.use(x, len(ra.vs))
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: op, h: d, a: a})
		return skip
	}
	y, x := ra.pop(), ra.pop()
	k := len(ra.vs)
	kx, ky := k, k+1 // the depths x and y were popped from, should they swap
	if cmp := op - uint16(wasm.OpI32Eq); cmp < 10 {
		if j, not, ok := ra.condBranch(i); ok {
			// The fused forms carry no move: leave a branch that has
			// results to move on the generic path.
			br := &ra.code[j]
			if br.imm == 0 || k-int(br.imm) == int(br.b) {
				if not {
					cmp = cmpNot[cmp]
				}
				ra.flush(0, k)
				if x.kind == vConst && y.kind != vConst {
					x, y, kx, ky, cmp = y, x, ky, kx, cmpSwap[cmp]
				}
				if y.kind == vConst {
					ra.emit(cinstr{op: iBrIfEqI + cmp, a: br.a, b: ra.use(x, kx), imm: uint64(uint32(y.c))})
					st.OperandsForwarded++
				} else {
					ra.emit(cinstr{op: iBrIfEq + cmp, a: br.a, b: ra.use(x, kx), h: ra.use(y, ky)})
				}
				st.BranchFused++
				return j - i
			}
		}
	}
	if ra.fuse {
		switch wasm.Opcode(op) {
		case wasm.OpI32Add, wasm.OpI32Mul:
			return ra.addMul(i, wasm.Opcode(op) == wasm.OpI32Mul, x, y, kx, ky)
		case wasm.OpI32Sub:
			if y.kind == vConst {
				y.c = uint64(-uint32(y.c))
				return ra.addMul(i, false, x, y, kx, ky)
			}
		}
	}
	a, b := ra.use(x, kx), ra.use(y, ky)
	d, skip := ra.dst(i)
	ra.emit(cinstr{op: op, h: d, a: a, b: b})
	return skip
}

// addMul rewrites an i32.add or i32.mul of x and y (popped from depths kx
// and ky) under fusion: a constant operand rides as an immediate, and a
// result a following add or byte load can absorb is left pending (see vent).
func (ra *regalloc) addMul(i int, mul bool, x, y vent, kx, ky int) (skip int) {
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
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: iI32AddI, h: d, a: a, imm: y.c})
		return skip
	case mul:
		a, b := ra.use(x, kx), ra.use(y, ky)
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: uint16(wasm.OpI32Mul), h: d, a: a, b: b})
		return skip
	case x.kind == vMul:
		b := ra.use(y, ky)
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: iI32MulAddI, h: d, a: x.slot, b: b, imm: x.c})
		return skip
	case x.kind == vSum:
		c := ra.use(y, ky)
		d, skip := ra.dst(i)
		ra.emit(cinstr{op: iI32Add3, h: d, a: x.slot, b: x.slot2, imm: uint64(c)})
		return skip
	default:
		ra.push(vent{kind: vSum, slot: ra.use(x, kx), slot2: ra.use(y, ky)})
	}
	return 0
}
