package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"runtime"

	"sledge/internal/wasm"
)

// runRegister is the hot loop of the optimized tier: a flat, pre-resolved
// instruction stream in slot-operand register form (see regalloc.go and the
// opcode table in module.go). Every instruction names its sources and its
// destination as slots of the running frame, r[s] = stack[frame.base+s] —
// locals and operand registers alike — so the loop carries no operand stack
// pointer and most local.get/local.set/const of the source never dispatch.
//
// The loop is resumable at every instruction boundary, which is what
// enables the scheduler's user-level preemption: all live state is in the
// slab save() snapshots plus the pc, and whenever control leaves the loop
// (yield, host block, done, trap) Instance.sp is set from the static frame
// top the lowering recorded, for ResumeHost and Result().
//
//sledge:noalloc
func (in *Instance) runRegister(fuel int64) (st Status, err error) {
	frames := in.frames
	fr := &frames[len(frames)-1]
	stack := in.stack
	pc := int(fr.pc)
	code := fr.fn.code
	// base is the running frame's first slot: slot s is stack[base+s].
	base := int(fr.base)
	mem := in.mem
	memLen := uint64(len(mem))
	explicit := in.mod.explicitChecks
	globals := in.globals
	maxDepth := in.mod.cfg.MaxCallDepth
	// certified is set when this run entered through a stack-certified
	// entry point: the worst-case frame count and operand-stack size were
	// proven at compile time and reserved up front, so the per-call growth
	// and depth probes below are skipped.
	certified := in.certified

	// dirty is the store high-water mark feeding the recycling reset; kept
	// in a register-friendly local and folded back in save().
	dirty := in.memDirty

	steps := fuel
	if fuel <= 0 {
		steps = int64(1) << 62
	}
	// perInstr selects the ablation/oracle metering mode: a fuel check on
	// every dispatch. In the default block-metered mode fuel is consumed
	// only where a charge is paid — at an iGasCharge, or on the branch edge
	// that absorbed one — so the loop top carries no check at all: every
	// CFG cycle pays a loop-header charge and MaxUncharged bounds
	// straight-line runs, which together bound the work between checks.
	perInstr := in.mod.cfg.NoBlockMeter
	// gasRun accumulates charge-point gas for this run slice; folded into
	// in.Gas by save() so it is identical in both metering modes.
	var gasRun uint64
	// edge is the charge being paid, by an iGasCharge or by a branch.
	var edge uint64

	save := func(sp int) {
		in.frames = frames
		in.stack = stack
		in.sp = sp
		if dirty > in.memDirty {
			in.memDirty = dirty
		}
		in.Gas += gasRun
		gasRun = 0
	}

	// The guard strategy relies on the backing array's implicit bound:
	// an out-of-range access faults here and is converted to a trap,
	// exactly as the paper's virtual-memory scheme converts a page fault.
	defer func() {
		if rec := recover(); rec != nil {
			rte, ok := rec.(runtime.Error)
			if !ok {
				panic(rec)
			}
			fr.pc = int32(pc)
			save(int(fr.base) + fr.fn.topAt(max(pc-1, 0)))
			in.trap = &Trap{Code: TrapMemOutOfBounds, Detail: rte.Error()} //sledge:coldpath
			in.status = StatusTrapped
			st, err = StatusTrapped, in.trap
		}
	}()

	// fail traps at the instruction just dispatched (pc is already past
	// it); base is passed in so the hot loop's copy is not captured.
	fail := func(c TrapCode, base int) (Status, error) {
		fr.pc = int32(pc)
		save(base + fr.fn.topAt(pc-1))
		in.trap = newTrap(c)
		in.status = StatusTrapped
		return StatusTrapped, in.trap
	}

	for {
		if perInstr {
			if steps <= 0 {
				fr.pc = int32(pc)
				save(base + fr.fn.topAt(pc))
				in.status = StatusYielded
				return StatusYielded, nil
			}
			steps--
		}
		ci := &code[pc]
		pc++

		switch ci.op {
		case iNop:
		case iGasCharge:
			edge = ci.imm
			goto charge
		case iUnreachable:
			return fail(TrapUnreachable, base)

		// A taken branch moves its results only when the lowering left an
		// arity in the instruction: zero means they are already in place
		// (or there are none), and nothing is touched. Then the edge pays
		// what the branch word says it owes (see the end of the loop).
		case iBr:
			if n := int32(ci.imm); n != 0 {
				r := stack[base:]
				copy(r[ci.h:ci.h+n], r[ci.b:ci.b+n])
			}
			pc = int(ci.a)
			goto taken
		case iBrIf:
			if stack[base+int(ci.b)] != 0 {
				if n := int32(ci.imm); n != 0 {
					r := stack[base:]
					copy(r[ci.h:ci.h+n], r[ci.b-n:ci.b])
				}
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfNot:
			if stack[base+int(ci.b)] == 0 {
				if n := int32(ci.imm); n != 0 {
					r := stack[base:]
					copy(r[ci.h:ci.h+n], r[ci.b-n:ci.b])
				}
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrTable:
			idx := int(uint32(stack[base+int(ci.b)]))
			tbl := fr.fn.brTables[ci.a]
			if idx >= len(tbl)-1 {
				idx = len(tbl) - 1
			}
			e := &tbl[idx]
			if n := e.arity; n != 0 {
				r := stack[base:]
				copy(r[e.height:e.height+n], r[ci.h-n:ci.h])
			}
			pc = int(e.pc)

		case iReturn:
			switch ci.imm {
			case 0:
			case 1:
				stack[base] = stack[base+int(ci.a)]
			default:
				copy(stack[base:base+int(ci.imm)], stack[base+int(ci.a):])
			}
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				save(base + int(ci.imm))
				in.status = StatusDone
				return StatusDone, nil
			}
			fr = &frames[len(frames)-1]
			code = fr.fn.code
			pc = int(fr.pc)
			base = int(fr.base)

		case iCall:
			callee := &in.mod.funcs[ci.a]
			nb := base + int(ci.h) - callee.nParams
			if !certified {
				if need := nb + callee.nLocals + callee.maxStack + 1; need > len(stack) {
					in.stack = stack
					in.ensureStack(need)
					stack = in.stack
				}
				if len(frames) >= maxDepth {
					return fail(TrapStackOverflow, base)
				}
			}
			for i := nb + callee.nParams; i < nb+callee.nLocals; i++ {
				stack[i] = 0
			}
			fr.pc = int32(pc)
			// Certified modules reserved frame capacity up front; otherwise
			// growth is amortized doubling.
			frames = append(frames, frame{fn: callee, base: int32(nb)}) //sledge:coldpath
			fr = &frames[len(frames)-1]
			code = callee.code
			pc = 0
			base = nb

		case iCallHost:
			hb := &in.mod.hostFuncs[ci.a]
			n := len(hb.ft.Params)
			hp := base + int(ci.h)
			fr.pc = int32(pc)
			in.sp = hp
			in.mem = mem
			if dirty > in.memDirty {
				in.memDirty = dirty
			}
			val, herr := hb.fn(in, stack[hp-n:hp])
			mem = in.mem
			memLen = uint64(len(mem))
			if in.memDirty > dirty {
				dirty = in.memDirty
			}
			if herr != nil {
				if errors.Is(herr, ErrHostBlock) {
					in.pendingHostArity = int(ci.b)
					save(hp - n)
					in.status = StatusBlocked
					return StatusBlocked, nil
				}
				save(hp - n)
				in.trap = &Trap{Code: TrapHostError, Detail: hb.module + "." + hb.name, Wrapped: herr} //sledge:coldpath
				in.status = StatusTrapped
				return StatusTrapped, in.trap
			}
			if ci.b > 0 {
				stack[hp-n] = val
			}

		case iCallIndirect:
			hp := base + int(ci.h)
			idx := uint64(uint32(stack[hp-1]))
			// Monomorphic inline-cache fast path (imm>>16 is the site's IC
			// slot): dispatching the same table index as last time implies
			// the bounds, null, and CFI type checks all pass — the table is
			// immutable — so jump straight to the resolved callee.
			if e := &in.ic[ci.imm>>16]; e.callee != nil && e.key == int32(idx) {
				callee := e.callee
				nb := hp - 1 - callee.nParams
				if !certified {
					if need := nb + callee.nLocals + callee.maxStack + 1; need > len(stack) {
						in.stack = stack
						in.ensureStack(need)
						stack = in.stack
					}
					if len(frames) >= maxDepth {
						return fail(TrapStackOverflow, base)
					}
				}
				for i := nb + callee.nParams; i < nb+callee.nLocals; i++ {
					stack[i] = 0
				}
				fr.pc = int32(pc)
				frames = append(frames, frame{fn: callee, base: int32(nb)}) //sledge:coldpath
				fr = &frames[len(frames)-1]
				code = callee.code
				pc = 0
				base = nb
				break
			}
			if idx >= uint64(len(in.table)) {
				return fail(TrapIndirectCallOOB, base)
			}
			ent := in.table[idx]
			if ent.funcIdx < 0 {
				return fail(TrapIndirectCallNull, base)
			}
			if ent.canonType != ci.a {
				return fail(TrapIndirectCallType, base)
			}
			nImp := in.mod.numImports
			if int(ent.funcIdx) < nImp {
				hb := &in.mod.hostFuncs[ent.funcIdx]
				n := len(hb.ft.Params)
				fr.pc = int32(pc)
				in.sp = hp - 1
				in.mem = mem
				if dirty > in.memDirty {
					in.memDirty = dirty
				}
				val, herr := hb.fn(in, stack[hp-1-n:hp-1])
				mem = in.mem
				memLen = uint64(len(mem))
				if in.memDirty > dirty {
					dirty = in.memDirty
				}
				if herr != nil {
					if errors.Is(herr, ErrHostBlock) {
						in.pendingHostArity = int(ci.imm & 0xFFFF)
						save(hp - 1 - n)
						in.status = StatusBlocked
						return StatusBlocked, nil
					}
					save(hp - 1 - n)
					in.trap = &Trap{Code: TrapHostError, Detail: hb.module + "." + hb.name, Wrapped: herr} //sledge:coldpath
					in.status = StatusTrapped
					return StatusTrapped, in.trap
				}
				if ci.imm&0xFFFF > 0 {
					stack[hp-1-n] = val
				}
				break
			}
			callee := &in.mod.funcs[int(ent.funcIdx)-nImp]
			in.ic[ci.imm>>16] = icEntry{key: int32(idx), callee: callee}
			nb := hp - 1 - callee.nParams
			if !certified {
				if need := nb + callee.nLocals + callee.maxStack + 1; need > len(stack) {
					in.stack = stack
					in.ensureStack(need)
					stack = in.stack
				}
				if len(frames) >= maxDepth {
					return fail(TrapStackOverflow, base)
				}
			}
			for i := nb + callee.nParams; i < nb+callee.nLocals; i++ {
				stack[i] = 0
			}
			fr.pc = int32(pc)
			frames = append(frames, frame{fn: callee, base: int32(nb)}) //sledge:coldpath
			fr = &frames[len(frames)-1]
			code = callee.code
			pc = 0
			base = nb

		case iCallDevirt:
			hp := base + int(ci.h)
			idx := uint32(stack[hp-1])
			if idx != uint32(ci.b) {
				if uint64(idx) >= uint64(len(in.table)) {
					return fail(TrapIndirectCallOOB, base)
				}
				if in.table[idx].funcIdx < 0 {
					return fail(TrapIndirectCallNull, base)
				}
				return fail(TrapIndirectCallType, base)
			}
			callee := &in.mod.funcs[ci.a]
			nb := hp - 1 - callee.nParams
			if !certified {
				if need := nb + callee.nLocals + callee.maxStack + 1; need > len(stack) {
					in.stack = stack
					in.ensureStack(need)
					stack = in.stack
				}
				if len(frames) >= maxDepth {
					return fail(TrapStackOverflow, base)
				}
			}
			for i := nb + callee.nParams; i < nb+callee.nLocals; i++ {
				stack[i] = 0
			}
			fr.pc = int32(pc)
			frames = append(frames, frame{fn: callee, base: int32(nb)}) //sledge:coldpath
			fr = &frames[len(frames)-1]
			code = callee.code
			pc = 0
			base = nb

		case iConst:
			stack[base+int(ci.h)] = ci.imm
		case iMov:
			stack[base+int(ci.h)] = stack[base+int(ci.a)]
		case iSelect:
			v := stack[base+int(ci.a)]
			if stack[base+int(ci.imm)] == 0 {
				v = stack[base+int(ci.b)]
			}
			stack[base+int(ci.h)] = v
		case iGlobalGet:
			stack[base+int(ci.h)] = globals[ci.a]
		case iGlobalSet:
			globals[ci.a] = stack[base+int(ci.b)]

		case iBoundsCheck:
			a := uint64(uint32(stack[base+int(ci.b)])) + ci.imm
			if a+uint64(ci.a) > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
		case iMPXCheck:
			a := uint64(uint32(stack[base+int(ci.b)])) + ci.imm
			// Simulated bndmov + bndcl/bndcu: descriptor loads, two
			// compares, and a scratch bounds-register store.
			lo, hi := in.mpxBounds[0], in.mpxBounds[1]
			in.mpxScratch = a
			if a < lo || a+uint64(ci.a) > hi {
				return fail(TrapMemOutOfBounds, base)
			}

		case iMemorySize:
			stack[base+int(ci.h)] = uint64(uint32(len(mem) / wasm.PageSize))
		case iMemoryGrow:
			delta := uint32(stack[base+int(ci.a)])
			in.mem = mem
			res := in.growMemory(delta)
			mem = in.mem
			memLen = uint64(len(mem))
			stack[base+int(ci.h)] = uint64(uint32(res))

		// ------ immediate and fused forms (see module.go) ------
		case iI32AddI:
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) + uint32(ci.imm))
		case iI32MulI:
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) * uint32(ci.imm))
		case iI32MulAddI:
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)])*uint32(ci.imm) + uint32(stack[base+int(ci.b)]))
		case iI32Add3:
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) + uint32(stack[base+int(ci.b)]) + uint32(stack[base+int(ci.imm)]))
		case iI32Load8UX:
			a := uint64(uint32(stack[base+int(ci.a)])+uint32(stack[base+int(ci.b)])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(mem[a])

		case iBrIfEq:
			if uint32(stack[base+int(ci.b)]) == uint32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfNe:
			if uint32(stack[base+int(ci.b)]) != uint32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfLtS:
			if int32(stack[base+int(ci.b)]) < int32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfLtU:
			if uint32(stack[base+int(ci.b)]) < uint32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfGtS:
			if int32(stack[base+int(ci.b)]) > int32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfGtU:
			if uint32(stack[base+int(ci.b)]) > uint32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfLeS:
			if int32(stack[base+int(ci.b)]) <= int32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfLeU:
			if uint32(stack[base+int(ci.b)]) <= uint32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfGeS:
			if int32(stack[base+int(ci.b)]) >= int32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfGeU:
			if uint32(stack[base+int(ci.b)]) >= uint32(stack[base+int(ci.h)]) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfEqI:
			if uint32(stack[base+int(ci.b)]) == uint32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfNeI:
			if uint32(stack[base+int(ci.b)]) != uint32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfLtSI:
			if int32(stack[base+int(ci.b)]) < int32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfLtUI:
			if uint32(stack[base+int(ci.b)]) < uint32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfGtSI:
			if int32(stack[base+int(ci.b)]) > int32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfGtUI:
			if uint32(stack[base+int(ci.b)]) > uint32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfLeSI:
			if int32(stack[base+int(ci.b)]) <= int32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfLeUI:
			if uint32(stack[base+int(ci.b)]) <= uint32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfGeSI:
			if int32(stack[base+int(ci.b)]) >= int32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall
		case iBrIfGeUI:
			if uint32(stack[base+int(ci.b)]) >= uint32(ci.imm) {
				pc = int(ci.a)
				goto taken
			}
			goto fall

		// ------ memory access (low-byte wasm opcodes) ------
		case uint16(wasm.OpI32Load):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(binary.LittleEndian.Uint32(mem[a:]))
		case uint16(wasm.OpI64Load):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = binary.LittleEndian.Uint64(mem[a:])
		case uint16(wasm.OpF32Load):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(binary.LittleEndian.Uint32(mem[a:]))
		case uint16(wasm.OpF64Load):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = binary.LittleEndian.Uint64(mem[a:])
		case uint16(wasm.OpI32Load8S):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(uint32(int32(int8(mem[a]))))
		case uint16(wasm.OpI32Load8U):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(mem[a])
		case uint16(wasm.OpI32Load16S):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(uint32(int32(int16(binary.LittleEndian.Uint16(mem[a:])))))
		case uint16(wasm.OpI32Load16U):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(binary.LittleEndian.Uint16(mem[a:]))
		case uint16(wasm.OpI64Load8S):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(int64(int8(mem[a])))
		case uint16(wasm.OpI64Load8U):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(mem[a])
		case uint16(wasm.OpI64Load16S):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(int64(int16(binary.LittleEndian.Uint16(mem[a:]))))
		case uint16(wasm.OpI64Load16U):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(binary.LittleEndian.Uint16(mem[a:]))
		case uint16(wasm.OpI64Load32S):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(int64(int32(binary.LittleEndian.Uint32(mem[a:]))))
		case uint16(wasm.OpI64Load32U):
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			stack[base+int(ci.h)] = uint64(binary.LittleEndian.Uint32(mem[a:]))

		case uint16(wasm.OpI32Store):
			v := uint32(stack[base+int(ci.b)])
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			if a+4 > dirty {
				dirty = a + 4
			}
			binary.LittleEndian.PutUint32(mem[a:], v)
		case uint16(wasm.OpI64Store):
			v := stack[base+int(ci.b)]
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			if a+8 > dirty {
				dirty = a + 8
			}
			binary.LittleEndian.PutUint64(mem[a:], v)
		case uint16(wasm.OpF32Store):
			v := uint32(stack[base+int(ci.b)])
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			if a+4 > dirty {
				dirty = a + 4
			}
			binary.LittleEndian.PutUint32(mem[a:], v)
		case uint16(wasm.OpF64Store):
			v := stack[base+int(ci.b)]
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			if a+8 > dirty {
				dirty = a + 8
			}
			binary.LittleEndian.PutUint64(mem[a:], v)
		case uint16(wasm.OpI32Store8), uint16(wasm.OpI64Store8):
			v := byte(stack[base+int(ci.b)])
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			if a+1 > dirty {
				dirty = a + 1
			}
			mem[a] = v
		case uint16(wasm.OpI32Store16), uint16(wasm.OpI64Store16):
			v := uint16(stack[base+int(ci.b)])
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			if a+2 > dirty {
				dirty = a + 2
			}
			binary.LittleEndian.PutUint16(mem[a:], v)
		case uint16(wasm.OpI64Store32):
			v := uint32(stack[base+int(ci.b)])
			a := uint64(uint32(stack[base+int(ci.a)])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, base)
			}
			if a+4 > dirty {
				dirty = a + 4
			}
			binary.LittleEndian.PutUint32(mem[a:], v)

		// ------ i32 comparisons ------
		case uint16(wasm.OpI32Eqz):
			stack[base+int(ci.h)] = b2u(uint32(stack[base+int(ci.a)]) == 0)
		case uint16(wasm.OpI32Eq):
			stack[base+int(ci.h)] = b2u(uint32(stack[base+int(ci.a)]) == uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32Ne):
			stack[base+int(ci.h)] = b2u(uint32(stack[base+int(ci.a)]) != uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32LtS):
			stack[base+int(ci.h)] = b2u(int32(stack[base+int(ci.a)]) < int32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32LtU):
			stack[base+int(ci.h)] = b2u(uint32(stack[base+int(ci.a)]) < uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32GtS):
			stack[base+int(ci.h)] = b2u(int32(stack[base+int(ci.a)]) > int32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32GtU):
			stack[base+int(ci.h)] = b2u(uint32(stack[base+int(ci.a)]) > uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32LeS):
			stack[base+int(ci.h)] = b2u(int32(stack[base+int(ci.a)]) <= int32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32LeU):
			stack[base+int(ci.h)] = b2u(uint32(stack[base+int(ci.a)]) <= uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32GeS):
			stack[base+int(ci.h)] = b2u(int32(stack[base+int(ci.a)]) >= int32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32GeU):
			stack[base+int(ci.h)] = b2u(uint32(stack[base+int(ci.a)]) >= uint32(stack[base+int(ci.b)]))

		// ------ i64 comparisons ------
		case uint16(wasm.OpI64Eqz):
			stack[base+int(ci.h)] = b2u(stack[base+int(ci.a)] == 0)
		case uint16(wasm.OpI64Eq):
			stack[base+int(ci.h)] = b2u(stack[base+int(ci.a)] == stack[base+int(ci.b)])
		case uint16(wasm.OpI64Ne):
			stack[base+int(ci.h)] = b2u(stack[base+int(ci.a)] != stack[base+int(ci.b)])
		case uint16(wasm.OpI64LtS):
			stack[base+int(ci.h)] = b2u(int64(stack[base+int(ci.a)]) < int64(stack[base+int(ci.b)]))
		case uint16(wasm.OpI64LtU):
			stack[base+int(ci.h)] = b2u(stack[base+int(ci.a)] < stack[base+int(ci.b)])
		case uint16(wasm.OpI64GtS):
			stack[base+int(ci.h)] = b2u(int64(stack[base+int(ci.a)]) > int64(stack[base+int(ci.b)]))
		case uint16(wasm.OpI64GtU):
			stack[base+int(ci.h)] = b2u(stack[base+int(ci.a)] > stack[base+int(ci.b)])
		case uint16(wasm.OpI64LeS):
			stack[base+int(ci.h)] = b2u(int64(stack[base+int(ci.a)]) <= int64(stack[base+int(ci.b)]))
		case uint16(wasm.OpI64LeU):
			stack[base+int(ci.h)] = b2u(stack[base+int(ci.a)] <= stack[base+int(ci.b)])
		case uint16(wasm.OpI64GeS):
			stack[base+int(ci.h)] = b2u(int64(stack[base+int(ci.a)]) >= int64(stack[base+int(ci.b)]))
		case uint16(wasm.OpI64GeU):
			stack[base+int(ci.h)] = b2u(stack[base+int(ci.a)] >= stack[base+int(ci.b)])

		// ------ float comparisons ------
		case uint16(wasm.OpF32Eq):
			stack[base+int(ci.h)] = b2u(f32(stack[base+int(ci.a)]) == f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Ne):
			stack[base+int(ci.h)] = b2u(f32(stack[base+int(ci.a)]) != f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Lt):
			stack[base+int(ci.h)] = b2u(f32(stack[base+int(ci.a)]) < f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Gt):
			stack[base+int(ci.h)] = b2u(f32(stack[base+int(ci.a)]) > f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Le):
			stack[base+int(ci.h)] = b2u(f32(stack[base+int(ci.a)]) <= f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Ge):
			stack[base+int(ci.h)] = b2u(f32(stack[base+int(ci.a)]) >= f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Eq):
			stack[base+int(ci.h)] = b2u(f64(stack[base+int(ci.a)]) == f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Ne):
			stack[base+int(ci.h)] = b2u(f64(stack[base+int(ci.a)]) != f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Lt):
			stack[base+int(ci.h)] = b2u(f64(stack[base+int(ci.a)]) < f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Gt):
			stack[base+int(ci.h)] = b2u(f64(stack[base+int(ci.a)]) > f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Le):
			stack[base+int(ci.h)] = b2u(f64(stack[base+int(ci.a)]) <= f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Ge):
			stack[base+int(ci.h)] = b2u(f64(stack[base+int(ci.a)]) >= f64(stack[base+int(ci.b)]))

		// ------ i32 arithmetic ------
		case uint16(wasm.OpI32Clz):
			stack[base+int(ci.h)] = uint64(bits.LeadingZeros32(uint32(stack[base+int(ci.a)])))
		case uint16(wasm.OpI32Ctz):
			stack[base+int(ci.h)] = uint64(bits.TrailingZeros32(uint32(stack[base+int(ci.a)])))
		case uint16(wasm.OpI32Popcnt):
			stack[base+int(ci.h)] = uint64(bits.OnesCount32(uint32(stack[base+int(ci.a)])))
		case uint16(wasm.OpI32Add):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) + uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32Sub):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) - uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32Mul):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) * uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32DivS):
			x, y := int32(stack[base+int(ci.a)]), int32(stack[base+int(ci.b)])
			if y == 0 {
				return fail(TrapDivByZero, base)
			}
			if x == math.MinInt32 && y == -1 {
				return fail(TrapIntOverflow, base)
			}
			stack[base+int(ci.h)] = uint64(uint32(x / y))
		case uint16(wasm.OpI32DivU):
			x, y := uint32(stack[base+int(ci.a)]), uint32(stack[base+int(ci.b)])
			if y == 0 {
				return fail(TrapDivByZero, base)
			}
			stack[base+int(ci.h)] = uint64(x / y)
		case uint16(wasm.OpI32RemS):
			x, y := int32(stack[base+int(ci.a)]), int32(stack[base+int(ci.b)])
			if y == 0 {
				return fail(TrapDivByZero, base)
			}
			if x == math.MinInt32 && y == -1 {
				stack[base+int(ci.h)] = 0
			} else {
				stack[base+int(ci.h)] = uint64(uint32(x % y))
			}
		case uint16(wasm.OpI32RemU):
			x, y := uint32(stack[base+int(ci.a)]), uint32(stack[base+int(ci.b)])
			if y == 0 {
				return fail(TrapDivByZero, base)
			}
			stack[base+int(ci.h)] = uint64(x % y)
		case uint16(wasm.OpI32And):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) & uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32Or):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) | uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32Xor):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) ^ uint32(stack[base+int(ci.b)]))
		case uint16(wasm.OpI32Shl):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) << (uint32(stack[base+int(ci.b)]) & 31))
		case uint16(wasm.OpI32ShrS):
			stack[base+int(ci.h)] = uint64(uint32(int32(stack[base+int(ci.a)]) >> (uint32(stack[base+int(ci.b)]) & 31)))
		case uint16(wasm.OpI32ShrU):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) >> (uint32(stack[base+int(ci.b)]) & 31))
		case uint16(wasm.OpI32Rotl):
			stack[base+int(ci.h)] = uint64(bits.RotateLeft32(uint32(stack[base+int(ci.a)]), int(uint32(stack[base+int(ci.b)])&31)))
		case uint16(wasm.OpI32Rotr):
			stack[base+int(ci.h)] = uint64(bits.RotateLeft32(uint32(stack[base+int(ci.a)]), -int(uint32(stack[base+int(ci.b)])&31)))

		// ------ i64 arithmetic ------
		case uint16(wasm.OpI64Clz):
			stack[base+int(ci.h)] = uint64(bits.LeadingZeros64(stack[base+int(ci.a)]))
		case uint16(wasm.OpI64Ctz):
			stack[base+int(ci.h)] = uint64(bits.TrailingZeros64(stack[base+int(ci.a)]))
		case uint16(wasm.OpI64Popcnt):
			stack[base+int(ci.h)] = uint64(bits.OnesCount64(stack[base+int(ci.a)]))
		case uint16(wasm.OpI64Add):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] + stack[base+int(ci.b)]
		case uint16(wasm.OpI64Sub):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] - stack[base+int(ci.b)]
		case uint16(wasm.OpI64Mul):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] * stack[base+int(ci.b)]
		case uint16(wasm.OpI64DivS):
			x, y := int64(stack[base+int(ci.a)]), int64(stack[base+int(ci.b)])
			if y == 0 {
				return fail(TrapDivByZero, base)
			}
			if x == math.MinInt64 && y == -1 {
				return fail(TrapIntOverflow, base)
			}
			stack[base+int(ci.h)] = uint64(x / y)
		case uint16(wasm.OpI64DivU):
			if stack[base+int(ci.b)] == 0 {
				return fail(TrapDivByZero, base)
			}
			stack[base+int(ci.h)] = stack[base+int(ci.a)] / stack[base+int(ci.b)]
		case uint16(wasm.OpI64RemS):
			x, y := int64(stack[base+int(ci.a)]), int64(stack[base+int(ci.b)])
			if y == 0 {
				return fail(TrapDivByZero, base)
			}
			if x == math.MinInt64 && y == -1 {
				stack[base+int(ci.h)] = 0
			} else {
				stack[base+int(ci.h)] = uint64(x % y)
			}
		case uint16(wasm.OpI64RemU):
			if stack[base+int(ci.b)] == 0 {
				return fail(TrapDivByZero, base)
			}
			stack[base+int(ci.h)] = stack[base+int(ci.a)] % stack[base+int(ci.b)]
		case uint16(wasm.OpI64And):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] & stack[base+int(ci.b)]
		case uint16(wasm.OpI64Or):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] | stack[base+int(ci.b)]
		case uint16(wasm.OpI64Xor):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] ^ stack[base+int(ci.b)]
		case uint16(wasm.OpI64Shl):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] << (stack[base+int(ci.b)] & 63)
		case uint16(wasm.OpI64ShrS):
			stack[base+int(ci.h)] = uint64(int64(stack[base+int(ci.a)]) >> (stack[base+int(ci.b)] & 63))
		case uint16(wasm.OpI64ShrU):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] >> (stack[base+int(ci.b)] & 63)
		case uint16(wasm.OpI64Rotl):
			stack[base+int(ci.h)] = bits.RotateLeft64(stack[base+int(ci.a)], int(stack[base+int(ci.b)]&63))
		case uint16(wasm.OpI64Rotr):
			stack[base+int(ci.h)] = bits.RotateLeft64(stack[base+int(ci.a)], -int(stack[base+int(ci.b)]&63))

		// ------ f32 arithmetic ------
		case uint16(wasm.OpF32Abs):
			stack[base+int(ci.h)] = u32f(float32(math.Abs(float64(f32(stack[base+int(ci.a)])))))
		case uint16(wasm.OpF32Neg):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]) ^ 0x80000000)
		case uint16(wasm.OpF32Ceil):
			stack[base+int(ci.h)] = u32f(float32(math.Ceil(float64(f32(stack[base+int(ci.a)])))))
		case uint16(wasm.OpF32Floor):
			stack[base+int(ci.h)] = u32f(float32(math.Floor(float64(f32(stack[base+int(ci.a)])))))
		case uint16(wasm.OpF32Trunc):
			stack[base+int(ci.h)] = u32f(float32(math.Trunc(float64(f32(stack[base+int(ci.a)])))))
		case uint16(wasm.OpF32Nearest):
			stack[base+int(ci.h)] = u32f(float32(math.RoundToEven(float64(f32(stack[base+int(ci.a)])))))
		case uint16(wasm.OpF32Sqrt):
			stack[base+int(ci.h)] = u32f(float32(math.Sqrt(float64(f32(stack[base+int(ci.a)])))))
		case uint16(wasm.OpF32Add):
			stack[base+int(ci.h)] = u32f(f32(stack[base+int(ci.a)]) + f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Sub):
			stack[base+int(ci.h)] = u32f(f32(stack[base+int(ci.a)]) - f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Mul):
			stack[base+int(ci.h)] = u32f(f32(stack[base+int(ci.a)]) * f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Div):
			stack[base+int(ci.h)] = u32f(f32(stack[base+int(ci.a)]) / f32(stack[base+int(ci.b)]))
		case uint16(wasm.OpF32Min):
			stack[base+int(ci.h)] = u32f(float32(math.Min(float64(f32(stack[base+int(ci.a)])), float64(f32(stack[base+int(ci.b)])))))
		case uint16(wasm.OpF32Max):
			stack[base+int(ci.h)] = u32f(float32(math.Max(float64(f32(stack[base+int(ci.a)])), float64(f32(stack[base+int(ci.b)])))))
		case uint16(wasm.OpF32Copysign):
			stack[base+int(ci.h)] = u32f(float32(math.Copysign(float64(f32(stack[base+int(ci.a)])), float64(f32(stack[base+int(ci.b)])))))

		// ------ f64 arithmetic ------
		case uint16(wasm.OpF64Abs):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] & 0x7FFFFFFFFFFFFFFF
		case uint16(wasm.OpF64Neg):
			stack[base+int(ci.h)] = stack[base+int(ci.a)] ^ 0x8000000000000000
		case uint16(wasm.OpF64Ceil):
			stack[base+int(ci.h)] = uf64(math.Ceil(f64(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64Floor):
			stack[base+int(ci.h)] = uf64(math.Floor(f64(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64Trunc):
			stack[base+int(ci.h)] = uf64(math.Trunc(f64(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64Nearest):
			stack[base+int(ci.h)] = uf64(math.RoundToEven(f64(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64Sqrt):
			stack[base+int(ci.h)] = uf64(math.Sqrt(f64(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64Add):
			stack[base+int(ci.h)] = uf64(f64(stack[base+int(ci.a)]) + f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Sub):
			stack[base+int(ci.h)] = uf64(f64(stack[base+int(ci.a)]) - f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Mul):
			stack[base+int(ci.h)] = uf64(f64(stack[base+int(ci.a)]) * f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Div):
			stack[base+int(ci.h)] = uf64(f64(stack[base+int(ci.a)]) / f64(stack[base+int(ci.b)]))
		case uint16(wasm.OpF64Min):
			stack[base+int(ci.h)] = uf64(math.Min(f64(stack[base+int(ci.a)]), f64(stack[base+int(ci.b)])))
		case uint16(wasm.OpF64Max):
			stack[base+int(ci.h)] = uf64(math.Max(f64(stack[base+int(ci.a)]), f64(stack[base+int(ci.b)])))
		case uint16(wasm.OpF64Copysign):
			stack[base+int(ci.h)] = uf64(math.Copysign(f64(stack[base+int(ci.a)]), f64(stack[base+int(ci.b)])))

		// ------ conversions ------
		case uint16(wasm.OpI32WrapI64):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]))
		case uint16(wasm.OpI32TruncF32S):
			v, code := truncS32(float64(f32(stack[base+int(ci.a)])))
			if code != 0 {
				return fail(code, base)
			}
			stack[base+int(ci.h)] = v
		case uint16(wasm.OpI32TruncF32U):
			v, code := truncU32(float64(f32(stack[base+int(ci.a)])))
			if code != 0 {
				return fail(code, base)
			}
			stack[base+int(ci.h)] = v
		case uint16(wasm.OpI32TruncF64S):
			v, code := truncS32(f64(stack[base+int(ci.a)]))
			if code != 0 {
				return fail(code, base)
			}
			stack[base+int(ci.h)] = v
		case uint16(wasm.OpI32TruncF64U):
			v, code := truncU32(f64(stack[base+int(ci.a)]))
			if code != 0 {
				return fail(code, base)
			}
			stack[base+int(ci.h)] = v
		case uint16(wasm.OpI64ExtendI32S):
			stack[base+int(ci.h)] = uint64(int64(int32(stack[base+int(ci.a)])))
		case uint16(wasm.OpI64ExtendI32U):
			stack[base+int(ci.h)] = uint64(uint32(stack[base+int(ci.a)]))
		case uint16(wasm.OpI64TruncF32S):
			v, code := truncS64(float64(f32(stack[base+int(ci.a)])))
			if code != 0 {
				return fail(code, base)
			}
			stack[base+int(ci.h)] = v
		case uint16(wasm.OpI64TruncF32U):
			v, code := truncU64(float64(f32(stack[base+int(ci.a)])))
			if code != 0 {
				return fail(code, base)
			}
			stack[base+int(ci.h)] = v
		case uint16(wasm.OpI64TruncF64S):
			v, code := truncS64(f64(stack[base+int(ci.a)]))
			if code != 0 {
				return fail(code, base)
			}
			stack[base+int(ci.h)] = v
		case uint16(wasm.OpI64TruncF64U):
			v, code := truncU64(f64(stack[base+int(ci.a)]))
			if code != 0 {
				return fail(code, base)
			}
			stack[base+int(ci.h)] = v
		case uint16(wasm.OpF32ConvertI32S):
			stack[base+int(ci.h)] = u32f(float32(int32(stack[base+int(ci.a)])))
		case uint16(wasm.OpF32ConvertI32U):
			stack[base+int(ci.h)] = u32f(float32(uint32(stack[base+int(ci.a)])))
		case uint16(wasm.OpF32ConvertI64S):
			stack[base+int(ci.h)] = u32f(float32(int64(stack[base+int(ci.a)])))
		case uint16(wasm.OpF32ConvertI64U):
			stack[base+int(ci.h)] = u32f(float32(stack[base+int(ci.a)]))
		case uint16(wasm.OpF32DemoteF64):
			stack[base+int(ci.h)] = u32f(float32(f64(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64ConvertI32S):
			stack[base+int(ci.h)] = uf64(float64(int32(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64ConvertI32U):
			stack[base+int(ci.h)] = uf64(float64(uint32(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64ConvertI64S):
			stack[base+int(ci.h)] = uf64(float64(int64(stack[base+int(ci.a)])))
		case uint16(wasm.OpF64ConvertI64U):
			stack[base+int(ci.h)] = uf64(float64(stack[base+int(ci.a)]))
		case uint16(wasm.OpF64PromoteF32):
			stack[base+int(ci.h)] = uf64(float64(f32(stack[base+int(ci.a)])))
		case uint16(wasm.OpI32Extend8S):
			stack[base+int(ci.h)] = uint64(uint32(int32(int8(stack[base+int(ci.a)]))))
		case uint16(wasm.OpI32Extend16S):
			stack[base+int(ci.h)] = uint64(uint32(int32(int16(stack[base+int(ci.a)]))))
		case uint16(wasm.OpI64Extend8S):
			stack[base+int(ci.h)] = uint64(int64(int8(stack[base+int(ci.a)])))
		case uint16(wasm.OpI64Extend16S):
			stack[base+int(ci.h)] = uint64(int64(int16(stack[base+int(ci.a)])))
		case uint16(wasm.OpI64Extend32S):
			stack[base+int(ci.h)] = uint64(int64(int32(stack[base+int(ci.a)])))

		default:
			return fail(TrapUnreachable, base)
		}
		continue

		// A branch pays the charge its edge leads to, exactly as dispatching
		// that iGasCharge would have, which is also where the handler of one
		// ends up. By now any results have moved and pc is the destination,
		// one past the charge: a yield here resumes without paying again.
	taken:
		edge = ci.imm >> takenShift & maxEdgeCost
		goto charge
	fall:
		edge = ci.imm >> fallShift
	charge:
		gasRun += edge
		if !perInstr {
			steps -= int64(edge)
			if steps <= 0 {
				fr.pc = int32(pc)
				save(base + fr.fn.paidTop(pc))
				in.status = StatusYielded
				return StatusYielded, nil
			}
		}
	}
}
