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
// instruction stream in register form (see regalloc.go). A frame's slab
// holds its locals at stack[base:base+nLocals] and its operands above, and
// every operand index is computed from the instruction's static height
// (bh + ci.h - k, where bh is the frame's base+nLocals), so the loop
// carries no sp at all: no push/pop bookkeeping and no serial sp dependency
// chain between dispatches.
//
// The loop is resumable at every instruction boundary, which is what
// enables the scheduler's user-level preemption: the registers live in the
// slab save() snapshots, and whenever control leaves the loop (yield, host
// block, done, trap) the static height of the resume point is materialized
// into Instance.sp for ResumeHost and Result().
//
//sledge:noalloc
func (in *Instance) runRegister(fuel int64) (st Status, err error) {
	frames := in.frames
	fr := &frames[len(frames)-1]
	stack := in.stack
	pc := int(fr.pc)
	code := fr.fn.code
	// bh is the frame's register file base: locals end, operands start.
	bh := int(fr.base) + fr.fn.nLocals
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
	// only at iGasCharge, so the loop top carries no check at all — every
	// CFG cycle passes a loop-header charge and MaxUncharged bounds
	// straight-line runs, which together bound the work between checks.
	perInstr := in.mod.cfg.NoBlockMeter
	// gasRun accumulates charge-point gas for this run slice; folded into
	// in.Gas by save() so it is identical in both metering modes.
	var gasRun uint64

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
		if r := recover(); r != nil {
			rte, ok := r.(runtime.Error)
			if !ok {
				panic(r)
			}
			fr.pc = int32(pc)
			save(bh)
			in.trap = &Trap{Code: TrapMemOutOfBounds, Detail: rte.Error()} //sledge:coldpath
			in.status = StatusTrapped
			st, err = StatusTrapped, in.trap
		}
	}()

	fail := func(c TrapCode, sp int) (Status, error) {
		fr.pc = int32(pc)
		save(sp)
		in.trap = newTrap(c)
		in.status = StatusTrapped
		return StatusTrapped, in.trap
	}

	for {
		if perInstr {
			if steps <= 0 {
				fr.pc = int32(pc)
				save(bh + int(code[pc].h))
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
			// A charge is never the last instruction in a body (the
			// implicit iReturn follows), so code[pc] below is always valid
			// at a yield. pc is already past the charge: resuming never
			// re-applies it.
			gasRun += ci.imm
			if !perInstr {
				steps -= int64(ci.imm)
				if steps <= 0 {
					fr.pc = int32(pc)
					save(bh + int(code[pc].h))
					in.status = StatusYielded
					return StatusYielded, nil
				}
			}
		case iUnreachable:
			return fail(TrapUnreachable, bh+int(ci.h))

		case iBr:
			hp := bh + int(ci.h)
			target := bh + int(ci.b)
			arity := int(ci.imm)
			copy(stack[target:target+arity], stack[hp-arity:hp])
			pc = int(ci.a)
		case iBrIf:
			hp := bh + int(ci.h)
			if stack[hp-1] != 0 {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-1-arity:hp-1])
				pc = int(ci.a)
			}
		case iBrIfNot:
			hp := bh + int(ci.h)
			if stack[hp-1] == 0 {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-1-arity:hp-1])
				pc = int(ci.a)
			}
		case iBrTable:
			hp := bh + int(ci.h)
			idx := int(uint32(stack[hp-1]))
			tbl := fr.fn.brTables[ci.a]
			if idx >= len(tbl)-1 {
				idx = len(tbl) - 1
			}
			e := tbl[idx]
			target := bh + int(e.height)
			arity := int(e.arity)
			copy(stack[target:target+arity], stack[hp-1-arity:hp-1])
			pc = int(e.pc)

		case iReturn:
			arity := int(ci.imm)
			hp := bh + int(ci.h)
			base := int(fr.base)
			copy(stack[base:base+arity], stack[hp-arity:hp])
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				save(base + arity)
				in.status = StatusDone
				return StatusDone, nil
			}
			fr = &frames[len(frames)-1]
			code = fr.fn.code
			pc = int(fr.pc)
			bh = int(fr.base) + fr.fn.nLocals

		case iCall:
			callee := &in.mod.funcs[ci.a]
			base := bh + int(ci.h) - callee.nParams
			if !certified {
				if need := base + callee.nLocals + callee.maxStack + 1; need > len(stack) {
					in.stack = stack
					in.ensureStack(need)
					stack = in.stack
				}
				if len(frames) >= maxDepth {
					return fail(TrapStackOverflow, bh+int(ci.h))
				}
			}
			for i := base + callee.nParams; i < base+callee.nLocals; i++ {
				stack[i] = 0
			}
			fr.pc = int32(pc)
			// Certified modules reserved frame capacity up front; otherwise
			// growth is amortized doubling.
			frames = append(frames, frame{fn: callee, base: int32(base)}) //sledge:coldpath
			fr = &frames[len(frames)-1]
			code = callee.code
			pc = 0
			bh = base + callee.nLocals

		case iCallHost:
			hb := &in.mod.hostFuncs[ci.a]
			n := len(hb.ft.Params)
			hp := bh + int(ci.h)
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
			hp := bh + int(ci.h)
			idx := uint64(uint32(stack[hp-1]))
			// Monomorphic inline-cache fast path (imm>>16 is the site's IC
			// slot): dispatching the same table index as last time implies
			// the bounds, null, and CFI type checks all pass — the table is
			// immutable — so jump straight to the resolved callee.
			if e := &in.ic[ci.imm>>16]; e.callee != nil && e.key == int32(idx) {
				callee := e.callee
				base := hp - 1 - callee.nParams
				if !certified {
					if need := base + callee.nLocals + callee.maxStack + 1; need > len(stack) {
						in.stack = stack
						in.ensureStack(need)
						stack = in.stack
					}
					if len(frames) >= maxDepth {
						return fail(TrapStackOverflow, hp-1)
					}
				}
				for i := base + callee.nParams; i < base+callee.nLocals; i++ {
					stack[i] = 0
				}
				fr.pc = int32(pc)
				frames = append(frames, frame{fn: callee, base: int32(base)}) //sledge:coldpath
				fr = &frames[len(frames)-1]
				code = callee.code
				pc = 0
				bh = base + callee.nLocals
				break
			}
			if idx >= uint64(len(in.table)) {
				return fail(TrapIndirectCallOOB, hp-1)
			}
			ent := in.table[idx]
			if ent.funcIdx < 0 {
				return fail(TrapIndirectCallNull, hp-1)
			}
			if ent.canonType != ci.a {
				return fail(TrapIndirectCallType, hp-1)
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
			base := hp - 1 - callee.nParams
			if !certified {
				if need := base + callee.nLocals + callee.maxStack + 1; need > len(stack) {
					in.stack = stack
					in.ensureStack(need)
					stack = in.stack
				}
				if len(frames) >= maxDepth {
					return fail(TrapStackOverflow, hp-1)
				}
			}
			for i := base + callee.nParams; i < base+callee.nLocals; i++ {
				stack[i] = 0
			}
			fr.pc = int32(pc)
			frames = append(frames, frame{fn: callee, base: int32(base)}) //sledge:coldpath
			fr = &frames[len(frames)-1]
			code = callee.code
			pc = 0
			bh = base + callee.nLocals

		case iCallDevirt:
			hp := bh + int(ci.h)
			idx := uint32(stack[hp-1])
			if idx != uint32(ci.b) {
				if uint64(idx) >= uint64(len(in.table)) {
					return fail(TrapIndirectCallOOB, hp-1)
				}
				if in.table[idx].funcIdx < 0 {
					return fail(TrapIndirectCallNull, hp-1)
				}
				return fail(TrapIndirectCallType, hp-1)
			}
			callee := &in.mod.funcs[ci.a]
			base := hp - 1 - callee.nParams
			if !certified {
				if need := base + callee.nLocals + callee.maxStack + 1; need > len(stack) {
					in.stack = stack
					in.ensureStack(need)
					stack = in.stack
				}
				if len(frames) >= maxDepth {
					return fail(TrapStackOverflow, hp-1)
				}
			}
			for i := base + callee.nParams; i < base+callee.nLocals; i++ {
				stack[i] = 0
			}
			fr.pc = int32(pc)
			frames = append(frames, frame{fn: callee, base: int32(base)}) //sledge:coldpath
			fr = &frames[len(frames)-1]
			code = callee.code
			pc = 0
			bh = base + callee.nLocals

		case iConst:
			stack[bh+int(ci.h)] = ci.imm
		case iDrop:
			// Height bookkeeping only; a no-op in register form (deleted
			// when fusion is on, kept for the NoFusion ablation).
		case iSelect:
			hp := bh + int(ci.h)
			if stack[hp-1] == 0 {
				stack[hp-3] = stack[hp-2]
			}
		case iLocalGet:
			stack[bh+int(ci.h)] = stack[int(fr.base)+int(ci.a)]
		case iLocalSet:
			stack[int(fr.base)+int(ci.a)] = stack[bh+int(ci.h)-1]
		case iLocalTee:
			stack[int(fr.base)+int(ci.a)] = stack[bh+int(ci.h)-1]
		case iGlobalGet:
			stack[bh+int(ci.h)] = globals[ci.a]
		case iGlobalSet:
			globals[ci.a] = stack[bh+int(ci.h)-1]

		case iBoundsCheck:
			a := uint64(uint32(stack[bh+int(ci.h)-int(ci.b)])) + ci.imm
			if a+uint64(ci.a) > memLen {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}
		case iMPXCheck:
			a := uint64(uint32(stack[bh+int(ci.h)-int(ci.b)])) + ci.imm
			// Simulated bndmov + bndcl/bndcu: descriptor loads, two
			// compares, and a scratch bounds-register store.
			lo, hi := in.mpxBounds[0], in.mpxBounds[1]
			in.mpxScratch = a
			if a < lo || a+uint64(ci.a) > hi {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}

		case iI32AddLC:
			stack[bh+int(ci.h)] = uint64(uint32(stack[int(fr.base)+int(ci.a)]) + uint32(ci.imm))
		case iI32MulLC:
			stack[bh+int(ci.h)] = uint64(uint32(stack[int(fr.base)+int(ci.a)]) * uint32(ci.imm))
		case iI32AddSL:
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(stack[i]) + uint32(stack[int(fr.base)+int(ci.a)]))
		case iI32MulSL:
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(stack[i]) * uint32(stack[int(fr.base)+int(ci.a)]))
		case iI32AddSC:
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(stack[i]) + uint32(ci.imm))
		case iF64AddSL:
			i := bh + int(ci.h) - 1
			stack[i] = uf64(f64(stack[i]) + f64(stack[int(fr.base)+int(ci.a)]))
		case iF64MulSL:
			i := bh + int(ci.h) - 1
			stack[i] = uf64(f64(stack[i]) * f64(stack[int(fr.base)+int(ci.a)]))
		case iIncLocal:
			idx := int(fr.base) + int(ci.a)
			stack[idx] = uint64(uint32(stack[idx]) + uint32(ci.imm))
		case iI32LoadL:
			a := uint64(uint32(stack[int(fr.base)+int(ci.a)])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}
			stack[bh+int(ci.h)] = uint64(binary.LittleEndian.Uint32(mem[a:]))
		case iF64LoadL:
			a := uint64(uint32(stack[int(fr.base)+int(ci.a)])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}
			stack[bh+int(ci.h)] = binary.LittleEndian.Uint64(mem[a:])
		case iI32LoadC:
			a := ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}
			stack[bh+int(ci.h)] = uint64(binary.LittleEndian.Uint32(mem[a:]))
		case iF64LoadC:
			a := ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}
			stack[bh+int(ci.h)] = binary.LittleEndian.Uint64(mem[a:])
		case iI32StoreC:
			a := uint64(uint32(stack[bh+int(ci.h)-1])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}
			if a+4 > dirty {
				dirty = a + 4
			}
			binary.LittleEndian.PutUint32(mem[a:], uint32(ci.a))
		case iI32StoreL:
			v := uint32(stack[int(fr.base)+int(ci.a)])
			a := uint64(uint32(stack[bh+int(ci.h)-1])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}
			if a+4 > dirty {
				dirty = a + 4
			}
			binary.LittleEndian.PutUint32(mem[a:], v)
		case iF64StoreL:
			v := stack[int(fr.base)+int(ci.a)]
			a := uint64(uint32(stack[bh+int(ci.h)-1])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, bh+int(ci.h))
			}
			if a+8 > dirty {
				dirty = a + 8
			}
			binary.LittleEndian.PutUint64(mem[a:], v)
		case iI32SubSL:
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(stack[i]) - uint32(stack[int(fr.base)+int(ci.a)]))
		case iF64SubSL:
			i := bh + int(ci.h) - 1
			stack[i] = uf64(f64(stack[i]) - f64(stack[int(fr.base)+int(ci.a)]))

		case iBrIfEq:
			hp := bh + int(ci.h)
			if uint32(stack[hp-2]) == uint32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfNe:
			hp := bh + int(ci.h)
			if uint32(stack[hp-2]) != uint32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfLtS:
			hp := bh + int(ci.h)
			if int32(stack[hp-2]) < int32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfLtU:
			hp := bh + int(ci.h)
			if uint32(stack[hp-2]) < uint32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfGtS:
			hp := bh + int(ci.h)
			if int32(stack[hp-2]) > int32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfGtU:
			hp := bh + int(ci.h)
			if uint32(stack[hp-2]) > uint32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfLeS:
			hp := bh + int(ci.h)
			if int32(stack[hp-2]) <= int32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfLeU:
			hp := bh + int(ci.h)
			if uint32(stack[hp-2]) <= uint32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfGeS:
			hp := bh + int(ci.h)
			if int32(stack[hp-2]) >= int32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}
		case iBrIfGeU:
			hp := bh + int(ci.h)
			if uint32(stack[hp-2]) >= uint32(stack[hp-1]) {
				target := bh + int(ci.b)
				arity := int(ci.imm)
				copy(stack[target:target+arity], stack[hp-2-arity:hp-2])
				pc = int(ci.a)
			}

		// ------ register-form three-address superinstructions ------
		case iI32AddLL:
			stack[bh+int(ci.h)] = uint64(uint32(stack[int(fr.base)+int(ci.a)]) + uint32(stack[int(fr.base)+int(ci.b)]))
		case iI32SubLL:
			stack[bh+int(ci.h)] = uint64(uint32(stack[int(fr.base)+int(ci.a)]) - uint32(stack[int(fr.base)+int(ci.b)]))
		case iI32MulLL:
			stack[bh+int(ci.h)] = uint64(uint32(stack[int(fr.base)+int(ci.a)]) * uint32(stack[int(fr.base)+int(ci.b)]))
		case iF64AddLL:
			stack[bh+int(ci.h)] = uf64(f64(stack[int(fr.base)+int(ci.a)]) + f64(stack[int(fr.base)+int(ci.b)]))
		case iF64SubLL:
			stack[bh+int(ci.h)] = uf64(f64(stack[int(fr.base)+int(ci.a)]) - f64(stack[int(fr.base)+int(ci.b)]))
		case iF64MulLL:
			stack[bh+int(ci.h)] = uf64(f64(stack[int(fr.base)+int(ci.a)]) * f64(stack[int(fr.base)+int(ci.b)]))
		case iI32MulSC:
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(stack[i]) * uint32(ci.imm))
		case iMovCL:
			stack[int(fr.base)+int(ci.a)] = ci.imm
		case iMovLL:
			stack[int(fr.base)+int(ci.a)] = stack[int(fr.base)+int(ci.b)]
		case iBrIfL:
			if stack[int(fr.base)+int(ci.imm>>16)] != 0 {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfNotL:
			if stack[int(fr.base)+int(ci.imm>>16)] == 0 {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfEqLL:
			if uint32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) == uint32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfNeLL:
			if uint32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) != uint32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfLtSLL:
			if int32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) < int32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfLtULL:
			if uint32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) < uint32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfGtSLL:
			if int32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) > int32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfGtULL:
			if uint32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) > uint32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfLeSLL:
			if int32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) <= int32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfLeULL:
			if uint32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) <= uint32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfGeSLL:
			if int32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) >= int32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}
		case iBrIfGeULL:
			if uint32(stack[int(fr.base)+int((ci.imm>>16)&0xFFFF)]) >= uint32(stack[int(fr.base)+int(ci.imm>>32)]) {
				hp := bh + int(ci.h)
				target := bh + int(ci.b)
				arity := int(ci.imm & 0xFFFF)
				copy(stack[target:target+arity], stack[hp-arity:hp])
				pc = int(ci.a)
			}

		case iMemorySize:
			stack[bh+int(ci.h)] = uint64(uint32(len(mem) / wasm.PageSize))
		case iMemoryGrow:
			i := bh + int(ci.h) - 1
			delta := uint32(stack[i])
			in.mem = mem
			res := in.growMemory(delta)
			mem = in.mem
			memLen = uint64(len(mem))
			stack[i] = uint64(uint32(res))

		// ------ memory access (low-byte wasm opcodes) ------
		case uint16(wasm.OpI32Load):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(binary.LittleEndian.Uint32(mem[a:]))
		case uint16(wasm.OpI64Load):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = binary.LittleEndian.Uint64(mem[a:])
		case uint16(wasm.OpF32Load):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(binary.LittleEndian.Uint32(mem[a:]))
		case uint16(wasm.OpF64Load):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = binary.LittleEndian.Uint64(mem[a:])
		case uint16(wasm.OpI32Load8S):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(uint32(int32(int8(mem[a]))))
		case uint16(wasm.OpI32Load8U):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(mem[a])
		case uint16(wasm.OpI32Load16S):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(uint32(int32(int16(binary.LittleEndian.Uint16(mem[a:])))))
		case uint16(wasm.OpI32Load16U):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(binary.LittleEndian.Uint16(mem[a:]))
		case uint16(wasm.OpI64Load8S):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(int64(int8(mem[a])))
		case uint16(wasm.OpI64Load8U):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(mem[a])
		case uint16(wasm.OpI64Load16S):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(int64(int16(binary.LittleEndian.Uint16(mem[a:]))))
		case uint16(wasm.OpI64Load16U):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(binary.LittleEndian.Uint16(mem[a:]))
		case uint16(wasm.OpI64Load32S):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(int64(int32(binary.LittleEndian.Uint32(mem[a:]))))
		case uint16(wasm.OpI64Load32U):
			i := bh + int(ci.h) - 1
			a := uint64(uint32(stack[i])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, i+1)
			}
			stack[i] = uint64(binary.LittleEndian.Uint32(mem[a:]))

		case uint16(wasm.OpI32Store):
			hp := bh + int(ci.h)
			v := uint32(stack[hp-1])
			a := uint64(uint32(stack[hp-2])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, hp)
			}
			if a+4 > dirty {
				dirty = a + 4
			}
			binary.LittleEndian.PutUint32(mem[a:], v)
		case uint16(wasm.OpI64Store):
			hp := bh + int(ci.h)
			v := stack[hp-1]
			a := uint64(uint32(stack[hp-2])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, hp)
			}
			if a+8 > dirty {
				dirty = a + 8
			}
			binary.LittleEndian.PutUint64(mem[a:], v)
		case uint16(wasm.OpF32Store):
			hp := bh + int(ci.h)
			v := uint32(stack[hp-1])
			a := uint64(uint32(stack[hp-2])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, hp)
			}
			if a+4 > dirty {
				dirty = a + 4
			}
			binary.LittleEndian.PutUint32(mem[a:], v)
		case uint16(wasm.OpF64Store):
			hp := bh + int(ci.h)
			v := stack[hp-1]
			a := uint64(uint32(stack[hp-2])) + ci.imm
			if explicit && a+8 > memLen {
				return fail(TrapMemOutOfBounds, hp)
			}
			if a+8 > dirty {
				dirty = a + 8
			}
			binary.LittleEndian.PutUint64(mem[a:], v)
		case uint16(wasm.OpI32Store8), uint16(wasm.OpI64Store8):
			hp := bh + int(ci.h)
			v := byte(stack[hp-1])
			a := uint64(uint32(stack[hp-2])) + ci.imm
			if explicit && a+1 > memLen {
				return fail(TrapMemOutOfBounds, hp)
			}
			if a+1 > dirty {
				dirty = a + 1
			}
			mem[a] = v
		case uint16(wasm.OpI32Store16), uint16(wasm.OpI64Store16):
			hp := bh + int(ci.h)
			v := uint16(stack[hp-1])
			a := uint64(uint32(stack[hp-2])) + ci.imm
			if explicit && a+2 > memLen {
				return fail(TrapMemOutOfBounds, hp)
			}
			if a+2 > dirty {
				dirty = a + 2
			}
			binary.LittleEndian.PutUint16(mem[a:], v)
		case uint16(wasm.OpI64Store32):
			hp := bh + int(ci.h)
			v := uint32(stack[hp-1])
			a := uint64(uint32(stack[hp-2])) + ci.imm
			if explicit && a+4 > memLen {
				return fail(TrapMemOutOfBounds, hp)
			}
			if a+4 > dirty {
				dirty = a + 4
			}
			binary.LittleEndian.PutUint32(mem[a:], v)

		// ------ i32 comparisons ------
		case uint16(wasm.OpI32Eqz):
			i := bh + int(ci.h) - 1
			stack[i] = b2u(uint32(stack[i]) == 0)
		case uint16(wasm.OpI32Eq):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(uint32(stack[i]) == uint32(stack[i+1]))
		case uint16(wasm.OpI32Ne):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(uint32(stack[i]) != uint32(stack[i+1]))
		case uint16(wasm.OpI32LtS):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(int32(stack[i]) < int32(stack[i+1]))
		case uint16(wasm.OpI32LtU):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(uint32(stack[i]) < uint32(stack[i+1]))
		case uint16(wasm.OpI32GtS):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(int32(stack[i]) > int32(stack[i+1]))
		case uint16(wasm.OpI32GtU):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(uint32(stack[i]) > uint32(stack[i+1]))
		case uint16(wasm.OpI32LeS):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(int32(stack[i]) <= int32(stack[i+1]))
		case uint16(wasm.OpI32LeU):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(uint32(stack[i]) <= uint32(stack[i+1]))
		case uint16(wasm.OpI32GeS):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(int32(stack[i]) >= int32(stack[i+1]))
		case uint16(wasm.OpI32GeU):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(uint32(stack[i]) >= uint32(stack[i+1]))

		// ------ i64 comparisons ------
		case uint16(wasm.OpI64Eqz):
			i := bh + int(ci.h) - 1
			stack[i] = b2u(stack[i] == 0)
		case uint16(wasm.OpI64Eq):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(stack[i] == stack[i+1])
		case uint16(wasm.OpI64Ne):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(stack[i] != stack[i+1])
		case uint16(wasm.OpI64LtS):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(int64(stack[i]) < int64(stack[i+1]))
		case uint16(wasm.OpI64LtU):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(stack[i] < stack[i+1])
		case uint16(wasm.OpI64GtS):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(int64(stack[i]) > int64(stack[i+1]))
		case uint16(wasm.OpI64GtU):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(stack[i] > stack[i+1])
		case uint16(wasm.OpI64LeS):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(int64(stack[i]) <= int64(stack[i+1]))
		case uint16(wasm.OpI64LeU):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(stack[i] <= stack[i+1])
		case uint16(wasm.OpI64GeS):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(int64(stack[i]) >= int64(stack[i+1]))
		case uint16(wasm.OpI64GeU):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(stack[i] >= stack[i+1])

		// ------ float comparisons ------
		case uint16(wasm.OpF32Eq):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f32(stack[i]) == f32(stack[i+1]))
		case uint16(wasm.OpF32Ne):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f32(stack[i]) != f32(stack[i+1]))
		case uint16(wasm.OpF32Lt):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f32(stack[i]) < f32(stack[i+1]))
		case uint16(wasm.OpF32Gt):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f32(stack[i]) > f32(stack[i+1]))
		case uint16(wasm.OpF32Le):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f32(stack[i]) <= f32(stack[i+1]))
		case uint16(wasm.OpF32Ge):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f32(stack[i]) >= f32(stack[i+1]))
		case uint16(wasm.OpF64Eq):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f64(stack[i]) == f64(stack[i+1]))
		case uint16(wasm.OpF64Ne):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f64(stack[i]) != f64(stack[i+1]))
		case uint16(wasm.OpF64Lt):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f64(stack[i]) < f64(stack[i+1]))
		case uint16(wasm.OpF64Gt):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f64(stack[i]) > f64(stack[i+1]))
		case uint16(wasm.OpF64Le):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f64(stack[i]) <= f64(stack[i+1]))
		case uint16(wasm.OpF64Ge):
			i := bh + int(ci.h) - 2
			stack[i] = b2u(f64(stack[i]) >= f64(stack[i+1]))

		// ------ i32 arithmetic ------
		case uint16(wasm.OpI32Clz):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(bits.LeadingZeros32(uint32(stack[i])))
		case uint16(wasm.OpI32Ctz):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(bits.TrailingZeros32(uint32(stack[i])))
		case uint16(wasm.OpI32Popcnt):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(bits.OnesCount32(uint32(stack[i])))
		case uint16(wasm.OpI32Add):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(stack[i]) + uint32(stack[i+1]))
		case uint16(wasm.OpI32Sub):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(stack[i]) - uint32(stack[i+1]))
		case uint16(wasm.OpI32Mul):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(stack[i]) * uint32(stack[i+1]))
		case uint16(wasm.OpI32DivS):
			i := bh + int(ci.h) - 2
			x, y := int32(stack[i]), int32(stack[i+1])
			if y == 0 {
				return fail(TrapDivByZero, i+2)
			}
			if x == math.MinInt32 && y == -1 {
				return fail(TrapIntOverflow, i+2)
			}
			stack[i] = uint64(uint32(x / y))
		case uint16(wasm.OpI32DivU):
			i := bh + int(ci.h) - 2
			x, y := uint32(stack[i]), uint32(stack[i+1])
			if y == 0 {
				return fail(TrapDivByZero, i+2)
			}
			stack[i] = uint64(x / y)
		case uint16(wasm.OpI32RemS):
			i := bh + int(ci.h) - 2
			x, y := int32(stack[i]), int32(stack[i+1])
			if y == 0 {
				return fail(TrapDivByZero, i+2)
			}
			if x == math.MinInt32 && y == -1 {
				stack[i] = 0
			} else {
				stack[i] = uint64(uint32(x % y))
			}
		case uint16(wasm.OpI32RemU):
			i := bh + int(ci.h) - 2
			x, y := uint32(stack[i]), uint32(stack[i+1])
			if y == 0 {
				return fail(TrapDivByZero, i+2)
			}
			stack[i] = uint64(x % y)
		case uint16(wasm.OpI32And):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(stack[i]) & uint32(stack[i+1]))
		case uint16(wasm.OpI32Or):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(stack[i]) | uint32(stack[i+1]))
		case uint16(wasm.OpI32Xor):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(stack[i]) ^ uint32(stack[i+1]))
		case uint16(wasm.OpI32Shl):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(stack[i]) << (uint32(stack[i+1]) & 31))
		case uint16(wasm.OpI32ShrS):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(int32(stack[i]) >> (uint32(stack[i+1]) & 31)))
		case uint16(wasm.OpI32ShrU):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(uint32(stack[i]) >> (uint32(stack[i+1]) & 31))
		case uint16(wasm.OpI32Rotl):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(bits.RotateLeft32(uint32(stack[i]), int(uint32(stack[i+1])&31)))
		case uint16(wasm.OpI32Rotr):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(bits.RotateLeft32(uint32(stack[i]), -int(uint32(stack[i+1])&31)))

		// ------ i64 arithmetic ------
		case uint16(wasm.OpI64Clz):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(bits.LeadingZeros64(stack[i]))
		case uint16(wasm.OpI64Ctz):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(bits.TrailingZeros64(stack[i]))
		case uint16(wasm.OpI64Popcnt):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(bits.OnesCount64(stack[i]))
		case uint16(wasm.OpI64Add):
			i := bh + int(ci.h) - 2
			stack[i] += stack[i+1]
		case uint16(wasm.OpI64Sub):
			i := bh + int(ci.h) - 2
			stack[i] -= stack[i+1]
		case uint16(wasm.OpI64Mul):
			i := bh + int(ci.h) - 2
			stack[i] *= stack[i+1]
		case uint16(wasm.OpI64DivS):
			i := bh + int(ci.h) - 2
			x, y := int64(stack[i]), int64(stack[i+1])
			if y == 0 {
				return fail(TrapDivByZero, i+2)
			}
			if x == math.MinInt64 && y == -1 {
				return fail(TrapIntOverflow, i+2)
			}
			stack[i] = uint64(x / y)
		case uint16(wasm.OpI64DivU):
			i := bh + int(ci.h) - 2
			if stack[i+1] == 0 {
				return fail(TrapDivByZero, i+2)
			}
			stack[i] /= stack[i+1]
		case uint16(wasm.OpI64RemS):
			i := bh + int(ci.h) - 2
			x, y := int64(stack[i]), int64(stack[i+1])
			if y == 0 {
				return fail(TrapDivByZero, i+2)
			}
			if x == math.MinInt64 && y == -1 {
				stack[i] = 0
			} else {
				stack[i] = uint64(x % y)
			}
		case uint16(wasm.OpI64RemU):
			i := bh + int(ci.h) - 2
			if stack[i+1] == 0 {
				return fail(TrapDivByZero, i+2)
			}
			stack[i] %= stack[i+1]
		case uint16(wasm.OpI64And):
			i := bh + int(ci.h) - 2
			stack[i] &= stack[i+1]
		case uint16(wasm.OpI64Or):
			i := bh + int(ci.h) - 2
			stack[i] |= stack[i+1]
		case uint16(wasm.OpI64Xor):
			i := bh + int(ci.h) - 2
			stack[i] ^= stack[i+1]
		case uint16(wasm.OpI64Shl):
			i := bh + int(ci.h) - 2
			stack[i] <<= stack[i+1] & 63
		case uint16(wasm.OpI64ShrS):
			i := bh + int(ci.h) - 2
			stack[i] = uint64(int64(stack[i]) >> (stack[i+1] & 63))
		case uint16(wasm.OpI64ShrU):
			i := bh + int(ci.h) - 2
			stack[i] >>= stack[i+1] & 63
		case uint16(wasm.OpI64Rotl):
			i := bh + int(ci.h) - 2
			stack[i] = bits.RotateLeft64(stack[i], int(stack[i+1]&63))
		case uint16(wasm.OpI64Rotr):
			i := bh + int(ci.h) - 2
			stack[i] = bits.RotateLeft64(stack[i], -int(stack[i+1]&63))

		// ------ f32 arithmetic ------
		case uint16(wasm.OpF32Abs):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(math.Abs(float64(f32(stack[i])))))
		case uint16(wasm.OpF32Neg):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(stack[i]) ^ 0x80000000)
		case uint16(wasm.OpF32Ceil):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(math.Ceil(float64(f32(stack[i])))))
		case uint16(wasm.OpF32Floor):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(math.Floor(float64(f32(stack[i])))))
		case uint16(wasm.OpF32Trunc):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(math.Trunc(float64(f32(stack[i])))))
		case uint16(wasm.OpF32Nearest):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(math.RoundToEven(float64(f32(stack[i])))))
		case uint16(wasm.OpF32Sqrt):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(math.Sqrt(float64(f32(stack[i])))))
		case uint16(wasm.OpF32Add):
			i := bh + int(ci.h) - 2
			stack[i] = u32f(f32(stack[i]) + f32(stack[i+1]))
		case uint16(wasm.OpF32Sub):
			i := bh + int(ci.h) - 2
			stack[i] = u32f(f32(stack[i]) - f32(stack[i+1]))
		case uint16(wasm.OpF32Mul):
			i := bh + int(ci.h) - 2
			stack[i] = u32f(f32(stack[i]) * f32(stack[i+1]))
		case uint16(wasm.OpF32Div):
			i := bh + int(ci.h) - 2
			stack[i] = u32f(f32(stack[i]) / f32(stack[i+1]))
		case uint16(wasm.OpF32Min):
			i := bh + int(ci.h) - 2
			stack[i] = u32f(float32(math.Min(float64(f32(stack[i])), float64(f32(stack[i+1])))))
		case uint16(wasm.OpF32Max):
			i := bh + int(ci.h) - 2
			stack[i] = u32f(float32(math.Max(float64(f32(stack[i])), float64(f32(stack[i+1])))))
		case uint16(wasm.OpF32Copysign):
			i := bh + int(ci.h) - 2
			stack[i] = u32f(float32(math.Copysign(float64(f32(stack[i])), float64(f32(stack[i+1])))))

		// ------ f64 arithmetic ------
		case uint16(wasm.OpF64Abs):
			i := bh + int(ci.h) - 1
			stack[i] &= 0x7FFFFFFFFFFFFFFF
		case uint16(wasm.OpF64Neg):
			i := bh + int(ci.h) - 1
			stack[i] ^= 0x8000000000000000
		case uint16(wasm.OpF64Ceil):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(math.Ceil(f64(stack[i])))
		case uint16(wasm.OpF64Floor):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(math.Floor(f64(stack[i])))
		case uint16(wasm.OpF64Trunc):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(math.Trunc(f64(stack[i])))
		case uint16(wasm.OpF64Nearest):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(math.RoundToEven(f64(stack[i])))
		case uint16(wasm.OpF64Sqrt):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(math.Sqrt(f64(stack[i])))
		case uint16(wasm.OpF64Add):
			i := bh + int(ci.h) - 2
			stack[i] = uf64(f64(stack[i]) + f64(stack[i+1]))
		case uint16(wasm.OpF64Sub):
			i := bh + int(ci.h) - 2
			stack[i] = uf64(f64(stack[i]) - f64(stack[i+1]))
		case uint16(wasm.OpF64Mul):
			i := bh + int(ci.h) - 2
			stack[i] = uf64(f64(stack[i]) * f64(stack[i+1]))
		case uint16(wasm.OpF64Div):
			i := bh + int(ci.h) - 2
			stack[i] = uf64(f64(stack[i]) / f64(stack[i+1]))
		case uint16(wasm.OpF64Min):
			i := bh + int(ci.h) - 2
			stack[i] = uf64(math.Min(f64(stack[i]), f64(stack[i+1])))
		case uint16(wasm.OpF64Max):
			i := bh + int(ci.h) - 2
			stack[i] = uf64(math.Max(f64(stack[i]), f64(stack[i+1])))
		case uint16(wasm.OpF64Copysign):
			i := bh + int(ci.h) - 2
			stack[i] = uf64(math.Copysign(f64(stack[i]), f64(stack[i+1])))

		// ------ conversions ------
		case uint16(wasm.OpI32WrapI64):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(stack[i]))
		case uint16(wasm.OpI32TruncF32S):
			i := bh + int(ci.h) - 1
			v, code := truncS32(float64(f32(stack[i])))
			if code != 0 {
				return fail(code, i+1)
			}
			stack[i] = v
		case uint16(wasm.OpI32TruncF32U):
			i := bh + int(ci.h) - 1
			v, code := truncU32(float64(f32(stack[i])))
			if code != 0 {
				return fail(code, i+1)
			}
			stack[i] = v
		case uint16(wasm.OpI32TruncF64S):
			i := bh + int(ci.h) - 1
			v, code := truncS32(f64(stack[i]))
			if code != 0 {
				return fail(code, i+1)
			}
			stack[i] = v
		case uint16(wasm.OpI32TruncF64U):
			i := bh + int(ci.h) - 1
			v, code := truncU32(f64(stack[i]))
			if code != 0 {
				return fail(code, i+1)
			}
			stack[i] = v
		case uint16(wasm.OpI64ExtendI32S):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(int64(int32(stack[i])))
		case uint16(wasm.OpI64ExtendI32U):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(stack[i]))
		case uint16(wasm.OpI64TruncF32S):
			i := bh + int(ci.h) - 1
			v, code := truncS64(float64(f32(stack[i])))
			if code != 0 {
				return fail(code, i+1)
			}
			stack[i] = v
		case uint16(wasm.OpI64TruncF32U):
			i := bh + int(ci.h) - 1
			v, code := truncU64(float64(f32(stack[i])))
			if code != 0 {
				return fail(code, i+1)
			}
			stack[i] = v
		case uint16(wasm.OpI64TruncF64S):
			i := bh + int(ci.h) - 1
			v, code := truncS64(f64(stack[i]))
			if code != 0 {
				return fail(code, i+1)
			}
			stack[i] = v
		case uint16(wasm.OpI64TruncF64U):
			i := bh + int(ci.h) - 1
			v, code := truncU64(f64(stack[i]))
			if code != 0 {
				return fail(code, i+1)
			}
			stack[i] = v
		case uint16(wasm.OpF32ConvertI32S):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(int32(stack[i])))
		case uint16(wasm.OpF32ConvertI32U):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(uint32(stack[i])))
		case uint16(wasm.OpF32ConvertI64S):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(int64(stack[i])))
		case uint16(wasm.OpF32ConvertI64U):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(stack[i]))
		case uint16(wasm.OpF32DemoteF64):
			i := bh + int(ci.h) - 1
			stack[i] = u32f(float32(f64(stack[i])))
		case uint16(wasm.OpF64ConvertI32S):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(float64(int32(stack[i])))
		case uint16(wasm.OpF64ConvertI32U):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(float64(uint32(stack[i])))
		case uint16(wasm.OpF64ConvertI64S):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(float64(int64(stack[i])))
		case uint16(wasm.OpF64ConvertI64U):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(float64(stack[i]))
		case uint16(wasm.OpF64PromoteF32):
			i := bh + int(ci.h) - 1
			stack[i] = uf64(float64(f32(stack[i])))
		case uint16(wasm.OpI32ReinterpretF32), uint16(wasm.OpF32ReinterpretI32):
			// bit-identical in the raw representation
		case uint16(wasm.OpI64ReinterpretF64), uint16(wasm.OpF64ReinterpretI64):
			// bit-identical in the raw representation
		case uint16(wasm.OpI32Extend8S):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(int32(int8(stack[i]))))
		case uint16(wasm.OpI32Extend16S):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(uint32(int32(int16(stack[i]))))
		case uint16(wasm.OpI64Extend8S):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(int64(int8(stack[i])))
		case uint16(wasm.OpI64Extend16S):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(int64(int16(stack[i])))
		case uint16(wasm.OpI64Extend32S):
			i := bh + int(ci.h) - 1
			stack[i] = uint64(int64(int32(stack[i])))

		default:
			return fail(TrapUnreachable, bh)
		}
	}
}
