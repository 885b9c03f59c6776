package engine

import (
	"fmt"

	"sledge/internal/wasm"
)

// Register allocation for the optimized tier.
//
// After validation the operand-stack height at every program point is a
// static constant, so the "operand stack" of a frame is really a fixed set
// of virtual registers living in the frame's uint64 slab: register r is
// stack[base+nLocals+r], and the locals below it are registers too. This
// pass recomputes that height for every lowered instruction and stores it
// in the instruction word (cinstr.h, a padding hole — the IR stays 24
// bytes/instr), which lets runRegister (vm_regs.go) address every operand
// as base+nLocals+h-k with zero sp bookkeeping: no push/pop traffic, no
// serial sp data dependency between dispatches.
//
// With heights explicit, a second peephole (beyond compile.go's stack-form
// fusion) rewrites the dominant remaining shapes into genuine three-address
// register ops:
//
//	local.get x; local.get y; br_if(cmp)  ->  iBrIf*LL   (loop headers)
//	local.get x; <op>SL y                 ->  i*LL       (reg[h] = x op y)
//	const c; i32.mul                      ->  iI32MulSC  (reg[h-1] *= c)
//	const c; local.set x                  ->  iMovCL
//	local.get x; local.set y              ->  iMovLL
//	drop                                  ->  (deleted: height is static)
//
// Fusion only applies when the interior instructions are not branch
// targets; deleted/fused slots are healed by remapping every branch target
// (and br_table entry) through an old->new pc map.
//
// Resumability needs no operand stack pointer either: registers live in
// the slab that save() snapshots, and at every yield/block point the
// pass-computed height is materialized into Instance.sp for preemption,
// host blocking, and ResumeHost.
//
// The pass is total by contract. Its input, the lowerer's stack-form
// stream, exists only between lowerFunc and here; its output is the only
// form runRegister executes, so an inconsistency is a Compile error.

// stackEffect returns how many operands ci pops and pushes, and whether it
// ends straight-line flow. Call arities are resolved against the compiled
// module. The pass runs on pure stack-form IR, so register-form opcodes are
// rejected.
func stackEffect(cm *CompiledModule, ci *cinstr) (npop, npush int32, terminal bool, err error) {
	switch ci.op {
	case iNop, iBoundsCheck, iMPXCheck, iIncLocal, iGasCharge:
		return 0, 0, false, nil
	case iUnreachable:
		return 0, 0, true, nil
	case iBr:
		return int32(ci.imm), 0, true, nil
	case iBrIf, iBrIfNot:
		return 1, 0, false, nil
	case iBrIfEq, iBrIfNe, iBrIfLtS, iBrIfLtU, iBrIfGtS,
		iBrIfGtU, iBrIfLeS, iBrIfLeU, iBrIfGeS, iBrIfGeU:
		return 2, 0, false, nil
	case iBrTable:
		return 1, 0, true, nil
	case iReturn:
		return int32(ci.imm), 0, true, nil
	case iCall:
		f := &cm.funcs[ci.a]
		return int32(f.nParams), int32(f.numResults), false, nil
	case iCallHost:
		hb := &cm.hostFuncs[ci.a]
		return int32(len(hb.ft.Params)), ci.b, false, nil
	case iCallIndirect:
		return 1 + ci.b, int32(ci.imm & 0xFFFF), false, nil
	case iCallDevirt:
		return 1 + int32((ci.imm>>16)&0xFFFF), int32(ci.imm & 0xFFFF), false, nil
	case iConst, iLocalGet, iGlobalGet, iMemorySize,
		iI32AddLC, iI32MulLC, iI32LoadL, iF64LoadL, iI32LoadC, iF64LoadC:
		return 0, 1, false, nil
	case iLocalSet, iGlobalSet, iDrop, iI32StoreC, iI32StoreL, iF64StoreL:
		return 1, 0, false, nil
	case iLocalTee, iMemoryGrow,
		iI32AddSL, iI32MulSL, iI32SubSL, iI32AddSC, iF64AddSL, iF64MulSL, iF64SubSL:
		return 1, 1, false, nil
	case iSelect:
		return 3, 1, false, nil
	}
	if ci.op < 0x100 {
		op := wasm.Opcode(ci.op)
		if _, _, store, ok := wasm.MemOpShape(op); ok {
			if store {
				return 2, 0, false, nil
			}
			return 1, 1, false, nil
		}
		if sig, _, ok := wasm.NumericSig(op); ok {
			return int32(len(sig)), 1, false, nil
		}
	}
	return 0, 0, false, fmt.Errorf("no stack effect for opcode %#x", ci.op)
}

// branchTargetHeights records, for every branch-target pc in cf, the static
// operand height control arrives with (the kept height plus the moved
// result arity). Conflicting heights would mean the lowered IR is not
// height-consistent and abort the pass.
func branchTargetHeights(cf *compiledFunc) ([]int32, error) {
	n := len(cf.code)
	tgt := make([]int32, n+1)
	for i := range tgt {
		tgt[i] = -1
	}
	set := func(pc, h int32) error {
		if int(pc) < 0 || int(pc) >= n {
			return fmt.Errorf("branch target %d out of range", pc)
		}
		if tgt[pc] >= 0 && tgt[pc] != h {
			return fmt.Errorf("branch target %d with conflicting heights %d and %d", pc, tgt[pc], h)
		}
		tgt[pc] = h
		return nil
	}
	for i := range cf.code {
		ci := &cf.code[i]
		switch ci.op {
		case iBr, iBrIf, iBrIfNot,
			iBrIfEq, iBrIfNe, iBrIfLtS, iBrIfLtU, iBrIfGtS,
			iBrIfGtU, iBrIfLeS, iBrIfLeU, iBrIfGeS, iBrIfGeU:
			if err := set(ci.a, ci.b+int32(ci.imm)); err != nil {
				return nil, err
			}
		case iBrTable:
			for _, e := range cf.brTables[ci.a] {
				if err := set(e.pc, e.height+e.arity); err != nil {
					return nil, err
				}
			}
		}
	}
	return tgt, nil
}

// regallocFunc rewrites cf.code in place to register form: every
// instruction gets its static operand height, and (when fuse is set) the
// three-address peephole above runs. Accumulates into cm.regallocStats.
func regallocFunc(cm *CompiledModule, cf *compiledFunc, fuse bool) error {
	code := cf.code
	n := len(code)
	if n == 0 {
		return nil
	}
	tgt, err := branchTargetHeights(cf)
	if err != nil {
		return err
	}

	// Forward height dataflow. Lowered code is straight-line except at
	// recorded targets, so a single pass suffices: after a terminal
	// instruction the height is unknown until the next branch target.
	// Unreachable instructions (the implicit iReturn after a terminal is
	// the common case) never execute; they get their minimum legal height
	// so slice arithmetic stays in range.
	hgt := make([]int32, n)
	reach := make([]bool, n)
	h := int32(0)
	known := true
	for i := 0; i < n; i++ {
		if tgt[i] >= 0 {
			if known && h != tgt[i] {
				return fmt.Errorf("pc %d: fall-through height %d != target height %d", i, h, tgt[i])
			}
			h = tgt[i]
			known = true
		}
		npop, npush, term, err := stackEffect(cm, &code[i])
		if err != nil {
			return fmt.Errorf("pc %d: %w", i, err)
		}
		if !known {
			hgt[i] = npop
			continue
		}
		reach[i] = true
		hgt[i] = h
		if h < npop {
			return fmt.Errorf("pc %d: height %d underflows pop %d", i, h, npop)
		}
		h += npush - npop
		if int(h) > cf.maxStack {
			return fmt.Errorf("pc %d: height %d exceeds maxStack %d", i, h, cf.maxStack)
		}
		if term {
			known = false
		}
	}

	// Rewrite: annotate heights, fuse, delete drops, build the pc remap.
	st := &cm.regallocStats
	out := make([]cinstr, 0, n)
	remap := make([]int32, n+1)
	localOK := func(l int32) bool { return l >= 0 && l < 1<<15 }
	i := 0
	for i < n {
		remap[i] = int32(len(out))
		ci := code[i]
		ci.h = hgt[i]
		if fuse && reach[i] && ci.op == iLocalGet {
			// local.get x; local.get y; cmp-br  ->  iBrIf*LL
			if i+2 < n && code[i+1].op == iLocalGet &&
				code[i+2].op >= iBrIfEq && code[i+2].op <= iBrIfGeU &&
				tgt[i+1] < 0 && tgt[i+2] < 0 &&
				localOK(ci.a) && localOK(code[i+1].a) && code[i+2].imm < 1<<16 {
				br := code[i+2]
				remap[i+1] = int32(len(out))
				remap[i+2] = int32(len(out))
				out = append(out, cinstr{
					op:  br.op - iBrIfEq + iBrIfEqLL,
					a:   br.a,
					b:   br.b,
					h:   hgt[i],
					imm: br.imm | uint64(uint32(ci.a))<<16 | uint64(uint32(code[i+1].a))<<32,
				})
				st.BranchFused++
				i += 3
				continue
			}
			if i+1 < n && tgt[i+1] < 0 {
				next := code[i+1]
				// local.get x; br_if / br_if_not  ->  iBrIfL / iBrIfNotL
				if (next.op == iBrIf || next.op == iBrIfNot) &&
					localOK(ci.a) && next.imm < 1<<16 {
					op := iBrIfL
					if next.op == iBrIfNot {
						op = iBrIfNotL
					}
					remap[i+1] = int32(len(out))
					out = append(out, cinstr{
						op:  op,
						a:   next.a,
						b:   next.b,
						h:   hgt[i],
						imm: next.imm | uint64(uint32(ci.a))<<16,
					})
					st.BranchFused++
					i += 2
					continue
				}
				// local.get x; <op>SL y  ->  <op>LL (reg[h] = x op y)
				if ll, ok := sl2ll(next.op); ok {
					remap[i+1] = int32(len(out))
					out = append(out, cinstr{op: ll, a: ci.a, b: next.a, h: hgt[i]})
					st.ThreeAddressFused++
					i += 2
					continue
				}
				// local.get x; local.set y  ->  iMovLL
				if next.op == iLocalSet {
					remap[i+1] = int32(len(out))
					out = append(out, cinstr{op: iMovLL, a: next.a, b: ci.a, h: hgt[i]})
					st.ThreeAddressFused++
					i += 2
					continue
				}
			}
		}
		if fuse && reach[i] && ci.op == iConst && i+1 < n && tgt[i+1] < 0 {
			switch code[i+1].op {
			case uint16(wasm.OpI32Mul):
				// const c; i32.mul  ->  iI32MulSC (reg[h-1] *= c)
				remap[i+1] = int32(len(out))
				out = append(out, cinstr{op: iI32MulSC, h: hgt[i], imm: ci.imm})
				st.ThreeAddressFused++
				i += 2
				continue
			case iLocalSet:
				// const c; local.set x  ->  iMovCL
				remap[i+1] = int32(len(out))
				out = append(out, cinstr{op: iMovCL, a: code[i+1].a, h: hgt[i], imm: ci.imm})
				st.ThreeAddressFused++
				i += 2
				continue
			}
		}
		if fuse && reach[i] && ci.op == iDrop {
			// In register form a drop is pure height bookkeeping: the
			// heights downstream already account for it, so it compiles to
			// nothing. Branches landing on the drop land on its successor
			// (the slots they kept are below the dropped one either way).
			st.DropsEliminated++
			i++
			continue
		}
		out = append(out, ci)
		i++
	}
	remap[n] = int32(len(out))

	// Heal branch targets through the remap.
	for j := range out {
		switch out[j].op {
		case iBr, iBrIf, iBrIfNot, iBrIfL, iBrIfNotL,
			iBrIfEq, iBrIfNe, iBrIfLtS, iBrIfLtU, iBrIfGtS,
			iBrIfGtU, iBrIfLeS, iBrIfLeU, iBrIfGeS, iBrIfGeU,
			iBrIfEqLL, iBrIfNeLL, iBrIfLtSLL, iBrIfLtULL, iBrIfGtSLL,
			iBrIfGtULL, iBrIfLeSLL, iBrIfLeULL, iBrIfGeSLL, iBrIfGeULL:
			out[j].a = remap[out[j].a]
		}
	}
	for ti := range cf.brTables {
		for ei := range cf.brTables[ti] {
			cf.brTables[ti][ei].pc = remap[cf.brTables[ti][ei].pc]
		}
	}
	cf.code = out
	return nil
}

// sl2ll maps a stack-form "top op= local" superinstruction to its
// three-address register form "reg[h] = local op local".
func sl2ll(op uint16) (uint16, bool) {
	switch op {
	case iI32AddSL:
		return iI32AddLL, true
	case iI32SubSL:
		return iI32SubLL, true
	case iI32MulSL:
		return iI32MulLL, true
	case iF64AddSL:
		return iF64AddLL, true
	case iF64SubSL:
		return iF64SubLL, true
	case iF64MulSL:
		return iF64MulLL, true
	}
	return 0, false
}
