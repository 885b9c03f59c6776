package corpus

import (
	"math"

	"sledge/internal/wasm"
)

// HazardSeedModule is hand-built from the shapes on which operand
// forwarding in the register lowering (internal/engine/regalloc.go) could
// go wrong: a local read that is still pending when that local is written
// (by local.set, local.tee, a forwarded destination, with the read buried in
// a pending multiply or sum); pending operands live across block, loop and
// if boundaries, a br_if that carries a value, br_table, return and select;
// pending arguments at call, call_indirect (the table index too) and a host
// call; an unemitted sum below a callee's frame; constant addresses into
// checked accesses; and the forms only this module reaches — every
// compare-and-branch against a constant, the indexed byte load, an
// `unreachable` that control can reach. A second group holds the shapes on
// which a branch that pays the charge at its destination could go wrong: a
// br_if and a br that move a value down into a charged merge, if/else arms
// of different cost that can each trap, a br_table whose targets start
// regions of distinct cost, a br_if that falls into a loop (the charge
// holding the `loop`, then the header's), and a header reached both by
// falling in and by a back-edge. Every function is exported under its own
// name, (i32) -> i32; main(x) sums them, except oob and arms, which trap.
//
// It seeds the differential fuzzer and feeds the lowering-totality test and
// the lowering golden but is deliberately not part of Modules: the analysis
// golden pins what existed before it.
func HazardSeedModule() *wasm.Module {
	const (
		tUn  = iota // (i32) -> i32
		tBin        // (i32, i32) -> i32
		tNul        // () -> i32
		tPow        // (f64, f64) -> f64
	)
	i32, f64 := wasm.ValI32, wasm.ValF64
	empty, resI32 := uint64(wasm.BlockTypeEmpty), uint64(wasm.ValI32)
	get := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpLocalGet, Imm: l} }
	set := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpLocalSet, Imm: l} }
	tee := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpLocalTee, Imm: l} }
	konst := func(v uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpI32Const, Imm: v} }
	op := func(o wasm.Opcode) wasm.Instr { return wasm.Instr{Op: o} }
	call := func(f uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpCall, Imm: f} }
	block := func(bt uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpBlock, Imm: bt} }
	brIf := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpBrIf, Imm: l} }
	add, end := op(wasm.OpI32Add), op(wasm.OpEnd)

	m := wasm.NewModule()
	m.Types = []wasm.FuncType{
		{Params: []wasm.ValType{i32}, Results: []wasm.ValType{i32}},
		{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}},
		{Results: []wasm.ValType{i32}},
		{Params: []wasm.ValType{f64, f64}, Results: []wasm.ValType{f64}},
	}
	m.Imports = []wasm.Import{{Module: "math", Name: "pow", Kind: wasm.ExternFunc, TypeIdx: tPow}}
	m.Memories = []wasm.Limits{{Min: 1, Max: 1, HasMax: true}}
	m.Tables = []wasm.Limits{{Min: 2, Max: 2, HasMax: true}}

	// Function indices: the import is 0, helpers follow, then the hazards.
	const (
		fPow = iota
		fPack
		fSeven
		fFirst // first hazard function
	)
	m.Elems = []wasm.ElemSegment{{Offset: konst(0), FuncIndices: []uint32{fPack, fPack}}}
	funcs := []wasm.Func{
		// pack(a, b) = a*8 + b tells its arguments apart.
		{TypeIdx: tBin, Name: "pack", Body: []wasm.Instr{get(0), konst(8), op(wasm.OpI32Mul), get(1), add}},
		{TypeIdx: tNul, Name: "seven", Body: []wasm.Instr{konst(7)}},
	}
	hazard := func(name string, locals []wasm.ValType, body ...wasm.Instr) {
		funcs = append(funcs, wasm.Func{TypeIdx: tUn, Name: name, Locals: locals, Body: body})
	}

	// A read of x pending while x is written: each must add the OLD x.
	hazard("rw_set", nil, get(0), get(0), konst(1), add, set(0), get(0), add)
	hazard("rw_tee", nil, get(0), get(0), konst(1), add, tee(0), add)
	hazard("rw_dst", nil, get(0), get(0), get(0), op(wasm.OpI32Mul), set(0), get(0), add)
	hazard("rw_mul", nil, get(0), konst(3), op(wasm.OpI32Mul), get(0), konst(1), add, set(0), get(0), add)
	hazard("rw_sum", nil, get(0), get(0), add, konst(7), set(0), get(0), add)
	hazard("rw_self", nil, get(0), konst(5), op(wasm.OpI32Mul), set(0), get(0), get(0), add, tee(0), get(0), add)
	// A constant on the left of a multiply: the pending product names the
	// slot above its own, which the next push would take.
	hazard("mul_left", nil,
		konst(5), get(0), konst(2), op(wasm.OpI32Xor), op(wasm.OpI32Mul),
		get(0), konst(1), op(wasm.OpI32Xor), add)

	// Pending operands across structured control flow. across_block: a
	// br_if that carries a value out (taken when x is odd), past a write to
	// the local the entry below the block still reads.
	hazard("across_block", nil,
		get(0),
		block(resI32),
		get(0), konst(1), add, set(0),
		get(0), konst(3), add,
		get(0), konst(1), op(wasm.OpI32And),
		brIf(0),
		op(wasm.OpDrop),
		get(0), konst(100), add,
		end,
		add)
	hazard("across_if", nil,
		get(0),
		get(0), konst(2), op(wasm.OpI32And),
		wasm.Instr{Op: wasm.OpIf, Imm: resI32},
		get(0), konst(1), add, tee(0),
		op(wasm.OpElse),
		konst(7),
		end,
		add)
	hazard("across_loop", []wasm.ValType{i32},
		get(0),
		wasm.Instr{Op: wasm.OpLoop, Imm: empty},
		get(1), konst(1), add, tee(1), konst(3), op(wasm.OpI32LtU), brIf(0),
		end,
		get(1), add)
	// nested_carry: a value carried two levels out by br_if, with another
	// pending below it; falls through when x & 3 == 0.
	hazard("nested_carry", nil,
		get(0),
		block(resI32),
		block(empty),
		get(0), konst(9), add,
		get(0), konst(3), op(wasm.OpI32And),
		brIf(1),
		op(wasm.OpDrop),
		end,
		konst(1000),
		end,
		add)
	brt := wasm.Func{TypeIdx: tUn, Name: "br_table", Locals: []wasm.ValType{i32, i32}}
	brt.Body = []wasm.Instr{
		get(0), konst(3), op(wasm.OpI32And), set(1),
		get(0),
		block(empty), block(empty), block(empty),
		get(1),
		wasm.MakeBrTable(&brt.BrLabels, []uint32{0, 1}, 2),
		end,
		get(2), konst(10), add, set(2),
		end,
		get(2), konst(20), add, set(2),
		end,
		get(2), add,
	}
	funcs = append(funcs, brt)
	hazard("ret", nil,
		get(0), konst(1), op(wasm.OpI32And),
		wasm.Instr{Op: wasm.OpIf, Imm: empty},
		get(0), konst(9), add, op(wasm.OpReturn),
		end,
		get(0), op(wasm.OpReturn))
	hazard("sel", []wasm.ValType{i32},
		konst(40), set(1),
		get(0), get(1), get(0), konst(1), op(wasm.OpI32And), op(wasm.OpSelect),
		konst(77), get(0), get(1), op(wasm.OpSelect),
		add)

	// Pending arguments, with a pending operand below them that survives
	// the call; an unemitted sum right under a callee's frame.
	hazard("call_args", nil,
		get(0),
		get(0), konst(5), call(fPack),
		add,
		get(0), konst(1), op(wasm.OpI32Xor), get(0), konst(2), op(wasm.OpI32Xor), add,
		call(fSeven),
		add, add)
	hazard("call_indirect", []wasm.ValType{i32},
		get(0), konst(1), op(wasm.OpI32And), set(1),
		get(0), konst(4), get(1), wasm.Instr{Op: wasm.OpCallIndirect, Imm: tBin},
		konst(6), get(0), get(0), konst(1), op(wasm.OpI32And), wasm.Instr{Op: wasm.OpCallIndirect, Imm: tBin},
		add)
	hazard("host", []wasm.ValType{f64},
		get(0), konst(7), op(wasm.OpI32And), op(wasm.OpF64ConvertI32S), set(1),
		get(0),
		get(1), wasm.Instr{Op: wasm.OpF64Const, Imm: math.Float64bits(2)}, call(fPow),
		op(wasm.OpI32TruncF64S),
		add)

	// Constant addresses and values into checked accesses; an address that
	// is an unemitted sum of two locals (the indexed byte load).
	hazard("addr", []wasm.ValType{i32, i32},
		konst(64), get(0), wasm.Instr{Op: wasm.OpI32Store, Imm2: 2},
		konst(72), konst(9), op(wasm.OpI32Store8),
		konst(60), wasm.Instr{Op: wasm.OpI32Load, Imm: 4, Imm2: 2},
		konst(72), op(wasm.OpI32Load8U),
		add,
		konst(64), set(1), get(0), konst(3), op(wasm.OpI32And), set(2),
		get(1), get(2), add, op(wasm.OpI32Load8U),
		add)
	hazard("oob", nil, konst(65532), wasm.Instr{Op: wasm.OpI32Load, Imm: 8, Imm2: 2})

	// Every i32 comparison against a constant, on either side, guarding a
	// bump; then an unreachable that x = 0x7fffffff reaches.
	cmpi := wasm.Func{TypeIdx: tUn, Name: "cmp_imm", Locals: []wasm.ValType{i32}}
	for i, cmp := range []wasm.Opcode{
		wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS,
		wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
	} {
		k := uint64(1) << uint(i)
		cmpi.Body = append(cmpi.Body,
			block(empty), get(0), konst(8), op(cmp), brIf(0),
			get(1), konst(k), add, set(1), end,
			block(empty), konst(0xFFFFFFF0), get(0), op(cmp), brIf(0),
			get(1), konst(k<<10), add, set(1), end)
	}
	cmpi.Body = append(cmpi.Body, get(1))
	funcs = append(funcs, cmpi)
	hazard("unreach", nil,
		get(0), konst(0x7FFFFFFF), op(wasm.OpI32Eq),
		wasm.Instr{Op: wasm.OpIf, Imm: empty}, op(wasm.OpUnreachable), end,
		konst(1))

	// Branches that pay the charge they lead to. carry_merge: a br_if (x
	// odd) moves the top of two values down into the block's result slot,
	// and the merge it lands on starts a charged region.
	hazard("carry_merge", nil,
		block(resI32),
		konst(7), get(0), konst(3), add,
		get(0), konst(1), op(wasm.OpI32And),
		brIf(0),
		op(wasm.OpDrop), op(wasm.OpDrop), konst(5),
		end,
		get(0), add)
	// carry_br: the same move made by an unconditional br, from inside an if.
	hazard("carry_br", nil,
		block(resI32),
		konst(11), get(0), konst(5), op(wasm.OpI32Mul),
		get(0), konst(1), op(wasm.OpI32And),
		wasm.Instr{Op: wasm.OpIf, Imm: empty},
		get(0), konst(2), add, wasm.Instr{Op: wasm.OpBr, Imm: 1},
		end,
		add,
		end,
		get(0), add)
	// arms: bit 0 of x picks the arm, bit 1 makes it trap — an unreachable
	// in the short arm, a load past the only page in the long one — so gas
	// at the trap is compared on both edges of the if.
	hazard("arms", nil,
		get(0), konst(1), op(wasm.OpI32And),
		wasm.Instr{Op: wasm.OpIf, Imm: resI32},
		get(0), konst(2), op(wasm.OpI32And),
		wasm.Instr{Op: wasm.OpIf, Imm: empty}, op(wasm.OpUnreachable), end,
		get(0), konst(1), add,
		op(wasm.OpElse),
		get(0), konst(2), op(wasm.OpI32And), konst(15), op(wasm.OpI32Shl),
		get(0), konst(3), op(wasm.OpI32Mul), konst(255), op(wasm.OpI32And), add,
		op(wasm.OpI32Load8U),
		get(0), add, konst(9), op(wasm.OpI32Xor),
		end,
		konst(1), add)
	brc := wasm.Func{TypeIdx: tUn, Name: "brt_costs", Locals: []wasm.ValType{i32}}
	brc.Body = []wasm.Instr{
		block(empty), block(empty), block(empty),
		get(0), konst(3), op(wasm.OpI32And),
		wasm.MakeBrTable(&brc.BrLabels, []uint32{0, 1}, 2),
		end,
		get(1), konst(1), add, set(1),
		end,
		get(1), konst(2), add, konst(3), op(wasm.OpI32Mul), set(1),
		end,
		get(1), get(0), add, konst(5), op(wasm.OpI32Mul), get(0), op(wasm.OpI32Xor), set(1),
		get(1),
	}
	funcs = append(funcs, brc)
	// fall_loop: skipped when x & 7 == 0; otherwise the br_if falls into a
	// loop whose back-edge is itself a conditional branch.
	hazard("fall_loop", []wasm.ValType{i32},
		block(empty),
		get(0), konst(7), op(wasm.OpI32And), op(wasm.OpI32Eqz), brIf(0),
		wasm.Instr{Op: wasm.OpLoop, Imm: empty},
		get(1), konst(1), add, tee(1),
		get(0), konst(7), op(wasm.OpI32And), op(wasm.OpI32LtU), brIf(0),
		end,
		end,
		get(1), konst(100), add)
	// back_edge: the counted loop — its header is entered from above once
	// and by the br at the bottom x & 15 times.
	hazard("back_edge", []wasm.ValType{i32, i32},
		block(empty),
		wasm.Instr{Op: wasm.OpLoop, Imm: empty},
		get(1), get(0), konst(15), op(wasm.OpI32And), op(wasm.OpI32GeU), brIf(1),
		get(2), get(1), add, set(2),
		get(1), konst(1), add, set(1),
		wasm.Instr{Op: wasm.OpBr, Imm: 0},
		end,
		end,
		get(2))

	main := wasm.Func{TypeIdx: tUn, Name: "main", Locals: []wasm.ValType{i32}}
	for i, f := range funcs[fFirst-1:] {
		if f.Name != "oob" && f.Name != "arms" {
			main.Body = append(main.Body, get(0), call(uint64(fFirst+i)), get(1), add, set(1))
		}
	}
	main.Body = append(main.Body, get(1))
	funcs = append(funcs, main)

	m.Funcs = funcs
	for i, f := range funcs {
		m.Exports = append(m.Exports, wasm.Export{Name: f.Name, Kind: wasm.ExternFunc, Index: uint32(fPack + i)})
	}
	return m
}
