package engine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sledge/internal/wasm"
)

// TestRegallocRewrites pins the register form instruction by instruction:
// for each source idiom, the exact code the default config lowers it to —
// which operands were named where they already were, which results went
// straight to their local, what still had to be moved. Each case also
// executes, on the register loop with and without forwarding and on the
// naive per-instruction oracle, so a rewrite that emits the right shape
// but computes the wrong value still fails.
func TestRegallocRewrites(t *testing.T) {
	if len(opNames) != int(iOpLimit-iUnreachable) {
		t.Fatalf("opNames has %d entries for %d internal opcodes", len(opNames), iOpLimit-iUnreachable)
	}
	i32 := wasm.ValI32
	get := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpLocalGet, Imm: l} }
	set := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpLocalSet, Imm: l} }
	tee := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpLocalTee, Imm: l} }
	konst := func(v uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpI32Const, Imm: v} }
	op := func(o wasm.Opcode) wasm.Instr { return wasm.Instr{Op: o} }
	block := wasm.Instr{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)}
	brIf0 := wasm.Instr{Op: wasm.OpBrIf, Imm: 0}
	// guard wraps a condition: f returns 1 when the br_if is taken, else 0.
	guard := func(cond ...wasm.Instr) []wasm.Instr {
		body := append([]wasm.Instr{block}, cond...)
		return append(body, brIf0, konst(0), op(wasm.OpReturn), op(wasm.OpEnd), konst(1))
	}
	carry := []wasm.Instr{
		{Op: wasm.OpBlock, Imm: uint64(wasm.ValI32)},
		konst(7), get(0), get(1), brIf0,
		op(wasm.OpDrop), op(wasm.OpDrop), konst(5), op(wasm.OpEnd),
	}
	cases := []struct {
		name   string
		params int // i32 parameters
		locals int // further i32 locals
		mem    uint32
		body   []wasm.Instr
		args   []uint64
		want   uint64
		code   []string
	}{
		{
			// Both operands are locals: named in place, nothing moved.
			name: "add-locals", params: 2,
			body: []wasm.Instr{get(0), get(1), op(wasm.OpI32Add)},
			args: []uint64{40, 2}, want: 42,
			code: []string{"charge", "i32.add 2 0 1 0", "return 0 2 0 1"},
		},
		{
			// A computed left operand stays in its operand register; the
			// constant right operands ride as immediates (sub as add of -c).
			name: "imm-chain", params: 2,
			body: []wasm.Instr{get(0), get(1), op(wasm.OpI32Sub), konst(5), op(wasm.OpI32Mul), konst(3), op(wasm.OpI32Sub)},
			args: []uint64{9, 2}, want: 32,
			code: []string{"charge", "i32.sub 2 0 1 0", "i32.mul_i 2 2 0 5", "i32.add_i 2 2 0 4294967293", "return 0 2 0 1"},
		},
		{
			// x = x + 1 is one instruction whose destination is its source.
			name: "inc-local", params: 1,
			body: []wasm.Instr{get(0), konst(1), op(wasm.OpI32Add), set(0), get(0)},
			args: []uint64{41}, want: 42,
			code: []string{"charge", "i32.add_i 0 0 0 1", "return 0 0 0 1"},
		},
		{
			// A constant and a local reach a local with one move each.
			name: "moves", params: 1, locals: 2,
			body: []wasm.Instr{konst(7), set(1), get(0), set(2), get(1), get(2), op(wasm.OpI32Add)},
			args: []uint64{35}, want: 42,
			code: []string{"charge", "const 1 0 0 7", "mov 2 0 0 0", "i32.add 3 1 2 0", "return 0 3 0 1"},
		},
		{
			// A pending read of x must see the old x: it is moved out
			// before the forwarded destination overwrites x.
			name: "read-across-write", params: 1,
			body: []wasm.Instr{get(0), get(0), konst(1), op(wasm.OpI32Add), set(0), get(0), op(wasm.OpI32Add)},
			args: []uint64{20}, want: 41,
			code: []string{"charge", "mov 1 0 0 0", "i32.add_i 0 0 0 1", "i32.add 1 1 0 0", "return 0 1 0 1"},
		},
		{
			// local.tee after a producer: written in place and still on
			// the stack, as a pending read of that local.
			name: "tee-forward", params: 2,
			body: []wasm.Instr{get(0), get(1), op(wasm.OpI32Mul), tee(1), get(0), op(wasm.OpI32Add)},
			args: []uint64{6, 6}, want: 42,
			code: []string{"charge", "i32.mul 1 0 1 0", "i32.add 2 1 0 0", "return 0 2 0 1"},
		},
		{
			// Both edges of a conditional branch pay the charge they lead
			// to: the one it falls into is not emitted, the one it
			// targets (pc 4) stays but is skipped — the branch lands at 5.
			name: "branch-on-local", params: 1,
			body: guard(get(0)), args: []uint64{9}, want: 1,
			code: []string{"charge", "br_if 1 5 0 0 +taken +fall", "const 1 0 0 0", "return 0 1 0 1", "charge", "const 1 0 0 1", "return 0 1 0 1"},
		},
		{
			name: "branch-on-eqz", params: 1,
			body: guard(get(0), op(wasm.OpI32Eqz)), args: []uint64{9}, want: 0,
			code: []string{"charge", "br_if_not 1 5 0 0 +taken +fall", "const 1 0 0 0", "return 0 1 0 1", "charge", "const 1 0 0 1", "return 0 1 0 1"},
		},
		{
			name: "cmp-branch-locals", params: 2,
			body: guard(get(0), get(1), op(wasm.OpI32LtS)), args: []uint64{3, 5}, want: 1,
			code: []string{"charge", "br_if_lt_s 1 5 0 0 +taken +fall", "const 2 0 0 0", "return 0 2 0 1", "charge", "const 2 0 0 1", "return 0 2 0 1"},
		},
		{
			// The loop-header shape: local against constant.
			name: "cmp-branch-imm", params: 1,
			body: guard(get(0), konst(5), op(wasm.OpI32GeU)), args: []uint64{5}, want: 1,
			code: []string{"charge", "br_if_ge_u_i 0 5 0 5 +taken +fall", "const 1 0 0 0", "return 0 1 0 1", "charge", "const 1 0 0 1", "return 0 1 0 1"},
		},
		{
			// Constant on the left: operands swap, the comparison mirrors.
			name: "cmp-branch-imm-left", params: 1,
			body: guard(konst(5), get(0), op(wasm.OpI32LtS)), args: []uint64{9}, want: 1,
			code: []string{"charge", "br_if_gt_s_i 0 5 0 5 +taken +fall", "const 1 0 0 0", "return 0 1 0 1", "charge", "const 1 0 0 1", "return 0 1 0 1"},
		},
		{
			// cmp; i32.eqz; br_if branches on the inverse.
			name: "cmp-branch-inverted", params: 2,
			body: guard(get(0), get(1), op(wasm.OpI32LtU), op(wasm.OpI32Eqz)), args: []uint64{3, 5}, want: 0,
			code: []string{"charge", "br_if_ge_u 1 5 0 0 +taken +fall", "const 2 0 0 0", "return 0 2 0 1", "charge", "const 2 0 0 1", "return 0 2 0 1"},
		},
		{
			// `if` skips its body when the comparison fails: the inverse
			// again, and the arms' results meet in one canonical slot.
			name: "cmp-if", params: 2,
			body: []wasm.Instr{
				get(0), get(1), op(wasm.OpI32Eq),
				{Op: wasm.OpIf, Imm: uint64(wasm.ValI32)}, konst(10),
				op(wasm.OpElse), konst(20), op(wasm.OpEnd),
			},
			args: []uint64{4, 4}, want: 10,
			code: []string{"charge", "br_if_ne 1 5 0 0 +taken +fall", "const 2 0 0 10", "br 2 6 2 0", "charge", "const 2 0 0 20", "return 0 2 0 1"},
		},
		{
			// Loaded straight into a local from an address in a local; the
			// stored constant has no immediate form and is moved.
			name: "load-store", params: 1, locals: 1, mem: 1,
			body: []wasm.Instr{
				get(0), konst(42), op(wasm.OpI32Store),
				get(0), op(wasm.OpI32Load), set(1), get(1),
			},
			args: []uint64{64}, want: 42,
			code: []string{"charge", "const 3 0 0 42", "i32.store 0 0 3 0", "i32.load 1 0 0 0", "return 0 1 0 1"},
		},
		{
			// x*5 is not emitted until the add takes it: one instruction.
			name: "mul-add", params: 2,
			body: []wasm.Instr{get(0), konst(5), op(wasm.OpI32Mul), get(1), op(wasm.OpI32Add)},
			args: []uint64{8, 2}, want: 42,
			code: []string{"charge", "i32.mul_add_i 2 0 1 5", "return 0 2 0 1"},
		},
		{
			// Likewise a+b, taken by a second add or by a byte load's
			// address.
			name: "add3", params: 2,
			body: []wasm.Instr{get(0), get(1), op(wasm.OpI32Add), get(0), op(wasm.OpI32Add)},
			args: []uint64{20, 2}, want: 42,
			code: []string{"charge", "i32.add3 2 0 1 0", "return 0 2 0 1"},
		},
		{
			name: "indexed-byte-load", params: 2, mem: 1,
			body: []wasm.Instr{
				konst(65), konst(42), op(wasm.OpI32Store8),
				get(0), get(1), op(wasm.OpI32Add), op(wasm.OpI32Load8U),
			},
			args: []uint64{64, 1}, want: 42,
			code: []string{"charge", "const 2 0 0 65", "const 3 0 0 42", "i32.store8 0 2 3 0", "i32.load8_u_x 2 0 1 0", "return 0 2 0 1"},
		},
		{
			// Constant on the left: the pending product names the slot
			// above its own, so the next push computes it first.
			name: "product-before-push", params: 2,
			body: []wasm.Instr{
				konst(5), get(0), get(1), op(wasm.OpI32Xor), op(wasm.OpI32Mul),
				get(0), get(1), op(wasm.OpI32And), op(wasm.OpI32Add),
			},
			args: []uint64{12, 4}, want: 44,
			code: []string{"charge", "i32.xor 3 0 1 0", "i32.mul_i 2 3 0 5", "i32.and 3 0 1 0", "i32.add 2 2 3 0", "return 0 2 0 1"},
		},
		{
			// A br_if carrying its value from one slot up: the taken edge
			// moves it (arity 1) from directly below the condition, which
			// is therefore moved to its canonical slot; everything below
			// it is materialised first. Falling through pays the charge
			// that followed, which is not emitted.
			name: "carry-moves-taken", params: 2,
			body: carry, args: []uint64{42, 1}, want: 42,
			code: []string{"charge", "const 2 0 0 7", "mov 3 0 0 0", "mov 4 1 0 0", "br_if 2 6 4 1 +fall", "const 2 0 0 5", "return 0 2 0 1"},
		},
		{
			name: "carry-moves-fallthrough", params: 2,
			body: carry, args: []uint64{42, 0}, want: 5,
			code: []string{"charge", "const 2 0 0 7", "mov 3 0 0 0", "mov 4 1 0 0", "br_if 2 6 4 1 +fall", "const 2 0 0 5", "return 0 2 0 1"},
		},
		{
			// The same branch with the value already where the label
			// wants it: arity 0 in the instruction, nothing is touched.
			name: "carry-in-place", params: 2,
			body: []wasm.Instr{
				{Op: wasm.OpBlock, Imm: uint64(wasm.ValI32)},
				get(0), get(1), brIf0, op(wasm.OpDrop), konst(5), op(wasm.OpEnd),
			},
			args: []uint64{42, 1}, want: 42,
			code: []string{"charge", "mov 2 0 0 0", "br_if 2 4 1 0 +fall", "const 2 0 0 5", "return 0 2 0 1"},
		},
		{
			// A counted loop. The header charge (pc 1) is dispatched once,
			// on the way in; the back-edge pays it and lands at 2, the
			// exit test pays the body's charge when it falls through and
			// the exit's (pc 6) when it leaves.
			name: "counted-loop", params: 1, locals: 2,
			body: []wasm.Instr{
				block, {Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
				get(1), get(0), op(wasm.OpI32GeS), {Op: wasm.OpBrIf, Imm: 1},
				get(2), get(1), op(wasm.OpI32Add), set(2),
				get(1), konst(1), op(wasm.OpI32Add), set(1),
				{Op: wasm.OpBr, Imm: 0},
				op(wasm.OpEnd), op(wasm.OpEnd), get(2),
			},
			args: []uint64{10}, want: 45,
			code: []string{
				"charge", "charge", "br_if_ge_s 0 7 1 0 +taken +fall",
				"i32.add 2 2 1 0", "i32.add_i 1 1 0 1", "br 3 2 3 0 +taken",
				"charge", "return 0 2 0 1",
			},
		},
		{
			// An `if` without else: skipping the arm pays the merge's
			// charge on the taken edge; the arm's own charge rides on the
			// fall-through; the merge charge stays for the arm to fall
			// into.
			name: "if-no-else", params: 2, locals: 1,
			body: []wasm.Instr{
				get(0), get(1), op(wasm.OpI32Eq),
				{Op: wasm.OpIf, Imm: uint64(wasm.BlockTypeEmpty)},
				get(2), konst(1), op(wasm.OpI32Add), set(2),
				op(wasm.OpEnd), get(2),
			},
			args: []uint64{4, 4}, want: 1,
			code: []string{"charge", "br_if_ne 1 4 0 0 +taken +fall", "i32.add_i 2 2 0 1", "charge", "return 0 2 0 1"},
		},
		{
			// A drop is height bookkeeping; a dropped constant never
			// existed.
			name: "drop", body: []wasm.Instr{konst(42), konst(7), op(wasm.OpDrop)},
			want: 42,
			code: []string{"charge", "const 0 0 0 42", "return 0 0 0 1"},
		},
	}
	for _, tc := range cases {
		fn := fnDef{name: "f", results: []wasm.ValType{i32}, body: tc.body}
		for i := 0; i < tc.params; i++ {
			fn.params = append(fn.params, i32)
		}
		for i := 0; i < tc.locals; i++ {
			fn.locals = append(fn.locals, i32)
		}
		cm := mustCompile(t, buildModule(t, tc.mem, fn), Config{})
		got := cm.Listing("f")
		if strings.Join(got, "\n") != strings.Join(tc.code, "\n") {
			t.Errorf("%s: lowered to\n\t%s\nwant\n\t%s", tc.name,
				strings.Join(got, "\n\t"), strings.Join(tc.code, "\n\t"))
		}
		for _, cfg := range []Config{{}, {NoFusion: true}, {Tier: TierNaive, NoBlockMeter: true}} {
			cm := mustCompile(t, buildModule(t, tc.mem, fn), cfg)
			if got := invoke(t, cm, "f", tc.args...); got != tc.want {
				t.Errorf("%s [%s nofusion=%v]: got %#x, want %#x", tc.name, cfg.Tier, cfg.NoFusion, got, tc.want)
			}
		}
	}
}

// singleStepInvoke runs an export one instruction at a time: Run(fuel=1) in a
// loop, so the instance yields and resumes at every single instruction
// boundary. Any divergence from a straight Invoke means some instruction's
// save/restore of the register frame is broken.
func singleStepInvoke(t *testing.T, cm *CompiledModule, name string, args ...uint64) (uint64, error) {
	t.Helper()
	in := cm.Instantiate()
	if err := in.Start(name, args...); err != nil {
		t.Fatalf("Start(%s): %v", name, err)
	}
	for steps := 0; ; steps++ {
		if steps > 2_000_000 {
			t.Fatalf("%s: single-step run did not terminate", name)
		}
		st, err := in.Run(1)
		switch st {
		case StatusYielded:
			continue
		case StatusDone:
			return in.Result()
		case StatusTrapped:
			return 0, err
		default:
			t.Fatalf("%s: unexpected status %v (err %v)", name, st, err)
		}
	}
}

// TestRegisterSingleStepConformance re-runs the numeric conformance sweep on
// the register tier with fuel=1 — every instruction boundary becomes a
// preemption point. Results and traps must match the naive tier's
// applyNumericOp reference exactly, which proves the register file (the
// frame slab) carries all live state across yields.
func TestRegisterSingleStepConformance(t *testing.T) {
	operands := []uint64{
		0, 1, 31, 0xFF,
		uint64(uint32(1) << 31),
		0xFFFFFFFF,
		uint64(1) << 63,
		^uint64(0),
		math.Float64bits(1.5),
		math.Float64bits(-2.25),
		math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)),
		uint64(math.Float32bits(3.5)),
		uint64(math.Float32bits(float32(math.NaN()))),
	}
	maskFor := func(vt wasm.ValType) uint64 {
		if vt == wasm.ValI32 || vt == wasm.ValF32 {
			return 0xFFFFFFFF
		}
		return ^uint64(0)
	}
	isNaNBits := func(vt wasm.ValType, bits uint64) bool {
		switch vt {
		case wasm.ValF32:
			return math.IsNaN(float64(math.Float32frombits(uint32(bits))))
		case wasm.ValF64:
			return math.IsNaN(math.Float64frombits(bits))
		}
		return false
	}

	checked := 0
	for b := 0; b < 256; b++ {
		op := wasm.Opcode(b)
		in, out, ok := wasm.NumericSig(op)
		if !ok {
			continue
		}
		m := wasm.NewModule()
		m.Types = []wasm.FuncType{{Params: in, Results: []wasm.ValType{out}}}
		body := make([]wasm.Instr, 0, len(in)+1)
		for i := range in {
			body = append(body, wasm.Instr{Op: wasm.OpLocalGet, Imm: uint64(i)})
		}
		body = append(body, wasm.Instr{Op: op})
		m.Funcs = []wasm.Func{{TypeIdx: 0, Body: body, Name: "op"}}
		m.Exports = []wasm.Export{{Name: "op", Kind: wasm.ExternFunc, Index: 0}}
		cm := mustCompile(t, m, Config{NoFusion: true})

		runCase := func(args []uint64) {
			t.Helper()
			ref := make([]uint64, len(args))
			copy(ref, args)
			_, refTrap := applyNumericOp(op, ref, len(ref))

			got, err := singleStepInvoke(t, cm, "op", args...)
			if refTrap != 0 {
				if err == nil {
					t.Errorf("%s(%x): reference traps (%v), single-step returned %#x", op, args, refTrap, got)
				}
				return
			}
			if err != nil {
				t.Errorf("%s(%x): single-step trapped (%v), reference returned %#x", op, args, err, ref[0])
				return
			}
			if isNaNBits(out, ref[0]) && isNaNBits(out, got) {
				return
			}
			if got != ref[0] {
				t.Errorf("%s(%x) = %#x single-step, want %#x", op, args, got, ref[0])
			}
		}

		switch len(in) {
		case 1:
			for _, a := range operands {
				runCase([]uint64{a & maskFor(in[0])})
				checked++
			}
		case 2:
			for _, a := range operands {
				for _, c := range operands {
					runCase([]uint64{a & maskFor(in[0]), c & maskFor(in[1])})
					checked++
				}
			}
		}
	}
	if checked < 2000 {
		t.Errorf("single-step sweep only covered %d cases", checked)
	}
	t.Logf("single-step conformance sweep: %d cases", checked)
}

// TestRegisterSingleStepMemory single-steps every load/store opcode on the
// register tier and cross-checks against naiveMemAccess.
func TestRegisterSingleStepMemory(t *testing.T) {
	pattern := make([]byte, wasm.PageSize)
	for i := range pattern {
		pattern[i] = byte(i*31 + 7)
	}
	addrs := []uint64{0, 3, 127, wasm.PageSize - 16}
	value := uint64(0xDEADBEEFCAFEF00D)

	for b := 0; b < 256; b++ {
		op := wasm.Opcode(b)
		vt, width, store, ok := wasm.MemOpShape(op)
		if !ok {
			continue
		}
		m := wasm.NewModule()
		m.Memories = []wasm.Limits{{Min: 1}}
		if store {
			m.Types = []wasm.FuncType{{Params: []wasm.ValType{wasm.ValI32, vt}}}
			m.Funcs = []wasm.Func{{TypeIdx: 0, Body: []wasm.Instr{
				{Op: wasm.OpLocalGet, Imm: 0},
				{Op: wasm.OpLocalGet, Imm: 1},
				{Op: op},
			}, Name: "op"}}
		} else {
			m.Types = []wasm.FuncType{{Params: []wasm.ValType{wasm.ValI32}, Results: []wasm.ValType{vt}}}
			m.Funcs = []wasm.Func{{TypeIdx: 0, Body: []wasm.Instr{
				{Op: wasm.OpLocalGet, Imm: 0},
				{Op: op},
			}, Name: "op"}}
		}
		m.Exports = []wasm.Export{{Name: "op", Kind: wasm.ExternFunc, Index: 0}}
		cm := mustCompile(t, m, Config{NoFusion: true})

		for _, addr := range addrs {
			if addr+uint64(width) > wasm.PageSize {
				continue
			}
			refMem := append([]byte(nil), pattern...)
			var refStack []uint64
			if store {
				refStack = []uint64{addr, value}
			} else {
				refStack = []uint64{addr}
			}
			refStack, refErr := naiveMemAccess(refMem, op, 0, refStack)
			if refErr != nil {
				t.Fatalf("%s: reference error: %v", op, refErr)
			}

			inst := cm.Instantiate()
			copy(inst.Memory(), pattern)
			args := []uint64{addr}
			if store {
				args = append(args, value)
			}
			if err := inst.Start("op", args...); err != nil {
				t.Fatalf("%s(%d): Start: %v", op, addr, err)
			}
			for {
				st, err := inst.Run(1)
				if st == StatusYielded {
					continue
				}
				if st != StatusDone {
					t.Fatalf("%s(%d): status %v, err %v", op, addr, st, err)
				}
				break
			}
			if store {
				if string(inst.Memory()) != string(refMem) {
					t.Errorf("%s(%d): single-step memory diverged from reference", op, addr)
				}
			} else if got, _ := inst.Result(); got != refStack[0] {
				t.Errorf("%s(%d) = %#x single-step, want %#x", op, addr, got, refStack[0])
			}
		}
	}
}

// preemptModule is a register-heavy kernel for the preemption property test:
// a counted loop with memory stores, loads, a helper call, and fused
// compare-and-branch headers — it exercises forwarded operands and
// destinations, the immediate and multiply-add forms, and the call/return
// register windows.
func preemptModule(t *testing.T, cfg Config) *CompiledModule {
	t.Helper()
	i32 := wasm.ValI32
	helper := fnDef{
		name: "twist", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
		body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Add},
		},
	}
	main := fnDef{
		name: "f", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
		locals: []wasm.ValType{i32, i32}, // i, acc
		body: []wasm.Instr{
			// for (i = 0; i < (n & 63); i++) {
			//   mem[i*4] = twist(i, acc);
			//   acc = acc + mem[i*4] - i;
			// }
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 63},
			{Op: wasm.OpI32And},
			{Op: wasm.OpLocalSet, Imm: 0},
			{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32GeS},
			{Op: wasm.OpBrIf, Imm: 1},
			// mem[i*4] = twist(i, acc)
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Const, Imm: 4},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 2},
			{Op: wasm.OpCall, Imm: 0}, // twist
			{Op: wasm.OpI32Store},
			// acc = acc + mem[i*4] - i
			{Op: wasm.OpLocalGet, Imm: 2},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Const, Imm: 4},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpI32Load},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Sub},
			{Op: wasm.OpLocalSet, Imm: 2},
			// i++
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalSet, Imm: 1},
			{Op: wasm.OpBr, Imm: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
			{Op: wasm.OpLocalGet, Imm: 2},
		},
	}
	return mustCompile(t, buildModule(t, 1, helper, main), cfg)
}

// TestRegisterPreemptEveryBoundaryProperty is the preemption property for
// register form: running a kernel uninterrupted, single-stepped (fuel=1),
// and under a random small quantum must produce the identical result and
// charge the identical gas. Under block metering fuel=1 yields at every
// charge point (each Run slice crosses at most one charge, honoring the
// MaxUncharged bound); this pins that a yield can land on every such
// boundary — including loop headers, between a fused compare-and-branch
// and its successor, and across call frames — without perturbing the
// register file or double-charging a region.
func TestRegisterPreemptEveryBoundaryProperty(t *testing.T) {
	for _, cfg := range []Config{{}, {Bounds: BoundsSoftware}} {
		cm := preemptModule(t, cfg)
		check := func(n uint32, quantum uint8) bool {
			// Uninterrupted reference run.
			ref := cm.Instantiate()
			want, err := ref.Invoke("f", uint64(n))
			if err != nil {
				t.Logf("f(%d): uninterrupted run trapped: %v", n, err)
				return false
			}
			wantGas := ref.Gas

			for _, fuel := range []int64{1, int64(quantum%7) + 2} {
				in := cm.Instantiate()
				if err := in.Start("f", uint64(n)); err != nil {
					t.Logf("Start: %v", err)
					return false
				}
				for {
					st, err := in.Run(fuel)
					if st == StatusYielded {
						continue
					}
					if st != StatusDone {
						t.Logf("f(%d) fuel=%d: status %v, err %v", n, fuel, st, err)
						return false
					}
					break
				}
				got, err := in.Result()
				if err != nil || got != want {
					t.Logf("f(%d) fuel=%d = %#x (%v), want %#x", n, fuel, got, err, want)
					return false
				}
				if in.Gas != wantGas {
					t.Logf("f(%d) fuel=%d charged %d gas, uninterrupted charged %d",
						n, fuel, in.Gas, wantGas)
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", cfg.Bounds, err)
		}
	}
}

// TestLoweringRejectsMalformedBodies gives the one-pass lowering bodies
// validation never lets through, straight, with no validation in front. Each
// must come back as an error — Compile's error, by the pass's contract —
// never as a panic or as code that runs off a table, with and without
// fusion, and where nothing reaches the fault as well as where it is live.
func TestLoweringRejectsMalformedBodies(t *testing.T) {
	op := func(o wasm.Opcode, imm uint64) wasm.Instr { return wasm.Instr{Op: o, Imm: imm} }
	empty := uint64(wasm.BlockTypeEmpty)
	// unreached opens a block that returns and closes it: nothing leads to
	// what follows, which is still lowered for its heights and labels.
	unreached := []wasm.Instr{op(wasm.OpBlock, empty), op(wasm.OpReturn, 0), op(wasm.OpEnd, 0)}
	for name, body := range map[string][]wasm.Instr{
		"label out of range":            {op(wasm.OpBr, 1)},
		"label out of range, unreached": append(unreached[:3:3], op(wasm.OpI32Const, 0), op(wasm.OpBrIf, 3)),
		"operand stack underflow":       {op(wasm.OpI32Const, 1), op(wasm.OpI32Add, 0)},
		"underflow, unreached":          append(unreached[:3:3], op(wasm.OpDrop, 0)),
		"height mismatch at end":        {op(wasm.OpBlock, empty), op(wasm.OpI32Const, 1), op(wasm.OpEnd, 0)},
		"falls off the end":             {op(wasm.OpBlock, empty), op(wasm.OpNop, 0)},
		"instruction past the end":      {op(wasm.OpEnd, 0), op(wasm.OpNop, 0)},
		"else without if":               {op(wasm.OpBlock, empty), op(wasm.OpElse, 0), op(wasm.OpEnd, 0)},
		"opcode with no register form":  {op(0xFF, 0)},
		"no register form, unreached":   append(unreached[:3:3], op(0xFF, 0)),
	} {
		for _, fuse := range []bool{true, false} {
			m := &wasm.Module{Types: []wasm.FuncType{{}}, Funcs: []wasm.Func{{Body: body}}}
			cm := &CompiledModule{cfg: Config{}.withDefaults()}
			cf := &compiledFunc{}
			ra := &regalloc{cm: cm, m: m, fuse: fuse, thread: fuse}
			if err := ra.run(cf, &m.Funcs[0], make([]uint32, len(body)), 0); err == nil {
				t.Errorf("%s (fuse %v): accepted, lowered to %v", name, fuse, cf.code)
			} else {
				t.Logf("%s (fuse %v): %v", name, fuse, err)
			}
		}
	}
}
