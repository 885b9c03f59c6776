package engine

import (
	"math"
	"testing"
	"testing/quick"

	"sledge/internal/wasm"
)

// hasOp reports whether any instruction in the module's lowered code uses op.
func hasOp(cm *CompiledModule, op uint16) bool {
	for i := range cm.funcs {
		for _, ci := range cm.funcs[i].code {
			if ci.op == op {
				return true
			}
		}
	}
	return false
}

// TestRegallocRewrites pins the register-form peephole: the default config
// must actually produce the three-address opcodes for their source idioms
// (the counterpart of TestFusionEmitsSuperinstructions, which pins the
// lowerer's peephole). Each case also executes and checks the result, on
// the register loop and on the naive per-instruction oracle, so a rewrite
// that emits the opcode but computes the wrong value still fails.
func TestRegallocRewrites(t *testing.T) {
	i32 := wasm.ValI32
	cases := []struct {
		name    string
		fn      fnDef
		args    []uint64
		want    uint64
		wantOp  uint16
		gone    uint16 // opcode that must NOT survive (0 = no constraint)
		wantNot bool   // if set, wantOp must be absent instead of present
	}{
		{
			// local.get 0; (local.get 1; i32.add)=AddSL  ->  iI32AddLL
			name: "add-ll",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Add},
				},
			},
			args: []uint64{40, 2}, want: 42, wantOp: iI32AddLL, gone: iI32AddSL,
		},
		{
			name: "sub-ll",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Sub},
				},
			},
			args: []uint64{50, 8}, want: 42, wantOp: iI32SubLL, gone: iI32SubSL,
		},
		{
			name: "f64-mul-ll",
			fn: fnDef{
				name: "f", params: []wasm.ValType{wasm.ValF64, wasm.ValF64},
				results: []wasm.ValType{wasm.ValF64},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpF64Mul},
				},
			},
			args: []uint64{math.Float64bits(6), math.Float64bits(7)},
			want: math.Float64bits(42), wantOp: iF64MulLL, gone: iF64MulSL,
		},
		{
			// (a+b) * 5: the const multiplier has a non-local left operand,
			// so it becomes the scaled form iI32MulSC.
			name: "mul-sc",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Add},
					{Op: wasm.OpI32Const, Imm: 5},
					{Op: wasm.OpI32Mul},
				},
			},
			args: []uint64{3, 4}, want: 35, wantOp: iI32MulSC,
		},
		{
			// const 7; local.set 1  ->  iMovCL
			name: "mov-cl",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
				locals: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpI32Const, Imm: 7},
					{Op: wasm.OpLocalSet, Imm: 1},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Add},
				},
			},
			args: []uint64{35}, want: 42, wantOp: iMovCL,
		},
		{
			// local.get 0; local.set 1  ->  iMovLL
			name: "mov-ll",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
				locals: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalSet, Imm: 1},
					{Op: wasm.OpLocalGet, Imm: 1},
				},
			},
			args: []uint64{42}, want: 42, wantOp: iMovLL,
		},
		{
			// local.get 0; br_if  ->  iBrIfL
			name: "brif-l",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpBrIf, Imm: 0},
					{Op: wasm.OpI32Const, Imm: 0},
					{Op: wasm.OpReturn},
					{Op: wasm.OpEnd},
					{Op: wasm.OpI32Const, Imm: 1},
				},
			},
			args: []uint64{9}, want: 1, wantOp: iBrIfL,
		},
		{
			// local.get 0; local.get 1; i32.lt_s; br_if  ->  iBrIfLtSLL
			name: "cmp-brif-lts-ll",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32LtS},
					{Op: wasm.OpBrIf, Imm: 0},
					{Op: wasm.OpI32Const, Imm: 0},
					{Op: wasm.OpReturn},
					{Op: wasm.OpEnd},
					{Op: wasm.OpI32Const, Imm: 1},
				},
			},
			args: []uint64{3, 5}, want: 1, wantOp: iBrIfLtSLL, gone: iBrIfLtS,
		},
		{
			name: "cmp-brif-eq-ll",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Eq},
					{Op: wasm.OpBrIf, Imm: 0},
					{Op: wasm.OpI32Const, Imm: 0},
					{Op: wasm.OpReturn},
					{Op: wasm.OpEnd},
					{Op: wasm.OpI32Const, Imm: 1},
				},
			},
			args: []uint64{33, 33}, want: 1, wantOp: iBrIfEqLL, gone: iBrIfEq,
		},
		{
			// An explicit drop compiles to nothing in register form.
			name: "drop-deleted",
			fn: fnDef{
				name: "f", results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpI32Const, Imm: 42},
					{Op: wasm.OpI32Const, Imm: 7},
					{Op: wasm.OpDrop},
				},
			},
			want: 42, wantOp: iDrop, wantNot: true,
		},
	}
	for _, tc := range cases {
		m := buildModule(t, 0, tc.fn)
		cm := mustCompile(t, m, Config{})
		if tc.wantNot {
			if hasOp(cm, tc.wantOp) {
				t.Errorf("%s: opcode %d should have been eliminated", tc.name, tc.wantOp)
			}
		} else if !hasOp(cm, tc.wantOp) {
			t.Errorf("%s: register opcode %d not emitted", tc.name, tc.wantOp)
		}
		if tc.gone != 0 && hasOp(cm, tc.gone) {
			t.Errorf("%s: unfused opcode %d survived regalloc", tc.name, tc.gone)
		}
		if got := invoke(t, cm, "f", tc.args...); got != tc.want {
			t.Errorf("%s: got %#x, want %#x", tc.name, got, tc.want)
		}
		// The oracle must agree on the same program.
		om := mustCompile(t, buildModule(t, 0, tc.fn), Config{Tier: TierNaive, NoBlockMeter: true})
		if got := invoke(t, om, "f", tc.args...); got != tc.want {
			t.Errorf("%s [naive oracle]: got %#x, want %#x", tc.name, got, tc.want)
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
// compare-and-branch headers — it exercises iBrIf*LL, Mov*, *LL arithmetic,
// and the call/return register windows.
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
