package engine

import (
	"math"
	"testing"

	"sledge/internal/wasm"
)

// TestNumericOpcodeConformance sweeps every numeric, comparison, and
// conversion opcode in the instruction set and cross-checks the optimized
// tier's inline dispatch against the naive tier's table-driven
// applyNumericOp over a grid of edge-case operands. The two implementations
// are independent code paths, so agreement (including trap-for-trap) is a
// real conformance signal.
func TestNumericOpcodeConformance(t *testing.T) {
	operands := []uint64{
		0, 1, 2, 31, 32, 63, 64, 0xFF,
		uint64(uint32(1) << 31),                // i32 min / high bit
		0xFFFFFFFF,                             // i32 -1
		uint64(1) << 63,                        // i64 min
		^uint64(0),                             // i64 -1
		math.Float64bits(0),                    // +0.0
		math.Float64bits(math.Copysign(0, -1)), // -0.0
		math.Float64bits(1.5),
		math.Float64bits(-2.25),
		math.Float64bits(1e300),
		math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		uint64(math.Float32bits(3.5)),
		uint64(math.Float32bits(float32(math.NaN()))),
		uint64(math.Float32bits(float32(math.Inf(-1)))),
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
		// Build a module exporting exactly this operation.
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
			// Reference: the naive tier's shared numeric evaluator.
			ref := make([]uint64, len(args))
			copy(ref, args)
			_, refTrap := applyNumericOp(op, ref, len(ref))

			inst := cm.Instantiate()
			got, err := inst.Invoke("op", args...)
			if refTrap != 0 {
				if err == nil {
					t.Errorf("%s(%x): reference traps (%v), VM returned %#x", op, args, refTrap, got)
				}
				return
			}
			if err != nil {
				t.Errorf("%s(%x): VM trapped (%v), reference returned %#x", op, args, err, ref[0])
				return
			}
			want := ref[0]
			if isNaNBits(out, want) && isNaNBits(out, got) {
				return // NaN payloads may differ
			}
			if got != want {
				t.Errorf("%s(%x) = %#x, want %#x", op, args, got, want)
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
	if checked < 5000 {
		t.Errorf("conformance sweep only covered %d cases", checked)
	}
	t.Logf("conformance sweep: %d op/operand cases", checked)
}

// TestMemoryOpcodeConformance cross-checks every load/store opcode in the
// optimized tier against the naive tier's independent naiveMemAccess over
// aligned, unaligned, and boundary addresses.
func TestMemoryOpcodeConformance(t *testing.T) {
	pattern := make([]byte, wasm.PageSize)
	for i := range pattern {
		pattern[i] = byte(i*31 + 7)
	}
	addrs := []uint64{0, 1, 3, 8, 127, 1024, wasm.PageSize - 16}
	value := uint64(0xDEADBEEFCAFEF00D)

	checked := 0
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
			// Reference via naiveMemAccess on a private copy.
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
			var got uint64
			var err error
			if store {
				_, err = inst.Invoke("op", addr, value)
			} else {
				got, err = inst.Invoke("op", addr)
			}
			if err != nil {
				t.Fatalf("%s(%d): %v", op, addr, err)
			}
			if store {
				if string(inst.Memory()) != string(refMem) {
					t.Errorf("%s(%d): memory diverged from reference", op, addr)
				}
			} else if got != refStack[0] {
				t.Errorf("%s(%d) = %#x, want %#x", op, addr, got, refStack[0])
			}
			checked++
		}
	}
	t.Logf("memory conformance sweep: %d op/address cases", checked)
	if checked < 100 {
		t.Errorf("sweep only covered %d cases", checked)
	}
}

// TestHostBlockWithPendingOperands parks a sandbox on a blocking host call
// whose arguments, and an operand below them, were still pending reads of
// locals when the lowering reached the call: the arguments must be in the
// callee's slots, ResumeHost must deliver the completion where the consumer
// after the call reads it, and the pending operand must survive the park —
// on the register form with and without forwarding, in both metering modes,
// straight and single-stepped, all charging the same gas. (The naive tier
// does not support blocking host calls.)
func TestHostBlockWithPendingOperands(t *testing.T) {
	i32 := wasm.ValI32
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}}}
	m.Imports = []wasm.Import{{Module: "env", Name: "wait", Kind: wasm.ExternFunc, TypeIdx: 0}}
	m.Funcs = []wasm.Func{{TypeIdx: 0, Name: "f", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, Imm: 0}, // survives the park, pending
		{Op: wasm.OpLocalGet, Imm: 1}, // arguments: a local and a constant
		{Op: wasm.OpI32Const, Imm: 9},
		{Op: wasm.OpCall, Imm: 0},
		{Op: wasm.OpI32Const, Imm: 3}, // completion*3 + x: takes the result as a pending product
		{Op: wasm.OpI32Mul},
		{Op: wasm.OpI32Add},
	}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternFunc, Index: 1}}
	var sawArgs [2]uint64
	host := HostRegistry{"env": {"wait": {Type: m.Types[0], Func: func(_ *Instance, args []uint64) (uint64, error) {
		sawArgs = [2]uint64{args[0], args[1]}
		return 0, ErrHostBlock
	}}}}
	var gas []uint64
	for _, cfg := range []Config{{}, {NoFusion: true}, {NoBlockMeter: true}} {
		for _, fuel := range []int64{0, 1} {
			cm, err := Compile(m, host, cfg)
			if err != nil {
				t.Fatal(err)
			}
			in := cm.Instantiate()
			if err := in.Start("f", 100, 7); err != nil {
				t.Fatal(err)
			}
			run := func() Status {
				for {
					st, err := in.Run(fuel)
					if st != StatusYielded {
						if err != nil {
							t.Fatalf("%+v fuel=%d: %v", cfg, fuel, err)
						}
						return st
					}
				}
			}
			if st := run(); st != StatusBlocked {
				t.Fatalf("%+v fuel=%d: status %v, want blocked", cfg, fuel, st)
			}
			if sawArgs != [2]uint64{7, 9} {
				t.Errorf("%+v fuel=%d: host saw arguments %v, want [7 9]", cfg, fuel, sawArgs)
			}
			if err := in.ResumeHost(5); err != nil {
				t.Fatal(err)
			}
			if st := run(); st != StatusDone {
				t.Fatalf("%+v fuel=%d: status %v after resume, want done", cfg, fuel, st)
			}
			if got, _ := in.Result(); got != 115 {
				t.Errorf("%+v fuel=%d: f(100, 7) = %d with completion 5, want 115", cfg, fuel, got)
			}
			gas = append(gas, in.Gas)
		}
	}
	for _, g := range gas[1:] {
		if g != gas[0] {
			t.Errorf("gas differs across configurations: %v", gas)
			break
		}
	}
}

// TestFrameTopBeyond16Bits runs a function whose frame does not fit
// cinstr.top, so every exit from the loop reads Instance.sp's source from
// compiledFunc.tops instead: single-stepped (a yield at every dispatch), and
// parked on a host call that ResumeHost completes.
func TestFrameTopBeyond16Bits(t *testing.T) {
	i32 := wasm.ValI32
	const last = 70_000 // index of the last local
	locals := make([]wasm.ValType, last)
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{Params: []wasm.ValType{i32}, Results: []wasm.ValType{i32}}}
	m.Imports = []wasm.Import{{Module: "env", Name: "wait", Kind: wasm.ExternFunc, TypeIdx: 0}}
	for i := range locals {
		locals[i] = i32
	}
	m.Funcs = []wasm.Func{{TypeIdx: 0, Name: "f", Locals: locals, Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, Imm: 0},
		{Op: wasm.OpI32Const, Imm: 2},
		{Op: wasm.OpI32ShrU},
		{Op: wasm.OpLocalSet, Imm: last},
		{Op: wasm.OpLocalGet, Imm: last},
		{Op: wasm.OpLocalGet, Imm: 0},
		{Op: wasm.OpCall, Imm: 0},
		{Op: wasm.OpI32Xor},
	}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternFunc, Index: 1}}
	host := HostRegistry{"env": {"wait": {Type: m.Types[0], Func: func(_ *Instance, _ []uint64) (uint64, error) {
		return 0, ErrHostBlock
	}}}}
	for _, cfg := range []Config{{}, {NoBlockMeter: true}} {
		cm, err := Compile(m, host, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cm.funcs[0].tops == nil {
			t.Fatal("a 70 000-local frame kept its tops in 16 bits")
		}
		in := cm.Instantiate()
		if err := in.Start("f", 40); err != nil {
			t.Fatal(err)
		}
		st, err := in.Run(1)
		for st == StatusYielded {
			st, err = in.Run(1)
		}
		if st != StatusBlocked || err != nil {
			t.Fatalf("status %v, %v; want blocked", st, err)
		}
		if want := last + 1 + 1; in.sp != want {
			t.Errorf("parked with sp %d, want %d (locals, then the operand below the argument)", in.sp, want)
		}
		if err := in.ResumeHost(3); err != nil {
			t.Fatal(err)
		}
		for st, err = in.Run(1); st == StatusYielded; st, err = in.Run(1) {
		}
		if got, _ := in.Result(); st != StatusDone || err != nil || got != 10^3 {
			t.Errorf("f(40) = %d (%v, %v), want %d", got, st, err, 10^3)
		}
	}
}
