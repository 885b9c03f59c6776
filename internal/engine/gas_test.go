package engine

import (
	"fmt"
	"testing"

	"sledge/internal/wasm"
)

// gasConfigs is the full determinism matrix: every tier and lowering, every
// bounds strategy that changes the lowered stream, and both metering modes.
// Gas must be bit-identical across all of them for the same source path.
func gasConfigs() []Config {
	var out []Config
	for _, base := range []Config{
		{Tier: TierOptimized},
		{Tier: TierOptimized, NoAnalysis: true},
		{Tier: TierOptimized, NoFusion: true},
		{Tier: TierNaive},
	} {
		for _, b := range []BoundsStrategy{BoundsGuard, BoundsSoftware, BoundsMPX} {
			for _, nbm := range []bool{false, true} {
				c := base
				c.Bounds = b
				c.NoBlockMeter = nbm
				out = append(out, c)
			}
		}
	}
	return out
}

func cfgLabel(c Config) string {
	return fmt.Sprintf("%s/%s/noan=%v/nofuse=%v/nbm=%v",
		c.Tier, c.Bounds, c.NoAnalysis, c.NoFusion, c.NoBlockMeter)
}

// runGas invokes name(args) on a fresh instance and returns (gas, result,
// error). The error is returned rather than fataled so trap paths can be
// compared too.
func runGas(t *testing.T, m *wasm.Module, cfg Config, name string, args ...uint64) (uint64, uint64, error) {
	t.Helper()
	cm, err := Compile(m, nil, cfg)
	if err != nil {
		t.Fatalf("Compile(%s): %v", cfgLabel(cfg), err)
	}
	in := cm.Instantiate()
	v, err := in.Invoke(name, args...)
	return in.Gas, v, err
}

func TestGasDeterministicAcrossConfigs(t *testing.T) {
	type testCase struct {
		name string
		m    *wasm.Module
		fn   string
		args []uint64
	}
	cases := []testCase{
		{"sum-loop", buildModule(t, 0, sumLoopDef()), "sum", []uint64{257}},
		{"sum-zero", buildModule(t, 0, sumLoopDef()), "sum", []uint64{0}},
	}

	// Data-dependent control flow: collatz-style iteration with an if/else
	// in the loop body, exercising both arms plus the merge point.
	collatz := fnDef{
		name:   "collatz",
		params: []wasm.ValType{wasm.ValI32}, results: []wasm.ValType{wasm.ValI32},
		locals: []wasm.ValType{wasm.ValI32}, // steps
		body: []wasm.Instr{
			{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32LeU},
			{Op: wasm.OpBrIf, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32And},
			{Op: wasm.OpIf, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 3},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalSet, Imm: 0},
			{Op: wasm.OpElse},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32ShrU},
			{Op: wasm.OpLocalSet, Imm: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalSet, Imm: 1},
			{Op: wasm.OpBr, Imm: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
			{Op: wasm.OpLocalGet, Imm: 1},
		},
	}
	cases = append(cases,
		testCase{"collatz-27", buildModule(t, 0, collatz), "collatz", []uint64{27}},
		testCase{"collatz-1", buildModule(t, 0, collatz), "collatz", []uint64{1}},
	)

	// Cross-function: caller/callee so call-site charge points and callee
	// entry regions are exercised.
	callee := fnDef{
		name:   "double",
		params: []wasm.ValType{wasm.ValI32}, results: []wasm.ValType{wasm.ValI32},
		body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Add},
		},
	}
	caller := fnDef{
		name:   "quad",
		params: []wasm.ValType{wasm.ValI32}, results: []wasm.ValType{wasm.ValI32},
		body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpCall, Imm: 0},
			{Op: wasm.OpCall, Imm: 0},
		},
	}
	cases = append(cases,
		testCase{"calls", buildModule(t, 0, callee, caller), "quad", []uint64{21}})

	// Memory traffic so load/store weights and bounds lowering differences
	// are covered.
	memsum := fnDef{
		name:   "memsum",
		params: []wasm.ValType{wasm.ValI32}, results: []wasm.ValType{wasm.ValI32},
		locals: []wasm.ValType{wasm.ValI32, wasm.ValI32}, // i, acc
		body: []wasm.Instr{
			{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32GeU},
			{Op: wasm.OpBrIf, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Const, Imm: 4},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Store, Imm2: 2},
			{Op: wasm.OpLocalGet, Imm: 2},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Const, Imm: 4},
			{Op: wasm.OpI32Mul},
			{Op: wasm.OpI32Load, Imm2: 2},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalSet, Imm: 2},
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
	cases = append(cases,
		testCase{"memsum", buildModule(t, 1, memsum), "memsum", []uint64{64}})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refGas, refVal, refErr := runGas(t, tc.m, gasConfigs()[0], tc.fn, tc.args...)
			if refErr != nil {
				t.Fatalf("reference run failed: %v", refErr)
			}
			if refGas == 0 {
				t.Fatal("reference run charged no gas")
			}
			for _, cfg := range gasConfigs()[1:] {
				gas, val, err := runGas(t, tc.m, cfg, tc.fn, tc.args...)
				if err != nil {
					t.Errorf("%s: %v", cfgLabel(cfg), err)
					continue
				}
				if val != refVal {
					t.Errorf("%s: result %#x != reference %#x", cfgLabel(cfg), val, refVal)
				}
				if gas != refGas {
					t.Errorf("%s: gas %d != reference %d", cfgLabel(cfg), gas, refGas)
				}
			}
		})
	}
}

func TestGasDeterministicOnTrap(t *testing.T) {
	// A trap mid-path must charge the same gas in every tier: the trapping
	// instruction's whole region was paid at its anchor in all of them.
	div := fnDef{
		name:   "div",
		params: []wasm.ValType{wasm.ValI32, wasm.ValI32}, results: []wasm.ValType{wasm.ValI32},
		body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32DivU},
		},
	}
	m := buildModule(t, 0, div)
	refGas, _, refErr := runGas(t, m, gasConfigs()[0], "div", 7, 0)
	if refErr == nil {
		t.Fatal("expected a divide-by-zero trap")
	}
	for _, cfg := range gasConfigs()[1:] {
		gas, _, err := runGas(t, m, cfg, "div", 7, 0)
		if err == nil {
			t.Errorf("%s: expected trap", cfgLabel(cfg))
			continue
		}
		if gas != refGas {
			t.Errorf("%s: trapped gas %d != reference %d", cfgLabel(cfg), gas, refGas)
		}
	}
}

func TestGasMaxUnchargedIsConfigurable(t *testing.T) {
	// Shrinking MaxUncharged adds charge points but must not change the
	// total gas of a completed path.
	m := buildModule(t, 0, sumLoopDef())
	ref, _, err := runGas(t, m, Config{}, "sum", 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, mu := range []uint64{4, 16, 1 << 20} {
		gas, _, err := runGas(t, m, Config{MaxUncharged: mu}, "sum", 100)
		if err != nil {
			t.Fatalf("MaxUncharged=%d: %v", mu, err)
		}
		if gas != ref {
			t.Errorf("MaxUncharged=%d: gas %d != reference %d", mu, gas, ref)
		}
	}
	cmTight := mustCompile(t, m, Config{MaxUncharged: 4})
	if got := cmTight.Analysis().MaxBlockCost; got > 4+32 {
		t.Errorf("MaxBlockCost %d way above bound 4", got)
	}
	cmLoose := mustCompile(t, m, Config{MaxUncharged: 1 << 20})
	if cmTight.Analysis().ChargePoints <= cmLoose.Analysis().ChargePoints {
		t.Errorf("tight bound placed %d charge points, loose placed %d — expected more when tight",
			cmTight.Analysis().ChargePoints, cmLoose.Analysis().ChargePoints)
	}
}

// TestGasPreemptionChargeGranularity pins the block-metered preemption
// contract: with fuel f, a run slice stops at the first charge point where
// cumulative charges reach f, so no slice executes more than
// f + MaxBlockCost gas; and slicing never changes the total gas charged.
func TestGasPreemptionChargeGranularity(t *testing.T) {
	m := buildModule(t, 0, sumLoopDef())
	for _, cfg := range []Config{{}, {NoAnalysis: true}, {MaxUncharged: 8}} {
		cm := mustCompile(t, m, cfg)
		ref := cm.Instantiate()
		want, err := ref.Invoke("sum", 500)
		if err != nil {
			t.Fatal(err)
		}

		in := cm.Instantiate()
		if err := in.Start("sum", 500); err != nil {
			t.Fatal(err)
		}
		maxBlock := uint64(cm.Analysis().MaxBlockCost)
		const fuel = 16
		prev := uint64(0)
		for i := 0; ; i++ {
			st, err := in.Run(fuel)
			if err != nil {
				t.Fatal(err)
			}
			slice := in.Gas - prev
			prev = in.Gas
			if st == StatusDone {
				break
			}
			if st != StatusYielded {
				t.Fatalf("status %v", st)
			}
			// A yielded slice consumed at least the fuel (charges crossed
			// the budget) and overshot by at most one region.
			if slice < fuel || slice > fuel+maxBlock {
				t.Fatalf("slice %d charged %d gas, want within [%d, %d]",
					i, slice, fuel, fuel+maxBlock)
			}
			if i > 100000 {
				t.Fatal("did not finish")
			}
		}
		got, err := in.Result()
		if err != nil || got != want {
			t.Fatalf("preempted result %d (%v), want %d", got, err, want)
		}
		if in.Gas != ref.Gas {
			t.Errorf("preempted gas %d != uninterrupted %d", in.Gas, ref.Gas)
		}
	}
}
