package polybench

import (
	"fmt"
	"math"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
)

// TestWasmMatchesNative is the suite's core equivalence property: for every
// kernel, the WCC-compiled Wasm module and the mirrored native Go
// implementation produce the same checksum.
func TestWasmMatchesNative(t *testing.T) {
	if len(Kernels) != 30 {
		t.Fatalf("expected the full PolyBench suite (30 kernels), have %d", len(Kernels))
	}
	for i := range Kernels {
		k := &Kernels[i]
		t.Run(k.Name, func(t *testing.T) {
			n := k.TestN
			cm, err := k.Compile(n, engine.Config{})
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			got, err := RunWasm(cm, n)
			if err != nil {
				t.Fatalf("RunWasm: %v", err)
			}
			want := k.Native(n)
			if !closeEnough(got, want) {
				t.Errorf("checksum mismatch: wasm %v, native %v", got, want)
			}
		})
	}
}

// TestConfigsAgree verifies that every bounds strategy and tier computes the
// same result for a representative subset, and that the two metering modes
// agree on checksum and gas for kernels preempted in fixed slices.
func TestConfigsAgree(t *testing.T) {
	configs := []engine.Config{
		{Bounds: engine.BoundsGuard, Tier: engine.TierOptimized},
		{Bounds: engine.BoundsSoftware, Tier: engine.TierOptimized},
		{Bounds: engine.BoundsSoftwareFused, Tier: engine.TierOptimized},
		{Bounds: engine.BoundsMPX, Tier: engine.TierOptimized},
		{Bounds: engine.BoundsNone, Tier: engine.TierOptimized},
		{Bounds: engine.BoundsSoftware, Tier: engine.TierNaive},
		{Bounds: engine.BoundsSoftwareFused, Tier: engine.TierNaive},
	}
	for _, name := range []string{"gemm", "cholesky", "floyd-warshall", "jacobi-2d", "deriche"} {
		k, ok := Get(name)
		if !ok {
			t.Fatalf("kernel %s missing", name)
		}
		want := k.Native(k.TestN)
		for _, cfg := range configs {
			cm, err := k.Compile(k.TestN, cfg)
			if err != nil {
				t.Fatalf("%s (%s/%s): %v", name, cfg.Tier, cfg.Bounds, err)
			}
			got, err := RunWasm(cm, k.TestN)
			if err != nil {
				t.Fatalf("%s (%s/%s): %v", name, cfg.Tier, cfg.Bounds, err)
			}
			if !closeEnough(got, want) {
				t.Errorf("%s (%s/%s): %v != %v", name, cfg.Tier, cfg.Bounds, got, want)
			}
		}
	}
	// Run in 1 Mi-gas slices, resumed on every yield as the scheduler runs
	// them: block metering and the per-dispatch oracle must reach the
	// native checksum and charge bit-identical gas. DefaultN, as at TestN
	// every kernel finishes inside its first slice.
	for _, name := range []string{"gemm", "jacobi-2d", "trisolv", "atax"} {
		k, ok := Get(name)
		if !ok {
			t.Fatalf("kernel %s missing", name)
		}
		want := k.Native(k.DefaultN)
		var gas [2]uint64
		for i, cfg := range []engine.Config{{}, {NoBlockMeter: true}} {
			cm, err := k.Compile(k.DefaultN, cfg)
			if err != nil {
				t.Fatalf("%s (NoBlockMeter=%v): %v", name, cfg.NoBlockMeter, err)
			}
			got, g, slices, err := runSliced(cm, k.DefaultN, 1<<20)
			if err != nil {
				t.Fatalf("%s (NoBlockMeter=%v): %v", name, cfg.NoBlockMeter, err)
			}
			if !closeEnough(got, want) {
				t.Errorf("%s (NoBlockMeter=%v) sliced: %v != %v", name, cfg.NoBlockMeter, got, want)
			}
			if !cfg.NoBlockMeter && slices < 2 {
				t.Errorf("%s finished in %d slice: nothing was resumed", name, slices)
			}
			gas[i] = g
		}
		if gas[0] != gas[1] {
			t.Errorf("%s sliced: gas %d under block metering, %d under NoBlockMeter", name, gas[0], gas[1])
		}
	}
}

// runSliced runs kernel(n) to completion in slices of fuel, resuming on
// every yield, and returns the checksum, the gas and the slice count.
func runSliced(cm *engine.CompiledModule, n int, fuel int64) (float64, uint64, int, error) {
	inst := cm.Acquire()
	defer cm.Release(inst)
	inst.HostData = abi.NewContext(nil)
	if err := inst.Start("kernel", uint64(uint32(n))); err != nil {
		return 0, 0, 0, err
	}
	for slices := 1; ; slices++ {
		st, err := inst.Run(fuel)
		if err != nil {
			return 0, 0, slices, err
		}
		switch st {
		case engine.StatusDone:
			bits, err := inst.Result()
			return math.Float64frombits(bits), inst.Gas, slices, err
		case engine.StatusYielded:
		default:
			return 0, 0, slices, fmt.Errorf("status %s", st)
		}
	}
}

func TestKernelRegistry(t *testing.T) {
	seen := make(map[string]bool)
	for i := range Kernels {
		k := &Kernels[i]
		if seen[k.Name] {
			t.Errorf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
		if k.DefaultN <= 0 || k.TestN <= 0 || k.TestN > k.DefaultN {
			t.Errorf("%s: bad sizes default=%d test=%d", k.Name, k.DefaultN, k.TestN)
		}
		if k.MemBytes(k.DefaultN) <= 0 {
			t.Errorf("%s: bad MemBytes", k.Name)
		}
	}
	if _, ok := Get("gemm"); !ok {
		t.Error("Get(gemm) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
	if got := len(Names()); got != len(Kernels) {
		t.Errorf("Names() returned %d entries", got)
	}
}

// closeEnough tolerates tiny floating differences; kernels are written so
// operation order matches, so results are typically bit-identical.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
