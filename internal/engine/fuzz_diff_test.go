package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/wasm"
	"sledge/internal/workloads/corpus"
)

// diffConfigs is the differential matrix, 4 x 3 x 2 = 24 configs: every
// explicit-check strategy crossed with the execution axis — register form
// with analysis on (the full rung) and off (the cheap rung), plus the naive
// tier as an independent implementation of the same semantics — and each of
// those crossed with both metering modes (block-metered and the
// per-instruction NoBlockMeter oracle). BoundsNone is excluded by design —
// it only faults beyond the backing array, so its trap set legitimately
// differs from the checked strategies. A compile error on one side only is
// a divergence like any other: register lowering has no fallback form.
func diffConfigs() []engine.Config {
	var cfgs []engine.Config
	for _, b := range []engine.BoundsStrategy{
		engine.BoundsGuard, engine.BoundsSoftware,
		engine.BoundsSoftwareFused, engine.BoundsMPX,
	} {
		for _, nbm := range []bool{false, true} {
			cfgs = append(cfgs,
				engine.Config{Bounds: b, Tier: engine.TierOptimized, NoBlockMeter: nbm},
				engine.Config{Bounds: b, Tier: engine.TierOptimized, NoAnalysis: true, NoBlockMeter: nbm},
				engine.Config{Bounds: b, Tier: engine.TierNaive, NoBlockMeter: nbm},
			)
		}
	}
	return cfgs
}

// diffOutcome runs one config to a canonical outcome string — done+result,
// trap+code, or the bounded-execution statuses — plus the gas the run
// charged. Any panic escaping the VM is a host-integrity failure, reported
// via t.
func diffOutcome(t *testing.T, m *wasm.Module, cfg engine.Config, arg uint64) (string, uint64) {
	t.Helper()
	cm, err := engine.Compile(m, abi.Registry(), cfg)
	if err != nil {
		return "compile-error", 0
	}
	var out string
	var gas uint64
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s/%s noanalysis=%v nbm=%v: host panic: %v",
					cfg.Tier, cfg.Bounds, cfg.NoAnalysis, cfg.NoBlockMeter, r)
			}
		}()
		inst := cm.Instantiate()
		inst.HostData = abi.NewContext(nil)
		if err := inst.Start("main", arg); err != nil {
			// Signature mismatch with the fuzzed arg count: retry with none.
			if err2 := func() error {
				inst = cm.Instantiate()
				inst.HostData = abi.NewContext(nil)
				return inst.Start("main")
			}(); err2 != nil {
				out = "start-error"
				return
			}
		}
		st, err := inst.Run(2_000_000)
		gas = inst.Gas
		switch st {
		case engine.StatusDone:
			v, _ := inst.Result()
			out = fmt.Sprintf("done:%#x", v)
		case engine.StatusTrapped:
			var trap *engine.Trap
			if errors.As(err, &trap) {
				if trap.Code == engine.TrapFuelExhausted {
					// The naive tier surfaces the budget as a trap where
					// the optimized tier yields; both mean "still running".
					out = "bounded"
					return
				}
				out = "trap:" + trap.Code.String()
			} else {
				out = fmt.Sprintf("trap:%v", err)
			}
		case engine.StatusYielded:
			out = "bounded"
		case engine.StatusBlocked:
			out = "bounded"
		}
	}()
	return out, gas
}

// FuzzDifferentialElision cross-checks the static-analysis pipeline against
// the unanalyzed interpreter: for every module that decodes and validates,
// every bounds strategy with elision on, elision off, and the naive tier
// must produce the identical result or the identical trap. This is the
// soundness net for check elision, devirtualization, and stack
// certification.
func FuzzDifferentialElision(f *testing.F) {
	hazards, err := wasm.Encode(corpus.HazardSeedModule())
	if err != nil {
		f.Fatal(err)
	}
	for _, bin := range append(corpus.SeedModules(f), hazards) {
		for _, arg := range []uint64{0, 8, 15, 1 << 20} {
			f.Add(bin, arg)
		}
	}
	f.Fuzz(func(t *testing.T, bin []byte, arg uint64) {
		m, err := wasm.Decode(bin)
		if err != nil {
			return
		}
		if err := wasm.Validate(m); err != nil {
			return
		}
		cfgs := diffConfigs()
		if m.Start >= 0 {
			// Snapshot vs replay is a real execution-path axis only for
			// modules with a start section: cross the whole matrix with
			// NoSnapshot so snapshot-materialized runs are checked
			// bit-identical (result, trap, gas) against the replayed path.
			for _, cfg := range cfgs[:len(cfgs):len(cfgs)] {
				cfg.NoSnapshot = true
				cfgs = append(cfgs, cfg)
			}
		}
		outs := make([]string, len(cfgs))
		gases := make([]uint64, len(cfgs))
		for i, cfg := range cfgs {
			outs[i], gases[i] = diffOutcome(t, m, cfg, arg)
			if outs[i] == "bounded" {
				// Fuel-consumption granularity differs across metering
				// modes (per dispatch vs per charge point), so any config
				// still running at the budget makes the input incomparable
				// — the exhaustion outcome itself ("bounded") is the
				// charge-point-granularity comparison.
				return
			}
		}
		for i, cfg := range cfgs[1:] {
			if outs[i+1] != outs[0] {
				t.Fatalf("divergence: %s/%s noanalysis=%v nbm=%v nosnap=%v = %q, reference %s/%s = %q",
					cfg.Tier, cfg.Bounds, cfg.NoAnalysis, cfg.NoBlockMeter, cfg.NoSnapshot, outs[i+1],
					cfgs[0].Tier, cfgs[0].Bounds, outs[0])
			}
			// Gas is charged at static charge points on the source path, so
			// every config that ran the path to the same outcome — traps
			// included — must report bit-identical gas.
			if outs[i+1] != "compile-error" && outs[i+1] != "start-error" && gases[i+1] != gases[0] {
				t.Fatalf("gas divergence: %s/%s noanalysis=%v nbm=%v nosnap=%v charged %d, reference %s/%s charged %d (outcome %q)",
					cfg.Tier, cfg.Bounds, cfg.NoAnalysis, cfg.NoBlockMeter, cfg.NoSnapshot, gases[i+1],
					cfgs[0].Tier, cfgs[0].Bounds, gases[0], outs[0])
			}
		}
	})
}
