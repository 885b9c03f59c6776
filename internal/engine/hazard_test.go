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

// runExport runs one export to a canonical outcome — done+result or
// trap+code — yielding every fuel units of fuel (0 = never), and returns it
// with the gas charged.
func runExport(t *testing.T, cm *engine.CompiledModule, name string, arg uint64, fuel int64) (string, uint64) {
	t.Helper()
	inst := cm.Instantiate()
	inst.HostData = abi.NewContext(nil)
	if err := inst.Start(name, arg); err != nil {
		t.Fatalf("Start(%s): %v", name, err)
	}
	for yields := 0; ; yields++ {
		if yields > 1_000_000 {
			t.Fatalf("%s(%#x): did not terminate", name, arg)
		}
		st, err := inst.Run(fuel)
		switch st {
		case engine.StatusYielded:
			continue
		case engine.StatusDone:
			v, _ := inst.Result()
			return fmt.Sprintf("done:%#x", v), inst.Gas
		case engine.StatusTrapped:
			var trap *engine.Trap
			if errors.As(err, &trap) {
				return "trap:" + trap.Code.String(), inst.Gas
			}
		}
		t.Fatalf("%s(%#x): status %v, err %v", name, arg, st, err)
	}
}

// TestForwardingHazards runs every function of corpus.HazardSeedModule —
// one per way operand forwarding could go wrong — against the naive
// per-instruction oracle: same result or trap, same gas, under every bounds
// strategy, with and without analysis and fusion, in both metering modes,
// and with a yield forced at every charge point (Run(1) under block
// metering) and at every dispatch (Run(1) under NoBlockMeter), so pending
// operands are outstanding across each kind of resume.
func TestForwardingHazards(t *testing.T) {
	m := corpus.HazardSeedModule()
	host := abi.Registry()
	oracle, err := engine.Compile(m, host, engine.Config{Tier: engine.TierNaive, NoBlockMeter: true})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []engine.Config
	for _, b := range []engine.BoundsStrategy{
		engine.BoundsGuard, engine.BoundsSoftware, engine.BoundsSoftwareFused, engine.BoundsMPX,
	} {
		cfgs = append(cfgs,
			engine.Config{Bounds: b},
			engine.Config{Bounds: b, NoAnalysis: true},
			engine.Config{Bounds: b, NoFusion: true},
			engine.Config{Bounds: b, NoBlockMeter: true},
		)
	}
	args := []uint64{0, 1, 2, 3, 5, 8, 15, 1 << 20, 0x7FFFFFFF, 0xFFFFFFF0, 0xFFFFFFFF}
	checked := 0
	for _, cfg := range cfgs {
		cm, err := engine.Compile(m, host, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for _, exp := range m.Exports {
			ft, err := m.FuncTypeAt(exp.Index)
			if err != nil || len(ft.Params) != 1 || ft.Params[0] != wasm.ValI32 {
				continue // the two helpers
			}
			for _, arg := range args {
				want, wantGas := runExport(t, oracle, exp.Name, arg, 0)
				for _, fuel := range []int64{0, 1} {
					got, gas := runExport(t, cm, exp.Name, arg, fuel)
					if got != want || gas != wantGas {
						t.Errorf("%s(%#x) %s noanalysis=%v nofusion=%v nbm=%v fuel=%d: %s with %d gas, oracle %s with %d",
							exp.Name, arg, cfg.Bounds, cfg.NoAnalysis, cfg.NoFusion, cfg.NoBlockMeter, fuel,
							got, gas, want, wantGas)
					}
					checked++
				}
			}
		}
	}
	if checked < 16*20*len(args)*2 {
		t.Errorf("only %d runs: the hazard module lost functions", checked)
	}
}
