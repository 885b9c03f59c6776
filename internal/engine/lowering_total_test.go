package engine_test

import (
	"strings"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/wasm"
	"sledge/internal/workloads/corpus"
)

// TestLoweringTotalNoDeadOpcode holds the two properties one production
// loop rests on. Lowering is total: a module the naive tier accepts (it does
// no lowering) compiles under every remaining optimized configuration, so
// there is no body that would need another form to fall back to. And no
// internal opcode is dead: every opcode module.go defines is emitted for
// some module under some configuration, so runRegister carries no case that
// nothing can reach.
func TestLoweringTotalNoDeadOpcode(t *testing.T) {
	var cfgs []engine.Config
	for _, b := range []engine.BoundsStrategy{
		engine.BoundsGuard, engine.BoundsSoftware, engine.BoundsSoftwareFused,
		engine.BoundsMPX, engine.BoundsNone,
	} {
		for _, noAnalysis := range []bool{false, true} {
			for _, noFusion := range []bool{false, true} {
				for _, nops := range []int{0, 1} {
					cfgs = append(cfgs, engine.Config{
						Bounds: b, NoAnalysis: noAnalysis, NoFusion: noFusion,
						PerInstrNops: nops, CallOverheadNops: nops,
					})
				}
			}
		}
	}
	host := abi.Registry()
	seen := make(map[uint16]bool)
	wcc := make(map[uint16]bool) // the subset WCC's own output reaches
	compiled := 0
	bins := corpus.Modules(t, "testdata/fuzz/FuzzDifferentialElision")
	hazards, err := wasm.Encode(corpus.HazardSeedModule())
	if err != nil {
		t.Fatal(err)
	}
	bins["hazards"] = hazards
	for name, bin := range bins {
		m, err := wasm.Decode(bin)
		if err != nil {
			continue // a corpus entry the decoder rejects lowers nothing
		}
		if _, err := engine.Compile(m, host, engine.Config{Tier: engine.TierNaive}); err != nil {
			continue // rejected before lowering: validation, imports, limits
		}
		for _, cfg := range cfgs {
			cm, err := engine.Compile(m, host, cfg)
			if err != nil {
				t.Errorf("%s: %s noanalysis=%v nofusion=%v nops=%d: %v",
					name, cfg.Bounds, cfg.NoAnalysis, cfg.NoFusion, cfg.PerInstrNops, err)
				continue
			}
			cm.EmittedOps(seen)
			if strings.HasPrefix(name, "app/") || strings.HasPrefix(name, "polybench/") {
				cm.EmittedOps(wcc)
			}
			compiled++
		}
	}
	if compiled < 40*len(cfgs) {
		t.Fatalf("only %d compiles; the corpus did not load", compiled)
	}
	lo, hi := engine.InternalOps()
	reached := 0
	for op := lo; op < hi; op++ {
		if !seen[op] {
			t.Errorf("internal opcode %#x (iUnreachable+%d) is defined but never emitted", op, op-lo)
		}
		if wcc[op] {
			reached++
		}
	}
	t.Logf("%d internal opcodes; the apps and PolyBench kernels (WCC output) reach %d", hi-lo, reached)
	if hi-lo > 72 {
		t.Errorf("%d internal opcodes; the slot-operand form was to end no larger than the 72 it replaced", hi-lo)
	}
}
