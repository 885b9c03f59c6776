package engine_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/wasm"
	"sledge/internal/workloads/corpus"
)

var updateLowered = flag.Bool("update", false, "rewrite testdata/lowered.golden from this tree")

// loweringConfigs is the matrix TestLoweringTotalNoDeadOpcode compiles —
// every strategy with analysis, fusion and the ablation nops each on and off
// — plus a region bound too wide for a branch word, under which charges are
// not threaded.
func loweringConfigs() []engine.Config {
	var cfgs []engine.Config
	for _, b := range allStrategies {
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
	return append(cfgs, engine.Config{Bounds: engine.BoundsGuard, MaxUncharged: 1 << 20})
}

// configName spells a loweringConfigs entry for a golden line.
func configName(c engine.Config) string {
	name := c.Bounds.String()
	if c.NoAnalysis {
		name += "+noanalysis"
	}
	if c.NoFusion {
		name += "+nofusion"
	}
	if c.PerInstrNops > 0 {
		name += "+nops"
	}
	if c.MaxUncharged > 0 {
		name += fmt.Sprintf("+maxuncharged=%d", c.MaxUncharged)
	}
	return name
}

// TestLoweredGolden pins what Compile emits under every configuration of
// loweringConfigs. For the ten suite modules each configuration gets a
// code= line (CodeHash: the instructions, br_table targets and frame shape)
// and a regalloc= line (RegallocStats, which /__stats shows), and the
// configurations with fusion on and no nops a stats= line (AnalysisStats,
// which depend only on the strategy, the analysis switch and the region
// bound). Every other corpus module, and corpus.HazardSeedModule, gets one
// digest over all three under all configurations, and so do the
// randomModules bodies, together: they hold the control-flow shapes the
// corpus lacks.
//
// The kinds of line move for different reasons. A stats= line is what the
// analysis found: a change that moves one changed a fact
// (internal/analysis/testdata/facts.golden will say which). code= and
// regalloc= lines move whenever the lowering itself changes — the opcode
// set, operand forwarding, a new superinstruction — with every fact intact;
// such a change regenerates the file with -update and must leave every
// stats= line byte-identical. A rewrite of the lowering that claims to emit
// the same code must leave the whole file byte-identical.
func TestLoweredGolden(t *testing.T) {
	const path = "testdata/lowered.golden"
	bins := corpus.Modules(t, "testdata/fuzz/FuzzDifferentialElision")
	hazards, err := wasm.Encode(corpus.HazardSeedModule())
	if err != nil {
		t.Fatal(err)
	}
	bins["hazards"] = hazards
	names := make([]string, 0, len(bins))
	for name := range bins {
		names = append(names, name)
	}
	sort.Strings(names)
	host := abi.Registry()
	cfgs := loweringConfigs()
	var got bytes.Buffer
	for _, name := range names {
		m, err := wasm.Decode(bins[name])
		if err != nil {
			continue
		}
		if _, err := engine.Compile(m, host, engine.Config{Tier: engine.TierNaive}); err != nil {
			continue // rejected before lowering: validation, imports, limits
		}
		if !strings.HasPrefix(name, "app/") {
			digest := sha256.New()
			digestConfigs(t, digest, name, m, cfgs)
			fmt.Fprintf(&got, "%s all code=%x\n", name, digest.Sum(nil))
			continue
		}
		for _, cfg := range cfgs {
			cm, err := engine.Compile(m, host, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, configName(cfg), err)
			}
			c := configName(cfg)
			fmt.Fprintf(&got, "%s %s code=%x\n", name, c, cm.CodeHash())
			fmt.Fprintf(&got, "%s %s regalloc=%+v\n", name, c, cm.Regalloc())
			if !cfg.NoFusion && cfg.PerInstrNops == 0 {
				fmt.Fprintf(&got, "%s %s stats=%+v\n", name, c, cm.Analysis())
			}
		}
	}
	const random = 500
	digest := sha256.New()
	for seed := int64(0); seed < random; seed++ {
		m := randomModule(seed)
		if err := wasm.Validate(m); err != nil {
			t.Fatalf("random module %d: %v", seed, err)
		}
		digestConfigs(t, digest, fmt.Sprintf("random module %d", seed), m, cfgs)
	}
	fmt.Fprintf(&got, "random/%d all code=%x\n", random, digest.Sum(nil))
	if *updateLowered {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
}

// digestConfigs writes m's code, regalloc and analysis stats under every
// configuration to w.
func digestConfigs(t *testing.T, w io.Writer, name string, m *wasm.Module, cfgs []engine.Config) {
	t.Helper()
	for _, cfg := range cfgs {
		cm, err := engine.Compile(m, abi.Registry(), cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", name, configName(cfg), err)
		}
		fmt.Fprintf(w, "%x %+v %+v\n", cm.CodeHash(), cm.Regalloc(), cm.Analysis())
	}
}
