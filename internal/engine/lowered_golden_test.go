package engine_test

import (
	"bytes"
	"flag"
	"fmt"
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

// TestLoweredGolden pins what the analysis facts turn into. Their only
// reader is the lowerer under BoundsSoftware and BoundsMPX, so the emitted
// code of every corpus module under those two strategies is digested, and
// AnalysisStats — what /__stats shows of the pass — is recorded for the ten
// suite modules under all five. The two kinds of line move for different
// reasons. A stats= line is what the analysis found: a change that moves one
// changed a fact (internal/analysis/testdata/facts.golden will say which).
// A code= line digests the lowered instructions, so it also moves whenever
// the lowering itself changes — the opcode set, operand forwarding, a new
// superinstruction — with every fact intact; such a change regenerates the
// file with -update and must leave every stats= line byte-identical.
func TestLoweredGolden(t *testing.T) {
	const path = "testdata/lowered.golden"
	bins := corpus.Modules(t, "testdata/fuzz/FuzzDifferentialElision")
	names := make([]string, 0, len(bins))
	for name := range bins {
		names = append(names, name)
	}
	sort.Strings(names)
	host := abi.Registry()
	var got bytes.Buffer
	for _, name := range names {
		m, err := wasm.Decode(bins[name])
		if err != nil {
			continue
		}
		strategies := []engine.BoundsStrategy{engine.BoundsSoftware, engine.BoundsMPX}
		suite := strings.HasPrefix(name, "app/")
		if suite {
			strategies = []engine.BoundsStrategy{
				engine.BoundsGuard, engine.BoundsSoftware, engine.BoundsSoftwareFused,
				engine.BoundsMPX, engine.BoundsNone,
			}
		}
		for _, b := range strategies {
			cm, err := engine.Compile(m, host, engine.Config{Bounds: b})
			if err != nil {
				break // rejected before lowering, under every strategy alike
			}
			if b == engine.BoundsSoftware || b == engine.BoundsMPX {
				fmt.Fprintf(&got, "%s %s code=%x\n", name, b, cm.CodeHash())
			}
			if suite {
				fmt.Fprintf(&got, "%s %s stats=%+v\n", name, b, cm.Analysis())
			}
		}
	}
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
