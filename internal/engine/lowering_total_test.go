package engine_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/wasm"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
	"sledge/internal/workloads/polybench"
)

// loweringCorpus is every module the repo ships or seeds a fuzzer with: the
// nine apps and fetch, the PolyBench kernels, the differential fuzzer's
// seeds and its checked-in corpus.
func loweringCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	bins := make(map[string][]byte)
	for _, a := range append(append([]apps.App(nil), apps.Apps...), apps.FetchApp) {
		res, err := wcc.Compile(a.Source, wcc.Options{HeapBytes: a.HeapBytes, Data: a.Data})
		if err != nil {
			t.Fatalf("wcc %s: %v", a.Name, err)
		}
		bins["app/"+a.Name] = res.Binary
	}
	for _, k := range polybench.Kernels {
		res, err := wcc.Compile(k.Source, wcc.Options{HeapBytes: k.MemBytes(k.TestN)})
		if err != nil {
			t.Fatalf("wcc %s: %v", k.Name, err)
		}
		bins["polybench/"+k.Name] = res.Binary
	}
	for i, bin := range diffSeedModules(t) {
		bins["seed/"+strconv.Itoa(i)] = bin
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzDifferentialElision/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("fuzz corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		// "go test fuzz v1" / []byte("...") / uint64(n)
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a fuzz corpus entry", f)
		}
		bin, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		bins["corpus/"+filepath.Base(f)] = []byte(bin)
	}
	return bins
}

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
	compiled := 0
	for name, bin := range loweringCorpus(t) {
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
			compiled++
		}
	}
	if compiled < 40*len(cfgs) {
		t.Fatalf("only %d compiles; the corpus did not load", compiled)
	}
	lo, hi := engine.InternalOps()
	for op := lo; op < hi; op++ {
		if !seen[op] {
			t.Errorf("internal opcode %#x (iUnreachable+%d) is defined but never emitted", op, op-lo)
		}
	}
}
