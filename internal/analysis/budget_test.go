package analysis_test

import (
	"testing"

	"sledge/internal/analysis"
	"sledge/internal/wasm"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// suiteModule is one of the ten modules a cold deploy registers, decoded,
// under its corpus name and with the horizon engine.Compile gives it.
type suiteModule struct {
	name   string
	m      *wasm.Module
	params analysis.Params
}

func suiteModules(tb testing.TB) []suiteModule {
	tb.Helper()
	var suite []suiteModule
	for _, a := range append([]apps.App{apps.FetchApp}, apps.Apps...) {
		res, err := wcc.Compile(a.Source, wcc.Options{HeapBytes: a.HeapBytes, Data: a.Data})
		if err != nil {
			tb.Fatalf("wcc %s: %v", a.Name, err)
		}
		m, err := wasm.Decode(res.Binary)
		if err != nil {
			tb.Fatalf("decode %s: %v", a.Name, err)
		}
		suite = append(suite, suiteModule{
			name: "app/" + a.Name, m: m,
			params: analysis.Params{MinMemBytes: ownMinMem(m), MaxCallDepth: 512},
		})
	}
	return suite
}

var sinkFacts *analysis.Facts

func analyzeSuite(suite []suiteModule) {
	for _, s := range suite {
		sinkFacts = analysis.Analyze(s.m, s.params)
	}
}

// BenchmarkAnalyzeSuite is the analysis share of one cold deploy: Analyze
// over the ten suite modules.
func BenchmarkAnalyzeSuite(b *testing.B) {
	suite := suiteModules(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeSuite(suite)
	}
}

// analyzeAllocBudget is what Analyze may allocate over the ten suite
// modules once its pooled scratch is warm: the Facts it returns (per module
// the struct, the per-function table, one bitset arena, MaxFrames, Edges)
// and the call-graph pass's working set — 138 objects measured, plus a
// quarter. The clone-per-branch pass allocated 4 094.
const analyzeAllocBudget = 172

// TestAnalyzeAllocBudget holds the pass to a count, not a timing: a state
// copied where it could have moved, or a table rebuilt per function, shows
// up here as hundreds of objects.
func TestAnalyzeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	suite := suiteModules(t)
	analyzeSuite(suite) // warm the pooled scratch
	got := testing.AllocsPerRun(20, func() { analyzeSuite(suite) })
	t.Logf("Analyze over the suite: %.0f objects (budget %d)", got, analyzeAllocBudget)
	if got > analyzeAllocBudget {
		t.Errorf("Analyze over the suite allocates %.0f objects, budget %d", got, analyzeAllocBudget)
	}
}
