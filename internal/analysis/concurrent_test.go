package analysis_test

import (
	"bytes"
	"math/rand"
	"os"
	"sync"
	"testing"

	"sledge/internal/analysis"
)

// TestAnalyzeConcurrentMatchesSerial is the pooled scratch's safety net:
// concurrent RegisterWasm and cache revive calls all reach Analyze
// at once, each taking a walker out of the pool. Eight goroutines analyse
// the suite in their own seeded orders, so walkers move between modules of
// very different sizes; every result must serialise to exactly what a lone
// call produces, which in turn must be what testdata/facts.golden records.
func TestAnalyzeConcurrentMatchesSerial(t *testing.T) {
	const workers, rounds = 8, 50
	suite := suiteModules(t)
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	facts := func(buf *bytes.Buffer, s suiteModule) []byte {
		buf.Reset()
		writeFacts(buf, s.name, s.params.MinMemBytes, s.m, analysis.Analyze(s.m, s.params))
		return buf.Bytes()
	}
	want := make([][]byte, len(suite))
	for i, s := range suite {
		want[i] = bytes.Clone(facts(new(bytes.Buffer), s))
		if !bytes.Contains(golden, want[i]) {
			t.Fatalf("serial facts for %s are not in %s", s.name, goldenPath)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			var buf bytes.Buffer
			for r := 0; r < rounds; r++ {
				i := rng.Intn(len(suite))
				if !bytes.Equal(facts(&buf, suite[i]), want[i]) {
					t.Errorf("worker %d round %d: %s facts differ from the serial run", g, r, suite[i].name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
