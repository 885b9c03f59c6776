package engine_test

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/wasm"
	"sledge/internal/workloads/apps"
	"sledge/internal/workloads/corpus"
)

var allStrategies = []engine.BoundsStrategy{
	engine.BoundsGuard, engine.BoundsSoftware, engine.BoundsSoftwareFused,
	engine.BoundsMPX, engine.BoundsNone,
}

// compileJob is one (module, strategy) compile and the CodeHash a serial
// compile gave it.
type compileJob struct {
	name string
	b    engine.BoundsStrategy
	want [32]byte
}

// TestCompileConcurrentScratch holds the contract of the pooled lowering
// scratch: nothing a CompiledModule keeps aliases it. Goroutines compile the
// whole corpus under every strategy at once, each in its own order and from
// its own decode, and every module must lower to the code a serial compile
// gave it. Then, serially, a small module's code and reply must not move
// while every suite module, smaller and larger, compiles after it.
func TestCompileConcurrentScratch(t *testing.T) {
	bins := corpus.Modules(t, "testdata/fuzz/FuzzDifferentialElision")
	host := abi.Registry()
	var jobs []compileJob
	for name, bin := range bins {
		m, err := wasm.Decode(bin)
		if err != nil {
			continue
		}
		for _, b := range allStrategies {
			cm, err := engine.Compile(m, host, engine.Config{Bounds: b})
			if err != nil {
				break // rejected before lowering, under every strategy alike
			}
			jobs = append(jobs, compileJob{name: name, b: b, want: cm.CodeHash()})
		}
	}
	sort.Slice(jobs, func(i, j int) bool {
		return jobs[i].name < jobs[j].name || jobs[i].name == jobs[j].name && jobs[i].b < jobs[j].b
	})

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		order := rand.New(rand.NewSource(int64(w))).Perm(len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				j := &jobs[i]
				cm, err := engine.CompileBinary(bins[j.name], host, engine.Config{Bounds: j.b})
				if err != nil {
					t.Errorf("%s %s: %v", j.name, j.b, err)
					return
				}
				if cm.CodeHash() != j.want {
					t.Errorf("%s %s: concurrent compile lowered different code", j.name, j.b)
				}
			}
		}()
	}
	wg.Wait()

	const small = "app/gps-ekf"
	req := apps.EKFRequest()
	for _, b := range allStrategies {
		cfg := engine.Config{Bounds: b}
		cm, err := engine.CompileBinary(bins[small], host, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hash := cm.CodeHash()
		reply, err := apps.RunWasm(cm, req)
		if err != nil {
			t.Fatal(err)
		}
		for name, bin := range bins {
			if strings.HasPrefix(name, "app/") {
				if _, err := engine.CompileBinary(bin, host, cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		if cm.CodeHash() != hash {
			t.Errorf("%s: %s code changed when later modules compiled", b, small)
		}
		if got, err := apps.RunWasm(cm, req); err != nil || !bytes.Equal(got, reply) {
			t.Errorf("%s: %s reply changed when later modules compiled (%v)", b, small, err)
		}
	}
}

// compileAllocBudget is what engine.Compile may allocate over the ten suite
// modules under the default config once its pools are warm — per module the
// validator's working set, the facts guard reads, the charge tables, the
// compiled object and its snapshot: 489 objects measured, plus a quarter.
const compileAllocBudget = 611

// TestCompileAllocBudget holds a deploy's compile step to a count, not a
// timing: a pass run where nothing reads it, or lowering scratch allocated
// per compile again, shows up here as objects.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	host := abi.Registry()
	var suite []*wasm.Module
	for name, bin := range corpus.Modules(t, "testdata/fuzz/FuzzDifferentialElision") {
		if !strings.HasPrefix(name, "app/") {
			continue
		}
		m, err := wasm.Decode(bin)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		suite = append(suite, m)
	}
	if len(suite) != 10 {
		t.Fatalf("%d suite modules, want 10", len(suite))
	}
	compile := func() {
		for _, m := range suite {
			if _, err := engine.Compile(m, host, engine.Config{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	compile() // warm the pools
	got := testing.AllocsPerRun(20, compile)
	t.Logf("Compile over the suite: %.0f objects (budget %d)", got, compileAllocBudget)
	if got > compileAllocBudget {
		t.Errorf("Compile over the suite allocates %.0f objects, budget %d", got, compileAllocBudget)
	}
}
