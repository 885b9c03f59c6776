// Benchmarks mapping to the paper's tables and figures (see DESIGN.md's
// per-experiment index). Each Benchmark* regenerates the measurement behind
// one paper artifact; `go test -bench . -benchmem` prints them all, and
// cmd/sledge-bench renders the full formatted tables.
package sledge_test

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"

	"sledge"
	"sledge/internal/engine"
	"sledge/internal/experiments"
	"sledge/internal/loadgen"
	"sledge/internal/nuclio"
	"sledge/internal/sandbox"
	"sledge/internal/sched"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
	"sledge/internal/workloads/polybench"
)

func TestMain(m *testing.M) {
	// The Nuclio-baseline benchmarks re-execute this binary as their
	// function worker process.
	if nuclio.MaybeWorkerMain() {
		return
	}
	os.Exit(m.Run())
}

// ---- Figure 5 / Table 1: Wasm runtime configurations on PolyBench ----

// BenchmarkFig5PolybenchConfigs measures a representative PolyBench kernel
// (gemm) under every runtime configuration of Figure 5 plus the native
// baseline. The relative ns/op across sub-benchmarks is the figure's
// normalized-slowdown series.
func BenchmarkFig5PolybenchConfigs(b *testing.B) {
	k, _ := polybench.Get("gemm")
	n := k.TestN * 2

	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = k.Native(n)
		}
	})
	for _, rc := range experiments.Fig5Classes {
		cm, err := k.Compile(n, rc.Cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(rc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := polybench.RunWasm(cm, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 6: ping with varying concurrency ----

func BenchmarkFig6PingSledgeHTTP(b *testing.B) {
	rt := sledge.New(sledge.Config{Workers: 2})
	defer rt.Close()
	registerBenchApp(b, rt, "ping")
	url := serveBench(b, rt)

	for _, conc := range []int{1, 16} {
		b.Run(fmt.Sprintf("c%d", conc), func(b *testing.B) {
			res, err := loadgen.Run(loadgen.Options{
				URL: url + "/ping", Concurrency: conc, Requests: b.N,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ThroughputRPS, "req/s")
			b.ReportMetric(float64(res.Summary.P99.Microseconds()), "p99-µs")
		})
	}
}

func BenchmarkFig6PingNuclioHTTP(b *testing.B) {
	nuc, err := nuclio.New(nuclio.Config{MaxWorkers: 16})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := nuc.Invoke("ping", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 7: payload sweep ----

func BenchmarkFig7PayloadEcho(b *testing.B) {
	rt := sledge.New(sledge.Config{Workers: 2})
	defer rt.Close()
	registerBenchApp(b, rt, "echo")

	for _, size := range []int{1 << 10, 100 << 10} {
		payload := apps.EchoPayload(size)
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				resp, err := rt.Invoke("echo", payload)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp) != size {
					b.Fatalf("short echo: %d", len(resp))
				}
			}
		})
	}
}

// ---- Figure 8 / Table 2: real-world applications ----

func BenchmarkFig8Apps(b *testing.B) {
	rt := sledge.New(sledge.Config{Workers: 2})
	defer rt.Close()
	for _, name := range []string{"gps-ekf", "gocr", "cifar10", "resize", "lpd"} {
		registerBenchApp(b, rt, name)
		app, _ := apps.Get(name)
		req := app.GenRequest()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rt.Invoke(name, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2NativeVsSledge(b *testing.B) {
	for _, name := range []string{"gps-ekf", "gocr", "cifar10"} {
		app, _ := apps.Get(name)
		req := app.GenRequest()
		want := app.Native(req)
		b.Run(name+"/native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = app.Native(req)
			}
		})
		cm, err := app.Compile(engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/sledge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := apps.RunWasm(cm, req)
				if err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					b.Fatal("wasm diverged from native")
				}
			}
		})
	}
}

// ---- Table 3: churn ----

func BenchmarkTable3ChurnSandbox(b *testing.B) {
	app, _ := apps.Get("gps-ekf")
	cm, err := app.Compile(engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	req := app.GenRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb, err := sandbox.New(cm, req, sandbox.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sb.Fail(nil)
	}
}

// ---- invocation churn: the zero-allocation request path ----

const benchNoopSrc = `
export i32 main() { return 0; }
`

// BenchmarkInvokeChurn drives full end-to-end Runtime.Invoke churn with and
// without the recycling layer. The pooled steady state is the zero-allocs/op
// claim: sandbox shell, engine instance, timeout timer, and context are all
// recycled (an empty response avoids the mandatory response copy).
func BenchmarkInvokeChurn(b *testing.B) {
	for _, mode := range []struct {
		name      string
		noRecycle bool
	}{
		{"pooled", false},
		{"norecycle", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			rt := sledge.New(sledge.Config{Workers: 1, NoRecycle: mode.noRecycle})
			defer rt.Close()
			if _, err := rt.RegisterWCC("noop", benchNoopSrc, sledge.WCCOptions{}); err != nil {
				b.Fatal(err)
			}
			// Warm the pools before measuring.
			for i := 0; i < 16; i++ {
				if _, err := rt.Invoke("noop", nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Invoke("noop", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstantiateReuse isolates the engine layer: a fresh Instantiate
// per request versus the pool's Acquire/Release cycle.
func BenchmarkInstantiateReuse(b *testing.B) {
	app, _ := apps.Get("gps-ekf")
	cm, err := app.Compile(engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("instantiate-fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := cm.Instantiate()
			in.Teardown()
		}
	})
	b.Run("acquire-release", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := cm.Acquire()
			cm.Release(in)
		}
	})
}

// coldDeployer runs deploy/retire cycles of the whole suite: register the
// ten binaries under fresh names, send the first request five of them ever
// see (the light apps of the repository benchmark's coldstart workload),
// unregister all ten.
type coldDeployer struct {
	rt    *sledge.Runtime
	bins  map[string][]byte
	first map[string][]byte
}

func newColdDeployer(tb testing.TB) *coldDeployer {
	tb.Helper()
	d := &coldDeployer{bins: make(map[string][]byte)}
	suite := append([]apps.App{apps.FetchApp}, apps.Apps...)
	for i := range suite {
		a := &suite[i]
		res, err := wcc.Compile(a.Source, wcc.Options{HeapBytes: a.HeapBytes, Data: a.Data})
		if err != nil {
			tb.Fatalf("wcc %s: %v", a.Name, err)
		}
		d.bins[a.Name] = res.Binary
	}
	d.first = map[string][]byte{
		"ping":    nil,
		"echo":    apps.EchoPayload(1024),
		"gps-ekf": apps.EKFRequest(),
		"fetch":   []byte("obj"),
		"spin":    apps.SpinRequest(1000),
	}
	kv := sledge.NewMapKV()
	kv.Set("obj", bytes.Repeat([]byte("v"), 256))
	d.rt = sledge.New(sledge.Config{Workers: 1, KV: kv})
	tb.Cleanup(func() { d.rt.Close() })
	return d
}

func (d *coldDeployer) cycle(tb testing.TB, i int) {
	suffix := fmt.Sprintf("-%d", i)
	for name, bin := range d.bins {
		if _, err := d.rt.RegisterWasm(name+suffix, bin, "main"); err != nil {
			tb.Fatal(err)
		}
	}
	for name, req := range d.first {
		if _, err := d.rt.Invoke(name+suffix, req); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
	}
	for name := range d.bins {
		if !d.rt.Unregister(name + suffix) {
			tb.Fatalf("%s%s was not registered", name, suffix)
		}
	}
}

// BenchmarkColdDeploy is the repository benchmark's coldstart op,
// in-process. B/op is the figure to watch: a cycle's first instantiations
// build on the linear memories the previous cycle retired to the slab
// recycler instead of allocating their own.
func BenchmarkColdDeploy(b *testing.B) {
	d := newColdDeployer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.cycle(b, i)
	}
}

// TestColdDeploySmoke gates the bytes one deploy/retire cycle allocates
// (make cold-smoke) at 1 MiB. Allocation volume is a count, not a timing:
// 6.9 MB before the slab recycler, 1.26 MB with it, 0.51 MB since the
// memory-safety pass stopped cloning its abstract state at every branch —
// and nothing in between but a regression that sends cold starts back to
// the allocator.
func TestColdDeploySmoke(t *testing.T) {
	const (
		warm, cycles = 3, 30
		limit        = 1 << 20
	)
	d := newColdDeployer(t)
	for i := 0; i < warm; i++ {
		d.cycle(t, i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		d.cycle(t, warm+i)
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("cold deploy: %d B/cycle", perCycle)
	if perCycle > limit {
		t.Errorf("cold deploy allocates %d B/cycle, limit %d", perCycle, limit)
	}
}

func BenchmarkTable3ChurnForkExec(b *testing.B) {
	nuc, err := nuclio.New(nuclio.Config{MaxWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := nuc.SpawnNoop(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches ----

// BenchmarkAblationDeque measures the work-stealing deque against the
// mutex-protected global queue (§3.4's scalability argument).
func BenchmarkAblationDeque(b *testing.B) {
	b.Run("chase-lev-push-pop", func(b *testing.B) {
		d := sched.NewDeque[int](1024)
		v := 7
		for i := 0; i < b.N; i++ {
			d.PushBottom(&v)
			d.PopBottom()
		}
	})
	b.Run("chase-lev-push-steal", func(b *testing.B) {
		d := sched.NewDeque[int](1024)
		v := 7
		for i := 0; i < b.N; i++ {
			d.PushBottom(&v)
			d.Steal()
		}
	})
	b.Run("runq-push-pop", func(b *testing.B) {
		q := sched.NewRunq[int](1024)
		v := 7
		for i := 0; i < b.N; i++ {
			q.Push(&v)
			q.Pop()
		}
	})
	b.Run("runq-push-steal-batch", func(b *testing.B) {
		// Eight queued per round, one StealBatch moving half: the
		// amortized per-element cost of batched transfer.
		q := sched.NewRunq[int](1024)
		v := 7
		var dst [8]*int
		b.ResetTimer()
		for i := 0; i < b.N; i += 8 {
			for j := 0; j < 8; j++ {
				q.Push(&v)
			}
			q.StealBatch(dst[:], 8)
			for {
				if _, ok := q.Pop(); !ok {
					break
				}
			}
		}
	})
}

// BenchmarkAblationStartupDecoupling contrasts per-request module
// processing with Sledge's instantiate-only fast path.
func BenchmarkAblationStartupDecoupling(b *testing.B) {
	app, _ := apps.Get("gps-ekf")
	cmShared, err := app.Compile(engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decoupled-instantiate-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb, err := sandbox.New(cmShared, nil, sandbox.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sb.Fail(nil)
		}
	})
	b.Run("coupled-compile-per-request", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cm, err := app.Compile(engine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			sb, err := sandbox.New(cm, nil, sandbox.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sb.Fail(nil)
		}
	})
}

// BenchmarkAblationBoundsStrategies isolates the §3.2 memory-safety
// mechanisms on a load/store-heavy kernel.
func BenchmarkAblationBoundsStrategies(b *testing.B) {
	k, _ := polybench.Get("jacobi-2d")
	n := k.TestN * 2
	for _, bs := range []engine.BoundsStrategy{
		engine.BoundsNone, engine.BoundsGuard, engine.BoundsSoftwareFused,
		engine.BoundsSoftware, engine.BoundsMPX,
	} {
		cm, err := k.Compile(n, engine.Config{Bounds: bs})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bs.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := polybench.RunWasm(cm, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- static-analysis check-elision ablation ----

// benchChecksumSrc is a memory-bound checksum walk over a static buffer with
// constant loop bounds: the interval/induction pass can prove every access
// in-bounds, so under BoundsSoftware the analysis elides 100% of the checks.
const benchChecksumSrc = `
static u8 buf[65536];

export i32 kernel(i32 n) {
	i32 acc = 0;
	for (i32 r = 0; r < n; r = r + 1) {
		for (i32 i = 0; i < 65536; i = i + 1) {
			buf[i] = (i + r) * 31;
		}
		for (i32 i = 0; i < 65536; i = i + 1) {
			acc = acc + (i32) buf[i];
		}
	}
	return acc;
}
`

// BenchmarkAblationElision measures what the static bounds-check elision
// buys under BoundsSoftware: gemm (partial elision via availability) and the
// checksum walk (total elision via intervals + induction), each with the
// analysis pipeline on and off. The elided-frac metric is the statically
// proven share of emitted checks.
func BenchmarkAblationElision(b *testing.B) {
	modes := []struct {
		name string
		c    engine.Config
	}{
		{"elide", engine.Config{Bounds: engine.BoundsSoftware}},
		{"no-elide", engine.Config{Bounds: engine.BoundsSoftware, NoAnalysis: true}},
	}

	k, _ := polybench.Get("gemm")
	n := k.TestN * 2
	for _, mode := range modes {
		cm, err := k.Compile(n, mode.c)
		if err != nil {
			b.Fatal(err)
		}
		st := cm.Analysis()
		b.Run("gemm/"+mode.name, func(b *testing.B) {
			if st.ChecksTotal > 0 {
				b.ReportMetric(float64(st.ChecksElided)/float64(st.ChecksTotal), "elided-frac")
			}
			for i := 0; i < b.N; i++ {
				if _, err := polybench.RunWasm(cm, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	res, err := wcc.Compile(benchChecksumSrc, wcc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range modes {
		cm, err := engine.CompileBinary(res.Binary, nil, mode.c)
		if err != nil {
			b.Fatal(err)
		}
		st := cm.Analysis()
		b.Run("checksum/"+mode.name, func(b *testing.B) {
			if st.ChecksTotal > 0 {
				b.ReportMetric(float64(st.ChecksElided)/float64(st.ChecksTotal), "elided-frac")
			}
			for i := 0; i < b.N; i++ {
				in := cm.Acquire()
				if _, err := in.Invoke("kernel", 4); err != nil {
					b.Fatal(err)
				}
				cm.Release(in)
			}
		})
	}
}

// ---- helpers ----

func registerBenchApp(b *testing.B, rt *sledge.Runtime, name string) {
	b.Helper()
	app, ok := apps.Get(name)
	if !ok {
		b.Fatalf("app %s missing", name)
	}
	cm, err := app.Compile(rt.EngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.RegisterCompiled(name, cm, "main", ""); err != nil {
		b.Fatal(err)
	}
}

func serveBench(b *testing.B, rt *sledge.Runtime) string {
	b.Helper()
	ln, err := netListen()
	if err != nil {
		b.Fatal(err)
	}
	go rt.Serve(ln)
	return "http://" + ln.Addr().String()
}

func netListen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// BenchmarkAblationFusion isolates the optimized tier's superinstruction
// peephole (index arithmetic, loop counters, addressed loads).
func BenchmarkAblationFusion(b *testing.B) {
	k, _ := polybench.Get("gemm")
	n := k.TestN * 2
	for _, cfg := range []struct {
		name string
		c    engine.Config
	}{
		{"fused", engine.Config{}},
		{"no-fusion", engine.Config{NoFusion: true}},
	} {
		cm, err := k.Compile(n, cfg.c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := polybench.RunWasm(cm, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
