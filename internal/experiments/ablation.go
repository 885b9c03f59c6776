package experiments

import (
	"bytes"
	"fmt"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/sandbox"
	"sledge/internal/stats"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// RunAblationBounds re-runs two applications under every bounds strategy —
// the end-to-end cost of each §3.2 memory-safety mechanism.
func RunAblationBounds(o Options) ([]*Table, error) {
	iters := 50
	if o.Quick {
		iters = 5
	}
	strategies := []engine.BoundsStrategy{
		engine.BoundsNone, engine.BoundsGuard, engine.BoundsSoftwareFused,
		engine.BoundsSoftware, engine.BoundsMPX,
	}
	tbl := &Table{
		ID:      "ablation-bounds",
		Title:   "Bounds-check strategies on application latency (mean)",
		Headers: append([]string{"application"}, strategyNames(strategies)...),
	}
	for _, name := range []string{"gocr", "cifar10"} {
		app, _ := apps.Get(name)
		req := app.GenRequest()
		want := app.Native(req)
		row := []string{name}
		for _, bs := range strategies {
			cm, err := app.Compile(engine.Config{Bounds: bs})
			if err != nil {
				return nil, err
			}
			// Warm the allocator and caches before timing.
			for i := 0; i < 3; i++ {
				if _, err := apps.RunWasm(cm, req); err != nil {
					return nil, err
				}
			}
			lats := make([]time.Duration, 0, iters)
			for i := 0; i < iters; i++ {
				t0 := time.Now()
				got, err := apps.RunWasm(cm, req)
				lats = append(lats, time.Since(t0))
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(got, want) {
					return nil, fmt.Errorf("ablation-bounds: %s/%s diverged", name, bs)
				}
			}
			row = append(row, stats.Summarize(lats).Mean.String())
		}
		tbl.Rows = append(tbl.Rows, row)
		o.logf("ablation-bounds: %s done", name)
	}
	return []*Table{tbl}, nil
}

func strategyNames(ss []engine.BoundsStrategy) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.String()
	}
	return out
}

// RunAblationStartup quantifies the paper's decoupling of linking/loading
// from instantiation: per-request cost when the module is re-processed each
// time vs instantiated from the preloaded module.
func RunAblationStartup(o Options) ([]*Table, error) {
	iters := 300
	if o.Quick {
		iters = 30
	}
	app, _ := apps.Get("gps-ekf")
	res, err := wcc.Compile(app.Source, wcc.Options{HeapBytes: app.HeapBytes, Data: app.Data})
	if err != nil {
		return nil, err
	}
	host := abi.Registry()

	// Coupled: decode + validate + lower per request (cold path).
	coupled := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		cm, err := engine.CompileBinary(res.Binary, host, engine.Config{})
		if err != nil {
			return nil, err
		}
		sb, err := sandbox.New(cm, nil, sandbox.Options{})
		if err != nil {
			return nil, err
		}
		sb.Fail(nil)
		coupled = append(coupled, time.Since(t0))
	}

	// Decoupled: compile once, instantiate per request (the Sledge design).
	cm, err := engine.CompileBinary(res.Binary, host, engine.Config{})
	if err != nil {
		return nil, err
	}
	decoupled := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		sb, err := sandbox.New(cm, nil, sandbox.Options{})
		if err != nil {
			return nil, err
		}
		sb.Fail(nil)
		decoupled = append(decoupled, time.Since(t0))
	}

	cs := stats.Summarize(coupled)
	ds := stats.Summarize(decoupled)
	tbl := &Table{
		ID:      "ablation-startup",
		Title:   "Decoupled linking/loading vs per-request module processing (GPS-EKF)",
		Headers: []string{"design", "avg", "p99"},
		Rows: [][]string{
			{"coupled (process module per request)", cs.Mean.String(), cs.P99.String()},
			{"decoupled (Sledge: instantiate only)", ds.Mean.String(), ds.P99.String()},
		},
		Notes: []string{
			fmt.Sprintf("decoupling makes startup %.0fx cheaper", float64(cs.Mean)/float64(ds.Mean)),
		},
	}
	return []*Table{tbl}, nil
}
