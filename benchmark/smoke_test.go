package main

import (
	"math"
	"os"
	"runtime"
	"testing"
)

// A one-second run of every workload: every op is validated, so this is
// also the test that the seeded payloads agree with the native oracles.
func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 3, seconds: 1}
			sys, err := setUp(w, o.seed, runtime.GOMAXPROCS(0))
			if err != nil {
				t.Fatal(err)
			}
			res := runUntraced(sys, o)
			if err := sys.close(); err != nil {
				t.Error(err)
			}
			if res.Failed != 0 || res.Attempted < 10 {
				t.Errorf("%d ops attempted, %d failed", res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if d.Name == "setup_s" {
					continue // timed by the parent process, around the child
				}
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (v <= 0 && d.Name != "peak_rss_mb") {
					t.Errorf("%s = %v (present: %v)", d.Name, v, ok)
				}
			}
			if len(res.Metrics) != len(endToEnd)-1 {
				t.Errorf("%d metrics reported, %d named", len(res.Metrics), len(endToEnd)-1)
			}
		})
	}
	if mib, err := peakRSSMiB(); err != nil || mib <= 0 {
		t.Errorf("peak RSS %v MiB, %v", mib, err)
	}
}

// A short traced run: the three passes, every per-layer name, the trace
// file.
func TestSmokeTraced(t *testing.T) {
	// The trace goes to ./out; keep it out of the source directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	w := workloadByName("coldstart")
	o := options{workload: w.name, seed: 3, seconds: 1, trace: 1}
	sys, err := setUp(w, o.seed, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runTraced(sys, o)
	if cerr := sys.close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted < 10 {
		t.Errorf("%d ops attempted, %d failed", res.Attempted, res.Failed)
	}
	for _, d := range perLayer {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present: %v)", d.Name, v, ok)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d named", len(res.Metrics), len(perLayer))
	}
	// What a coldstart op must have exercised, and what must stay zero.
	for _, name := range []string{
		"core.register_us", "core.first_invoke_us", "core.unregister_us", "sandbox.first_new_us",
		"core.invoke_us", "httpd.self_us", "engine.run_us", "engine.gas.gocr", "engine.compile_us.cifar10",
		"engine.resident_bytes.lpd", "wasm.decode_us", "analysis.analyze_us", "httpd.null_rtt_us", "trace.spans",
	} {
		if res.Metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name])
		}
	}
	for _, name := range []string{"admission.shed", "admission.queued", "core.abandoned", "httpd.timed_out"} {
		if res.Metrics[name] != 0 {
			t.Errorf("%s = %v, want 0", name, res.Metrics[name])
		}
	}
	if st, err := os.Stat("out/trace-coldstart.json"); err != nil || st.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
