package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file is the single source of the benchmark's names: workloads,
// end-to-end metrics with their regression bounds, and per-layer metrics.
// BENCHMARK.json at the repository root is `go run . spec` of these tables;
// TestSpecMatchesBenchmarkJSON fails when the two drift.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 30

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// endToEnd lists what a user of the runtime sees. A bound covers all four
// workloads, so the noisiest sets it; they come from ten-seed repeat sets on
// the 2-core build machine (README, "Bounds"). failed_share from the issue
// is not a metric here: the result's own `failed`/`attempted` keys carry it,
// and a metric whose healthy value is 0 has no median to bound.
var endToEnd = []e2eDef{
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p95_us", "us", "lower", 0.25},
	{"throughput_rps", "ops/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var workloadDefs = []workloadDef{
	{"ping", "1-byte reply (fig6): httpd, core, admission, sched and sandbox do nearly all the work and engine almost none, so any cost added to the hot path shows here first; paced at 16000/s"},
	{"gocr", "OCR app, 740k gas, under one quantum: engine execution is at least 95% of the request, so an interpreter or lowering change must show here and the runtime layers are noise; paced at 400/s"},
	{"isolation", "Workers=1; a closed-loop cifar10 tenant (8 quanta per request) runs beside the measured gps-ekf tenant: fuel-slice preemption and round-robin set latency, not engine speed; paced at 50/s"},
	{"coldstart", "one op registers the ten suite binaries under fresh names, sends a first request to five of them and unregisters: decode, validate, analysis, lowering, snapshot and first instantiate; paced at 150/s"},
}

// execApps are the apps the direct pass executes for engine.exec_us.<app>;
// moduleNames are the ten binaries a coldstart op deploys.
var (
	execApps    = []string{"ping", "echo", "gps-ekf", "gocr", "cifar10", "resize", "lpd", "spin"}
	moduleNames = []string{"ping", "echo", "gps-ekf", "gocr", "cifar10", "resize", "rgb2gray", "lpd", "spin", "fetch"}
)

// perLayer is built once from the fixed rows plus the per-app and
// per-module expansions.
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	defs := []layerDef{
		{"loadgen.late_share", "ratio", "lower"},
		{"loadgen.latency_p999_us", "us", "lower"},
		{"loadgen.latency_max_us", "us", "lower"},
		{"loadgen.samples", "count", "higher"},

		{"httpd.self_us", "us", "lower"},
		{"httpd.null_rtt_us", "us", "lower"},
		{"httpd.parse_ns", "ns", "lower"},
		{"httpd.accepted", "count", "lower"},
		{"httpd.timed_out", "count", "lower"},

		{"core.invoke_us", "us", "lower"},
		{"core.self_us", "us", "lower"},
		{"core.budget_residual_share", "ratio", "lower"},
		{"core.abandoned", "count", "lower"},
		{"core.register_us", "us", "lower"},
		{"core.first_invoke_us", "us", "lower"},
		{"core.unregister_us", "us", "lower"},

		{"admission.admit_ns", "ns", "lower"},
		{"admission.done_ns", "ns", "lower"},
		{"admission.shed", "count", "lower"},
		{"admission.queued", "count", "lower"},

		{"sandbox.new_ns", "ns", "lower"},
		{"sandbox.release_ns", "ns", "lower"},
		{"sandbox.first_new_us", "us", "lower"},

		{"sched.submit_ns", "ns", "lower"},
		{"sched.wake_us", "us", "lower"},
		{"sched.queue_wait_us", "us", "lower"},
		{"sched.queue_wait_p99_us", "us", "lower"},
		{"sched.preemptions_per_req", "count", "lower"},
		{"sched.fuel_quantum", "gas", "higher"},
		{"sched.steals", "count", "lower"},
		{"sched.utilization", "ratio", "lower"},

		{"engine.run_us", "us", "lower"},
	}
	for _, app := range execApps {
		defs = append(defs, layerDef{"engine.exec_us." + app, "us", "lower"})
	}
	for _, app := range execApps {
		defs = append(defs, layerDef{"engine.gas." + app, "gas", "lower"})
	}
	for _, app := range execApps {
		defs = append(defs, layerDef{"engine.ns_per_gas." + app, "ns/gas", "lower"})
	}
	defs = append(defs,
		layerDef{"engine.ns_per_gas_geomean", "ns/gas", "lower"},
		layerDef{"engine.acquire_ns", "ns", "lower"},
		layerDef{"engine.release_ns", "ns", "lower"},
	)
	for _, m := range moduleNames {
		defs = append(defs, layerDef{"engine.compile_us." + m, "us", "lower"})
	}
	for _, m := range moduleNames {
		defs = append(defs, layerDef{"engine.resident_bytes." + m, "bytes", "lower"})
	}
	return append(defs,
		layerDef{"analysis.analyze_us", "us", "lower"},
		layerDef{"analysis.checks_elided_share", "ratio", "higher"},
		layerDef{"wasm.decode_us", "us", "lower"},
		layerDef{"wasm.validate_us", "us", "lower"},
		layerDef{"abi.echo_ns_per_kib", "ns/KiB", "lower"},

		layerDef{"proc.allocs_per_op", "count", "lower"},
		layerDef{"proc.bytes_per_op", "bytes", "lower"},
		layerDef{"proc.gc_cycles", "count", "lower"},
		layerDef{"proc.gc_pause_ms", "ms", "lower"},
		layerDef{"proc.heap_inuse_mb", "MiB", "lower"},

		layerDef{"isolation.long_rps", "ops/s", "higher"},
		layerDef{"isolation.long_preemptions_per_req", "count", "lower"},

		layerDef{"trace.overhead_share", "ratio", "lower"},
		layerDef{"trace.spans", "count", "higher"},
	)
}

// writeSpec prints BENCHMARK.json.
func writeSpec(w io.Writer) error {
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
