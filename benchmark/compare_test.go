package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := e2eDef{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := e2eDef{Name: "throughput_rps", Unit: "ops/s", Better: "higher", Bound: 0.10}
	steady := []float64{99, 100, 100, 100, 101}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []float64
		d    e2eDef
		want string
	}{
		{"same", steady, steady, lower, "within bound"},
		{"5% slower", steady, scale(1.05), lower, "within bound"},
		{"20% slower", steady, scale(1.2), lower, "worse"},
		{"20% faster", steady, scale(0.8), lower, "better"},
		{"20% more throughput", steady, scale(1.2), higher, "better"},
		{"20% less throughput", steady, scale(0.8), higher, "worse"},
		{"noisy repeats", []float64{60, 80, 100, 120, 140}, scale(1.5), lower, "unresolved"},
		{"zero base", []float64{0, 0}, steady, lower, "unresolved"},
	} {
		if _, _, got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if ratio, _, _ := verdict(steady, scale(1.2), lower); ratio < 1.19 || ratio > 1.21 {
		t.Errorf("ratio %v, want B/A = 1.2", ratio)
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, gas float64, failed int) string {
		var buf bytes.Buffer
		for seed := int64(1); seed <= 5; seed++ {
			for _, r := range []record{
				{Workload: "ping", Seed: seed, Attempted: 100, Failed: failed, Metrics: map[string]reported{
					"latency_p50_us": {p50 + float64(seed)/10, "us"}, "throughput_rps": {90000, "ops/s"}}},
				{Workload: "ping", Seed: seed, Trace: 1, Attempted: 100, Metrics: map[string]reported{
					"engine.gas.ping": {gas, "gas"}, "loadgen.late_share": {0.001, "ratio"}}},
			} {
				line, _ := json.Marshal(r)
				buf.Write(append(line, '\n'))
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 60, 15, 0)
	var out bytes.Buffer
	if code := compareMain([]string{base, write("same.jsonl", 61, 15, 0)}, &out); code != 0 {
		t.Errorf("a run within bound exits %d:\n%s", code, out.String())
	}
	for _, want := range []string{"ping", "latency_p50_us", "throughput_rps", "within bound", "of A", "0.25", "gas: 1 counts identical"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareMain([]string{base, write("slow.jsonl", 90, 15, 0)}, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% slower run exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, write("gas.jsonl", 60, 16, 0)}, &out); code != 1 || !strings.Contains(out.String(), "GAS DIFFERS") {
		t.Errorf("a gas count that moved exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, write("failed.jsonl", 60, 15, 3)}, &out); code != 1 || !strings.Contains(out.String(), "FAILED OPS") {
		t.Errorf("failed ops exit %d:\n%s", code, out.String())
	}
	if code := compareMain([]string{base}, &out); code != 2 {
		t.Errorf("one file exits %d", code)
	}
	if code := compareMain([]string{base, filepath.Join(dir, "missing")}, &out); code != 2 {
		t.Errorf("a missing file exits %d", code)
	}
}
