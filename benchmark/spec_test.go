package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from the tables in spec.go; regenerate it with
// `go run . spec > ../BENCHMARK.json` when they change.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("BENCHMARK.json differs from `go run . spec`")
	}
	if got.Len() > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", got.Len())
	}
}

// The limits the pipeline puts on names, units and reasons.
func TestSpecWithinLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit, d.Better)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n != 93 {
		t.Errorf("%d per-layer metrics, the issue lists 93", n)
	}
	if len(workloadDefs) != len(workloads) {
		t.Fatalf("%d workload reasons for %d workloads", len(workloadDefs), len(workloads))
	}
	for i, d := range workloadDefs {
		if d.Name != workloads[i].name || !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, d.Name, workloads[i].name)
		}
		seen[d.Name] = true
		if len(d.Why) == 0 || len(d.Why) > 200 || bytes.ContainsAny([]byte(d.Why), "\n\r") {
			t.Errorf("%s: reason is %d characters on one line?", d.Name, len(d.Why))
		}
	}
}
