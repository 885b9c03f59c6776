package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// readSet reads a file of records, one JSON object per line, as written by
// --out.
func readSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var set []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		set = append(set, r)
	}
	return set, sc.Err()
}

// values collects one metric of one workload over a set's runs.
func values(set []record, workload, metric string, trace int) []float64 {
	var v []float64
	for _, r := range set {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict places set B's median against set A's under the metric's bound.
// worse is how much worse B is, as a share of A. A spread between a set's
// own repeats that is wider than the bound leaves the row unresolved: the
// runs cannot tell a change of that size from noise.
func verdict(a, b []float64, d e2eDef) (ratio, spread float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, 0, "unresolved"
	}
	ratio = mb / ma
	worse := ratio - 1
	if d.Better == "higher" {
		worse = -worse
	}
	spread = max(spreadShare(a), spreadShare(b))
	switch {
	case spread > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "worse"
	case worse < -d.Bound:
		v = "better"
	default:
		v = "within bound"
	}
	return ratio, spread, v
}

// compareSets prints one row per workload and end-to-end metric, then checks
// what must hold of every run: no failed op, and gas counts that repeat
// exactly. It reports whether both held and no row is worse. Runs whose
// generator fell behind its schedule are listed but fail nothing: lateness
// is inside the latencies, and the rows above already judge those.
func compareSets(w io.Writer, a, b []record) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (n)\tB median (n)\tB/A\tspread\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.name, d.Name, 0), values(b, wl.name, d.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, spread, v := verdict(va, vb, d)
			ok = ok && v != "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (%d)\t%.4g %s (%d)\t%.3f of A\t%.3f\t%.2f\t%s\n",
				wl.name, d.Name, median(va), d.Unit, len(va), median(vb), d.Unit, len(vb), ratio, spread, d.Bound, v)
		}
	}
	tw.Flush()

	all := append(append([]record(nil), a...), b...)
	for _, r := range all {
		if r.Failed > 0 {
			ok = false
			fmt.Fprintf(w, "FAILED OPS: %s seed %d trace %d: %d of %d\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
		}
		if late, has := r.Metrics["loadgen.late_share"]; has && late.Value > 0.01 {
			fmt.Fprintf(w, "late sends: %s seed %d: late_share %.4f > 0.01\n", r.Workload, r.Seed, late.Value)
		}
	}
	gas := make(map[string]map[float64]bool)
	for _, r := range all {
		for name, m := range r.Metrics {
			if strings.HasPrefix(name, "engine.gas.") {
				if gas[name] == nil {
					gas[name] = make(map[float64]bool)
				}
				gas[name][m.Value] = true
			}
		}
	}
	names := make([]string, 0, len(gas))
	for name := range gas {
		names = append(names, name)
	}
	sort.Strings(names)
	same := true
	for _, name := range names {
		if len(gas[name]) > 1 {
			same = false
			fmt.Fprintf(w, "GAS DIFFERS: %s took %d different values\n", name, len(gas[name]))
		}
	}
	if len(names) > 0 && same {
		fmt.Fprintf(w, "gas: %d counts identical across all traced runs\n", len(names))
	}
	return ok && same
}

// compareMain is `benchmark compare A B`: exit status 1 when a row is worse,
// an op failed or a gas count moved; 2 on a usage or read error.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.jsonl B.jsonl   (files written by --out)")
		return 2
	}
	var sets [2][]record
	for i := range sets {
		set, err := readSet(fs.Arg(i))
		if err == nil && len(set) == 0 {
			err = fmt.Errorf("%s holds no runs", fs.Arg(i))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		sets[i] = set
	}
	a, b := sets[0], sets[1]
	fmt.Fprintf(w, "A: %s  %+v\nB: %s  %+v\n", fs.Arg(0), a[0].Env, fs.Arg(1), b[0].Env)
	if !compareSets(w, a, b) {
		return 1
	}
	return 0
}
