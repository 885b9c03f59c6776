package experiments

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/nuclio"
	"sledge/internal/workloads/polybench"
)

// TestMain lets the re-executed test binary serve as a nuclio worker for
// the serverless experiments.
func TestMain(m *testing.M) {
	if nuclio.MaybeWorkerMain() {
		return
	}
	os.Exit(m.Run())
}

// TestAllExperimentsQuick runs every registered experiment in quick mode:
// this is the end-to-end check that each paper table/figure can actually be
// regenerated.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, id := range IDs() {
		if id == "table1" {
			continue // produced together with fig5
		}
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Registry[id](Options{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", id)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s/%s has no rows", id, tbl.ID)
				}
				var buf bytes.Buffer
				tbl.Render(&buf)
				if !strings.Contains(buf.String(), tbl.Title) {
					t.Errorf("%s render missing title", tbl.ID)
				}
				t.Logf("\n%s", buf.String())
			}
		})
	}
}

// TestFig5OrderingShape asserts the part of the paper's qualitative result
// that a timing can carry on a shared vCPU: the naive (Cranelift-class)
// tier costs a multiple of the optimized tier. The few-percent gap between
// guard and the explicit-check configurations is not asserted as a timing
// (with 5-10 % slack it failed two or three runs in fifteen on any tree);
// TestFig5ChecksAreExecuted holds what that gap consists of, as a count.
func TestFig5OrderingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 shape check skipped in -short mode")
	}
	// Medium problem sizes on a kernel subset: quick-mode sizes are too
	// noisy for ordering assertions.
	tables, err := runFig5Table1(Options{
		KernelFilter: []string{"gemm", "jacobi-2d", "trisolv", "floyd-warshall"},
	})
	if err != nil {
		t.Fatalf("fig5: %v", err)
	}
	table1 := tables[1]
	am := map[string]float64{}
	for _, row := range table1.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "x"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[1], err)
		}
		am[row[0]] = v
	}
	assertLess := func(a, b string, slack float64) {
		t.Helper()
		if am[a]*slack >= am[b] {
			t.Errorf("expected %s (%.2f) faster than %s (%.2f) beyond slack %.2f",
				a, am[a], b, am[b], slack)
		}
	}
	// Tier-level gaps (2-3x), asserted strictly.
	assertLess("Sledge+aWsm", "Lucet-class", 1.1)
	assertLess("Sledge+aWsm", "Wasmer-class", 1.2)
	assertLess("WAVM-class", "Wasmer-class", 1.2)
	assertLess("Lucet-class", "Wasmer-class", 1.05)
}

// TestFig5ChecksAreExecuted is the deterministic half of the fig5 ordering
// guard < bounds-chk, mpx: the explicit-check configurations execute check
// instructions the guard configuration does not. Dispatches are counted the
// way TestDispatchBudget (internal/workloads/apps) counts them — under
// NoBlockMeter a fuel step is a dispatch — exactly, one step at a time. The
// strategies differ in nothing but the iBoundsCheck / iMPXCheck they emit
// (and a move where a check needs a pending address in a slot), so the
// difference is those, dispatched.
func TestFig5ChecksAreExecuted(t *testing.T) {
	dispatches := func(k *polybench.Kernel, b engine.BoundsStrategy) int64 {
		cm, err := k.Compile(k.TestN, engine.Config{Bounds: b, NoBlockMeter: true})
		if err != nil {
			t.Fatalf("%s/%s: %v", k.Name, b, err)
		}
		inst := cm.Instantiate()
		inst.HostData = abi.NewContext(nil)
		if err := inst.Start("kernel", uint64(uint32(k.TestN))); err != nil {
			t.Fatalf("%s/%s: %v", k.Name, b, err)
		}
		for n := int64(1); ; n++ {
			switch st, err := inst.Run(1); st {
			case engine.StatusDone:
				return n
			case engine.StatusYielded:
			default:
				t.Fatalf("%s/%s: status %v, %v", k.Name, b, st, err)
			}
		}
	}
	for _, name := range []string{"gemm", "jacobi-2d", "trisolv", "floyd-warshall"} {
		k, ok := polybench.Get(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		guard := dispatches(k, engine.BoundsGuard)
		for _, b := range []engine.BoundsStrategy{engine.BoundsSoftware, engine.BoundsMPX} {
			checked := dispatches(k, b)
			t.Logf("%s: %d dispatches under %s, %d under guard", name, checked, b, guard)
			if checked <= guard {
				t.Errorf("%s: %d dispatches under %s, %d under guard: no check instruction is executed", name, checked, b, guard)
			}
		}
		if none := dispatches(k, engine.BoundsNone); none != guard {
			t.Errorf("%s: %d dispatches under none, %d under guard: guard executes check instructions", name, none, guard)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Headers: []string{"a", "bbbb"},
		Rows:    [][]string{{"longvalue", "1"}, {"s", "22"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "longvalue", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestIDsCoverRegistry(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := Registry[id]; !ok {
			t.Errorf("id %s missing from registry", id)
		}
	}
}
