package apps

import (
	"bytes"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
)

// dispatchBudgets holds, per app, the number of interpreter dispatches one
// canonical request (GenRequest) may cost in the full form. It is a count,
// not a timing: under NoBlockMeter the loop spends one fuel step per
// dispatch, so Start + Run(k) until done counts dispatches on the very code
// a default-metered run executes (the same charges are emitted, and the same
// ones are paid by branches, in both modes) with no counter in the hot loop. k = 1 counts exactly; k = 4096
// over-counts by less than k, under 0.06 % of the multi-million rows.
//
// limit is the measured count plus 2 %. before is the exact count on the
// lowering this one replaced, in which every gas charge was a dispatched
// instruction (a sixth to a quarter of all dispatches on four of the five
// apps): the record of what letting a branch pay the charge it leads to
// bought. What is left of the charges (3–7 % of dispatches, 0.06 % on lpd)
// is reached by falling out of straight-line code, not through a branch.
var dispatchBudgets = []struct {
	app    string
	k      int64
	limit  int64 // measured: 223 502, 6 582 272, 14 136, 36 458 496, 17 256 448
	before int64
}{
	{"gocr", 1, 227_900, 275_704},
	{"cifar10", 4096, 6_713_900, 7_611_390},
	{"gps-ekf", 1, 14_410, 16_431},
	{"lpd", 4096, 37_187_600, 38_852_654},
	{"resize", 4096, 17_601_500, 18_582_976},
}

// TestDispatchBudget holds the lowering to its dispatch counts, and keeps
// the count from being bought with a wrong answer: the stepped run's reply
// must equal Native and its gas the default-metered run's.
func TestDispatchBudget(t *testing.T) {
	for _, row := range dispatchBudgets {
		row := row
		t.Run(row.app, func(t *testing.T) {
			if raceEnabled && row.k > 1 {
				t.Skip("tens of millions of instrumented dispatches; the exact rows cover the same code under -race")
			}
			a, ok := Get(row.app)
			if !ok {
				t.Fatalf("no app %q", row.app)
			}
			req := a.GenRequest()
			want := a.Native(req)

			ref, err := a.Compile(engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			refInst := ref.Acquire()
			refInst.HostData = abi.NewContext(req)
			if _, err := refInst.Invoke("main"); err != nil {
				t.Fatalf("default metering: %v", err)
			}
			wantGas := refInst.Gas
			ref.Release(refInst)

			cm, err := a.Compile(engine.Config{NoBlockMeter: true})
			if err != nil {
				t.Fatal(err)
			}
			inst := cm.Acquire()
			ctx := abi.NewContext(req)
			inst.HostData = ctx
			if err := inst.Start("main"); err != nil {
				t.Fatal(err)
			}
			var dispatches int64
			for {
				st, err := inst.Run(row.k)
				dispatches += row.k
				if st == engine.StatusDone {
					break
				}
				if st != engine.StatusYielded {
					t.Fatalf("after %d dispatches: status %v, err %v", dispatches, st, err)
				}
			}
			got, err := ctx.ResolveOutput(inst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stepped reply differs from Native (%d vs %d bytes)", len(got), len(want))
			}
			if inst.Gas != wantGas {
				t.Errorf("stepped run charged %d gas, default metering %d", inst.Gas, wantGas)
			}
			t.Logf("%s: %d dispatches (limit %d, %.1f%% below the %d before), %d gas", row.app, dispatches,
				row.limit, 100*float64(row.before-dispatches)/float64(row.before), row.before, inst.Gas)
			if dispatches > row.limit {
				t.Errorf("%s: %d dispatches per request, budget %d", row.app, dispatches, row.limit)
			}
			cm.Release(inst)
		})
	}
}
