package experiments

import (
	"bytes"
	"testing"
)

// TestTierupSmoke runs the adaptive-tiering benchmark end-to-end at quick
// sizes: both halves must complete, every response must match (the zipf
// driver verifies each reply against the pre-swap answer internally), and
// the qualitative ordering must hold — the cheap rungs register strictly
// faster than the static full pipeline. The full-size numbers (and the
// >= 0.95 steady ratio) come from `make bench-tierup`.
func TestTierupSmoke(t *testing.T) {
	var snap tierupSnapshot
	tables, err := runTierup(Options{Quick: true}, &snap)
	if err != nil {
		t.Fatalf("tierup: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("tierup produced %d tables, want 2", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s has no rows", tbl.ID)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		t.Logf("\n%s", buf.String())
	}
	if len(snap.Storm.Modes) != 3 {
		t.Fatalf("storm ran %d modes, want 3", len(snap.Storm.Modes))
	}
	if snap.Storm.SpeedupCheapVsFull <= 1 {
		t.Errorf("cheap-rung registration not faster than static-full: %.2fx", snap.Storm.SpeedupCheapVsFull)
	}
	if snap.Storm.SpeedupNaiveVsFull <= 1 {
		t.Errorf("naive-rung registration not faster than static-full: %.2fx", snap.Storm.SpeedupNaiveVsFull)
	}
	if len(snap.Zipf.Modes) != 4 {
		t.Fatalf("zipf ran %d modes, want 4", len(snap.Zipf.Modes))
	}
	for _, m := range snap.Zipf.Modes {
		if m.Requests == 0 {
			t.Errorf("zipf %s completed no requests", m.Mode)
		}
		if m.Mode == "adaptive" && m.Promotions == 0 {
			t.Errorf("adaptive zipf run promoted nothing")
		}
	}
}
