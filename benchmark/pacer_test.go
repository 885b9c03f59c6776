package main

import (
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	start := time.Now()
	const rate, lanes = 1000.0, 2 // a 2 ms gap per lane
	a := newSchedule(start, rate, 0, lanes, 7)
	b := newSchedule(start, rate, 1, lanes, 7)
	again := newSchedule(start, rate, 0, lanes, 7)
	if a.gap != 2*time.Millisecond || b.offset != time.Millisecond {
		t.Fatalf("gap %v, lane 1 offset %v", a.gap, b.offset)
	}
	var prev time.Time
	for i := 0; i < 1000; i++ {
		due := a.due(i)
		if !due.Equal(again.due(i)) {
			t.Fatalf("op %d: the same seed gave another due time", i)
		}
		base := start.Add(time.Duration(i) * a.gap)
		if due.Before(base) || due.After(base.Add(a.gap/2)) {
			t.Fatalf("op %d due %v after its slot, outside the jitter of half a gap", i, due.Sub(base))
		}
		if i > 0 && due.Sub(prev) < a.gap/2 {
			t.Fatalf("op %d due only %v after op %d", i, due.Sub(prev), i-1)
		}
		prev = due
	}
	if other := newSchedule(start, rate, 0, lanes, 8); other.due(0).Equal(newSchedule(start, rate, 0, lanes, 7).due(0)) &&
		other.due(1).Equal(a.due(1)) {
		t.Error("another seed gave the same due times")
	}
	if got := a.lateAfter(); got != 200*time.Microsecond {
		t.Errorf("lateAfter = %v with a 2 ms gap", got)
	}
}

func TestSleeperIsPrecise(t *testing.T) {
	s, err := newSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for _, d := range []time.Duration{300 * time.Microsecond, 3 * time.Millisecond} {
		due := time.Now().Add(d)
		woke, err := s.waitUntil(due)
		if err != nil {
			t.Fatal(err)
		}
		if woke.Before(due) {
			t.Errorf("woke %v before a time %v away", due.Sub(woke), d)
		}
	}
	past := time.Now().Add(-time.Second)
	if woke, _ := s.waitUntil(past); woke.Sub(past) < time.Second {
		t.Error("waitUntil a past time did not report how late it is")
	}
}

// A slow op delays the sends behind it. The lateness must be counted, and
// the latency of a late op must run from its due time, not from its send.
func TestPacedLaneCountsLatenessFromDueTime(t *testing.T) {
	const slow = 60 * time.Millisecond
	l := &lane{measured: true, root: -1, op: func(_ *lane, i int) error {
		if i == 0 {
			time.Sleep(slow)
		}
		return nil
	}}
	start := time.Now()
	// 100 ops/s on one lane: due at 0..5, 10..15, 20..25 ms and so on; the
	// first op takes 60 ms, so ops 1 to 5 are sent late.
	res := runLane(l, newSchedule(start, 100, 0, 1, 1), start, start.Add(200*time.Millisecond))
	if res.failed != 0 || res.ok < 15 {
		t.Fatalf("ok %d, failed %d", res.ok, res.failed)
	}
	if res.late < 4 || res.late > 8 {
		t.Errorf("late sends = %d, want the 5 behind the slow op", res.late)
	}
	if got := time.Duration(res.lat[0]); got < slow {
		t.Errorf("slow op's latency %v < %v", got, slow)
	}
	// Op 1 was due by 15 ms and could not go before 60 ms.
	if got := time.Duration(res.lat[1]); got < 40*time.Millisecond {
		t.Errorf("op 1 latency %v: not timed from its due time", got)
	}
	last := time.Duration(res.lat[len(res.lat)-1])
	if last > 5*time.Millisecond {
		t.Errorf("last op latency %v: the lane never caught up", last)
	}
}
