package main

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
)

// phase is one stretch of traffic over a workload's lanes.
type phase struct {
	dur time.Duration
	// rate > 0 paces the measured lanes at rate ops per second in total and
	// times each op from when it was due; 0 runs them closed-loop, each lane
	// sending its next op when the previous reply arrives. Lanes that are
	// not measured are always closed-loop.
	rate float64
	seed int64
}

// laneResult is what one lane did in one phase.
type laneResult struct {
	ok, failed int
	late       int
	elapsed    time.Duration
	lat        []int64 // paced: ns per op from its due time
	firstErr   error
}

type phaseResult struct {
	lanes   []laneResult
	elapsed time.Duration
	cpu     time.Duration // process user+sys over the phase
}

// runPhase drives every lane for p.dur and waits for all of them.
func runPhase(lanes []*lane, p phase) phaseResult {
	measured := 0
	for _, l := range lanes {
		if l.measured {
			measured++
		}
	}
	res := phaseResult{lanes: make([]laneResult, len(lanes))}
	cpu0 := processCPU()
	start := time.Now()
	end := start.Add(p.dur)
	var wg sync.WaitGroup
	k := 0
	for i, l := range lanes {
		var sched *schedule
		if p.rate > 0 && l.measured {
			sched = newSchedule(start, p.rate, k, measured, p.seed)
			k++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.lanes[i] = runLane(l, sched, start, end)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	return res
}

// runLane runs one lane until end. The sample buffer is sized before the
// first op, so that recording a latency never allocates.
func runLane(l *lane, sched *schedule, start, end time.Time) laneResult {
	var r laneResult
	var timer *sleeper
	if sched != nil {
		r.lat = make([]int64, 0, int(end.Sub(start)/sched.gap)+16)
		var err error
		if timer, err = newSleeper(); err != nil {
			return laneResult{failed: 1, firstErr: err}
		}
		defer timer.close()
	}
	for i := 0; ; i++ {
		var due, sent time.Time
		if sched != nil {
			if due = sched.due(i); !due.Before(end) {
				break
			}
			var err error
			if sent, err = timer.waitUntil(due); err != nil {
				r.failed++
				r.firstErr = err
				break
			}
			if sent.Sub(due) > sched.lateAfter() {
				r.late++
			}
		} else if sent = time.Now(); !sent.Before(end) {
			break
		}
		if l.rec != nil {
			if l.root = l.rec.begin(spanOp, -1, -1); l.root >= 0 {
				l.rec.spans[l.root].bg = !l.measured
			}
		}
		err := l.op(l, i)
		if l.rec != nil {
			l.rec.end(l.root)
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		} else {
			r.ok++
		}
		if sched != nil && len(r.lat) < cap(r.lat) {
			r.lat = append(r.lat, int64(time.Since(due)))
		}
	}
	r.elapsed = time.Since(start)
	return r
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally adds a phase to the run's op counts and reports each lane's first
// failure, naming the app.
type tally struct{ attempted, failed int }

func (t *tally) add(name string, res phaseResult) {
	for i, lr := range res.lanes {
		t.attempted += lr.ok + lr.failed
		t.failed += lr.failed
		if lr.firstErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: lane %d: %d failed ops, first: %v\n", name, i, lr.failed, lr.firstErr)
		}
	}
}

// measuredLatencies merges the measured lanes' samples.
func measuredLatencies(lanes []*lane, res phaseResult) (lat []int64, late, sent int) {
	for i, l := range lanes {
		if l.measured {
			lat = append(lat, res.lanes[i].lat...)
			late += res.lanes[i].late
			sent += res.lanes[i].ok + res.lanes[i].failed
		}
	}
	return lat, late, sent
}

// rateOf sums the lanes' correct replies per second, each over the lane's
// own running time.
func rateOf(lanes []*lane, res phaseResult, measured bool) (rps float64, ok int) {
	for i, l := range lanes {
		if l.measured == measured && res.lanes[i].elapsed > 0 {
			rps += float64(res.lanes[i].ok) / res.lanes[i].elapsed.Seconds()
			ok += res.lanes[i].ok
		}
	}
	return rps, ok
}

// httpInvoker is the lean client as an invoker. Untraced, it sends the
// bytes prebuilt at set-up; traced, it opens a client.request span and
// sends the span's index along.
type httpInvoker struct{ c *client }

func (h httpInvoker) close() { h.c.close() }

func (h httpInvoker) invoke(l *lane, module string, r *request) error {
	c := h.c
	if l.rec == nil {
		wire := r.wire
		if module != r.app {
			c.wbuf = appendRequest(c.wbuf[:0], module, -1, r.body)
			wire = c.wbuf
		}
		return c.roundTrip(wire, r.want)
	}
	idx := l.rec.begin(spanClientRequest, l.root, l.root)
	c.wbuf = appendRequest(c.wbuf[:0], module, idx, r.body)
	err := c.roundTrip(c.wbuf, r.want)
	l.rec.end(idx)
	return err
}

// httpLanes connects the workload's lanes to addr. Every round trip must
// end by the deadline.
func (sys *system) httpLanes(addr string, rec *recorder, deadline time.Time) []*lane {
	return sys.newLanes(rec, func() invoker {
		c := newClient(addr)
		c.setDeadline(deadline)
		return httpInvoker{c}
	})
}

// splitRun divides the measured seconds of an untraced run: a tenth to warm
// up, three tenths closed-loop, six tenths paced.
func splitRun(seconds float64) (warm, closed, paced time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return total / 10, total * 3 / 10, total * 6 / 10
}

// childResult is what the measuring child hands its parent.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Paced     int                `json:"paced"` // ops of the paced phase
	Late      int                `json:"late"`  // of those, sent late
	Metrics   map[string]float64 `json:"metrics"`
}

// runUntraced measures the end-to-end metrics, with no span recorded
// anywhere.
func runUntraced(sys *system, o options) childResult {
	warm, closed, paced := splitRun(o.seconds)
	lanes := sys.httpLanes(sys.addr, nil, time.Now().Add(warm+closed+paced+30*time.Second))
	defer closeLanes(lanes)
	var t tally

	t.add("warm-up", runPhase(lanes, phase{dur: warm}))

	a := runPhase(lanes, phase{dur: closed})
	t.add("closed loop", a)
	rps, ok := rateOf(lanes, a, true)

	b := runPhase(lanes, phase{dur: paced, rate: sys.w.rate, seed: o.seed})
	t.add("paced", b)
	lat, late, sent := measuredLatencies(lanes, b)
	us := micros(lat)

	m := map[string]float64{
		"latency_p50_us": percentile(us, 0.50),
		"latency_p95_us": percentile(us, 0.95),
		"throughput_rps": rps,
		"peak_rss_mb":    0, // filled in at exit
	}
	if ok > 0 {
		m["cpu_us_per_op"] = float64(a.cpu) / 1e3 / float64(ok)
	}
	return childResult{Attempted: t.attempted, Failed: t.failed, Paced: sent, Late: late, Metrics: m}
}
