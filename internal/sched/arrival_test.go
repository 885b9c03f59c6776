package sched

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sledge/internal/engine"
	"sledge/internal/sandbox"
)

// The tests in this file count slices instead of timing them: the pool runs
// with the fixed-slice hook (newPool), so a slice is testSlice gas whatever
// the clock or the race detector do to the interpreter's speed.

// testSlice is a quarter millisecond or so of spinSrc; a short (one request
// byte, about 10 k gas) finishes well inside it.
const testSlice = 100_000

var allDistributions = []Distribution{DistWorkStealing, DistGlobalDeque, DistGlobalLock, DistStatic}

// foreverLen makes spinSrc spin for about 10^10 gas: a hog that outlives
// any test and is failed by Pool.Stop.
const foreverLen = 1 << 20

func newSpin(t *testing.T, cm *engine.CompiledModule, reqLen int) *sandbox.Sandbox {
	t.Helper()
	sb, err := sandbox.New(cm, make([]byte, reqLen), sandbox.Options{})
	if err != nil {
		t.Fatalf("sandbox.New: %v", err)
	}
	return sb
}

// waitFor polls cond; the tests below use it only to reach a state before
// they start counting, never to decide a result.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// startHogs submits k never-ending hogs and returns once each has run a
// slice, i.e. all of them rotate on a worker's local queue.
func startHogs(t *testing.T, p *Pool, cm *engine.CompiledModule, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		hog := newSpin(t, cm, foreverLen)
		if err := p.Submit(hog); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "hog to start", func() bool { return hog.LastWorker.Load() >= 0 })
	}
}

// TestArrivalRunsWithinOneRound is the property the paper states and the
// loop used to violate: request dequeueing is part of the scheduling loop,
// so a short function that arrives while one of k hogs is mid-quantum shares
// the core after that quantum and the k-1 hogs already queued — at most k
// further hog slices. (Re-queueing the preempted hog before admitting made
// it k+1: the arrival also sat out that hog's next quantum.)
func TestArrivalRunsWithinOneRound(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	for _, dist := range allDistributions {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/hogs=%d", dist, k), func(t *testing.T) {
				// Slices of a few milliseconds: long against the microseconds
				// it takes to queue the short, so most trials are clean.
				p := newPool(Config{Workers: 1, Distribution: dist}, 10*testSlice)
				defer p.Stop()
				startHogs(t, p, cm, k)

				for trial := 0; trial < 50; trial++ {
					ran := make(chan uint64, 1)
					short := newSpin(t, cm, 1)
					// Runs on the worker, inside the short's first quantum:
					// an exact count of the slices that ended before it.
					short.OnComplete = func(*sandbox.Sandbox) { ran <- p.Stats().Preemptions }
					before := p.Stats().Preemptions
					if err := p.Submit(short); err != nil {
						t.Fatal(err)
					}
					if dist == DistGlobalDeque {
						// Submit only reached the dispatcher's channel.
						waitFor(t, "dispatcher", func() bool { return p.global.Size() > 0 || len(ran) > 0 })
					}
					// The short was queued while the count still read
					// before, so it was there for the very next admit. If a
					// slice ended in between, the count is off by that one
					// either way: try again.
					clean := p.Stats().Preemptions == before
					at := <-ran
					if !clean {
						continue
					}
					if waited := at - before; waited > uint64(k) {
						t.Errorf("short first ran after %d further hog slices, want at most %d", waited, k)
					}
					return
				}
				t.Fatal("no trial queued the short inside one slice")
			})
		}
	}
}

// TestHogNotStarvedByArrivals is the other half of arrival-first: the
// preempted sandbox goes behind one round's arrivals only, so a continuous
// stream of shorts costs a hog no slice and shortens none — it completes in
// exactly the slices it takes alone, which is its gas over the fuel.
func TestHogNotStarvedByArrivals(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	const hogLen = 2000 // 2 M iterations: a couple of hundred slices
	for _, dist := range allDistributions {
		t.Run(dist.String(), func(t *testing.T) {
			p := newPool(Config{Workers: 1, Distribution: dist}, testSlice)
			defer p.Stop()

			alone := runBatch(t, p, cm, 1, hogLen)[0]
			slices := alone.Preemptions + 1
			if byGas := alone.Gas()/testSlice + 1; slices != byGas && slices != byGas-1 {
				t.Fatalf("hog alone took %d slices for %d gas at %d a slice", slices, alone.Gas(), testSlice)
			}

			hog := newSpin(t, cm, hogLen)
			var hogDone atomic.Bool
			hog.OnComplete = func(*sandbox.Sandbox) { hogDone.Store(true) }
			if err := p.Submit(hog); err != nil {
				t.Fatal(err)
			}
			shorts := 0
			for !hogDone.Load() {
				runBatch(t, p, cm, 2, 1)
				shorts += 2
			}
			if !p.Quiesce(10 * time.Second) {
				t.Fatal("pool did not quiesce")
			}
			if hog.State() != sandbox.StateComplete {
				t.Fatalf("hog ended %s (%v)", hog.State(), hog.Err)
			}
			if hog.Preemptions != alone.Preemptions || hog.Gas() != alone.Gas() {
				t.Errorf("beside %d shorts the hog took %d preemptions and %d gas; alone %d and %d",
					shorts, hog.Preemptions, hog.Gas(), alone.Preemptions, alone.Gas())
			}
			if shorts < 10 {
				t.Errorf("only %d shorts ran beside the hog: not a stream", shorts)
			}
		})
	}
}

// TestHoldingWorkerDoesNotSteal: between the quantum that preempted a
// sandbox and the push that re-queues it, the worker's run queue can be
// empty while it has work. It must not take that for idleness and pull half
// of a peer's queue over; once its sandbox completes it must (work
// conservation is unchanged).
func TestHoldingWorkerDoesNotSteal(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	// No idle poll: a parked worker moves only when woken for its own work.
	p := newPool(Config{Workers: 2, IdlePoll: time.Hour}, testSlice)
	defer p.Stop()

	lone := newSpin(t, cm, 1000)
	// Runs on the worker that ran the hog's last slice, before that worker
	// looks for more work.
	var stealsAtDone atomic.Uint64
	lone.OnComplete = func(sb *sandbox.Sandbox) {
		stealsAtDone.Store(p.workers[sb.LastWorker.Load()].steals.Load())
	}
	if err := p.SubmitAffine(lone, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lone hog to start", func() bool { return lone.LastWorker.Load() >= 0 })
	holder := p.workers[lone.LastWorker.Load()]
	// Not necessarily zero: a peer still in its start-up round may have
	// swiped the hog itself out of worker 0's inbox.
	stealsAtStart := holder.steals.Load()

	// A backlog on the peer that outlasts the lone hog: one runs, three
	// wait on the peer's run queue where a thief would find them.
	boxes := []*sandbox.Sandbox{lone}
	for i := 0; i < 4; i++ {
		sb := newSpin(t, cm, 4000)
		boxes = append(boxes, sb)
		if err := p.SubmitAffine(sb, 1-holder.id); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "completion", func() bool { return p.Inflight() == 0 })

	if n := stealsAtDone.Load() - stealsAtStart; n != 0 {
		t.Errorf("worker stole %d sandboxes while it held a preempted one", n)
	}
	if holder.steals.Load() == stealsAtStart {
		t.Errorf("worker never stole the peer's backlog after its own work ran out (stats %+v)", p.Stats())
	}
	for _, sb := range boxes {
		if sb.State() != sandbox.StateComplete {
			t.Errorf("sandbox %d ended %s (%v)", sb.ID, sb.State(), sb.Err)
		}
	}
}

// TestQueueDepthCountsWaitersOnly pins the load signal admission's
// queueing-delay estimate reads: a sandbox that is mid-quantum is running,
// not waiting. A lone hog is depth 0 (it used to read 1: qlen was published
// before the pop and counted the sandbox about to run, and load() then
// counted it again as running), and one arrival behind it is depth 1.
func TestQueueDepthCountsWaitersOnly(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := newPool(Config{Workers: 1}, testSlice)
	defer p.Stop()

	// sample reads the depth continuously across n slice boundaries.
	sample := func(n uint64) (lo, hi int) {
		lo = 1 << 30
		for end := p.Stats().Preemptions + n; p.Stats().Preemptions < end; {
			d := p.QueueDepth()
			lo, hi = min(lo, d), max(hi, d)
		}
		return lo, hi
	}

	startHogs(t, p, cm, 1)
	if lo, hi := sample(20); lo != 0 || hi != 0 {
		t.Errorf("QueueDepth with a lone hog running ranged %d..%d, want 0", lo, hi)
	}
	if l := p.workers[0].load(); l > 1 {
		t.Errorf("load() = %d for a worker running one sandbox", l)
	}
	startHogs(t, p, cm, 1)
	if lo, hi := sample(20); lo != 1 || hi != 1 {
		t.Errorf("QueueDepth with one sandbox waiting behind a running one ranged %d..%d, want 1", lo, hi)
	}
}
