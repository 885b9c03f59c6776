package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/sandbox"
	"sledge/internal/wcc"
)

// ---- pool ----

const spinSrc = `
static u8 out[4];

export i32 main() {
	i32 n = sys_req_len();
	i32 acc = 0;
	for (i32 i = 0; i < n * 1000; i = i + 1) {
		acc = acc + i;
	}
	out[0] = 111; // 'o'
	sys_write(out, 1);
	return acc;
}
`

func compileTestModule(t *testing.T, src string) *engine.CompiledModule {
	t.Helper()
	res, err := wcc.Compile(src, wcc.Options{})
	if err != nil {
		t.Fatalf("wcc.Compile: %v", err)
	}
	cm, err := engine.CompileBinary(res.Binary, abi.Registry(), engine.Config{})
	if err != nil {
		t.Fatalf("engine.CompileBinary: %v", err)
	}
	return cm
}

func runBatch(t *testing.T, p *Pool, cm *engine.CompiledModule, n int, reqLen int) []*sandbox.Sandbox {
	t.Helper()
	var wg sync.WaitGroup
	out := make([]*sandbox.Sandbox, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sb, err := sandbox.New(cm, make([]byte, reqLen), sandbox.Options{})
		if err != nil {
			t.Fatalf("sandbox.New: %v", err)
		}
		sb.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
		out[i] = sb
		if err := p.Submit(sb); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("batch did not complete: stats %+v", p.Stats())
	}
	return out
}

// workStealing is the subtest the tests of how the pool places, wakes and
// steals work run under: the name of its one work distribution.
const workStealing = "work-stealing"

func TestPoolCompletesWork(t *testing.T) { t.Run(workStealing, testPoolCompletesWork) }

func testPoolCompletesWork(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 2})
	defer p.Stop()
	boxes := runBatch(t, p, cm, 40, 10)
	for _, sb := range boxes {
		if sb.State() != sandbox.StateComplete {
			t.Errorf("sandbox %d state %s (err %v)", sb.ID, sb.State(), sb.Err)
		}
		if string(sb.Response()) != "o" {
			t.Errorf("sandbox %d response %q", sb.ID, sb.Response())
		}
	}
	// OnComplete (what runBatch waits on) fires inside the last quantum,
	// before the worker counts the completion: quiesce first, then read the
	// counter.
	if !p.Quiesce(time.Second) {
		t.Error("pool did not quiesce")
	}
	st := p.Stats()
	if st.Completed != 40 {
		t.Errorf("Completed = %d, want 40", st.Completed)
	}
}

func TestPreemptionOccurs(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	// Tiny quantum forces many preemptions on a long spin.
	p := NewPool(Config{Workers: 1, Quantum: 100 * time.Microsecond})
	defer p.Stop()
	boxes := runBatch(t, p, cm, 2, 2000) // 2M iterations each
	st := p.Stats()
	if st.Preemptions == 0 {
		t.Errorf("no preemptions recorded: %+v", st)
	}
	for _, sb := range boxes {
		if sb.Preemptions == 0 {
			t.Errorf("sandbox %d never preempted", sb.ID)
		}
	}
}

func TestCooperativeRunsToCompletion(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1, Policy: PolicyCooperative})
	defer p.Stop()
	boxes := runBatch(t, p, cm, 4, 500)
	st := p.Stats()
	if st.Preemptions != 0 {
		t.Errorf("cooperative policy preempted %d times", st.Preemptions)
	}
	for _, sb := range boxes {
		if sb.State() != sandbox.StateComplete {
			t.Errorf("sandbox %d state %s", sb.ID, sb.State())
		}
	}
}

// TestTemporalIsolation reproduces the §3.4 motivation, counted in slices:
// under preemptive round-robin a short function queued behind a running CPU
// hog completes while the hog is unfinished, after at most one further hog
// slice; under cooperative scheduling it completes only after the hog, and
// nothing is preempted.
func TestTemporalIsolation(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	const hogLen = 2000 // 2 M iterations: about twenty slices of 10*testSlice
	for _, policy := range []Policy{PolicyPreemptiveRR, PolicyCooperative} {
		t.Run(policy.String(), func(t *testing.T) {
			p := newPool(Config{Workers: 1, Policy: policy}, 10*testSlice, 0)
			defer p.Stop()
			hog := newSpin(t, cm, hogLen)
			var hogDone atomic.Bool
			hog.OnComplete = func(*sandbox.Sandbox) { hogDone.Store(true) }
			if err := p.Submit(hog); err != nil {
				t.Fatal(err)
			}
			// The worker stamps LastWorker just before the hog's first slice.
			for hog.LastWorker.Load() < 0 {
				runtime.Gosched()
			}

			type seen struct {
				slices  uint64
				hogDone bool
			}
			for trial := 0; trial < 10; trial++ {
				ran := make(chan seen, 1)
				short := newSpin(t, cm, 1)
				// Runs on the worker as the short completes.
				short.OnComplete = func(*sandbox.Sandbox) { ran <- seen{p.Stats().Preemptions, hogDone.Load()} }
				before := p.Stats().Preemptions
				if err := p.Submit(short); err != nil {
					t.Fatal(err)
				}
				// As in TestArrivalRunsWithinOneRound: a slice that ended
				// between the two reads leaves the count off by one.
				clean := p.Stats().Preemptions == before
				s := <-ran
				if policy == PolicyCooperative {
					if !s.hogDone {
						t.Error("the short completed before the hog it was queued behind")
					}
					if s.slices != 0 {
						t.Errorf("cooperative pool recorded %d preemptions", s.slices)
					}
					return
				}
				if s.hogDone {
					t.Fatal("the hog finished before the short queued behind it")
				}
				if !clean {
					continue
				}
				if waited := s.slices - before; waited > 1 {
					t.Errorf("short completed after %d further hog slices, want at most 1", waited)
				}
				return
			}
			t.Fatal("no trial queued the short inside one slice")
		})
	}
}

const kvSrc = `
static u8 key[4];
static u8 val[32];

export i32 main() {
	key[0] = 107;
	i32 n = sys_kv_get(key, 1, val, 32);
	if (n > 0) {
		sys_write(val, n);
	}
	return n;
}
`

func TestBlockedIOCompletesViaEventLoop(t *testing.T) {
	cm := compileTestModule(t, kvSrc)
	p := NewPool(Config{Workers: 1})
	defer p.Stop()
	store := abi.NewMapKV()
	store.Set("k", []byte("async-value"))
	kv := &abi.LatentKV{KVStore: store, Delay: 3 * time.Millisecond}

	sb, err := sandbox.New(cm, nil, sandbox.Options{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	sb.OnComplete = func(*sandbox.Sandbox) { close(done) }
	start := time.Now()
	if err := p.Submit(sb); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("blocked sandbox never completed (state %s)", sb.State())
	}
	if got := time.Since(start); got < 3*time.Millisecond {
		t.Errorf("completed in %v, before the simulated I/O latency", got)
	}
	if string(sb.Response()) != "async-value" {
		t.Errorf("response %q", sb.Response())
	}
	if st := p.Stats(); st.Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", st.Blocked)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1})
	p.Stop()
	sb, err := sandbox.New(cm, nil, sandbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(sb); err != ErrStopped {
		t.Errorf("Submit after stop: %v", err)
	}
	p.Stop() // idempotent
}

func TestWorkConservation(t *testing.T) {
	// Least-loaded placement spreads an even batch perfectly, so to
	// observe stealing the load must be unbalanced after placement, and not
	// by a margin of timing: three workers get a long hog each and all the
	// followers (placed by affinity, which is a hint an idle peer may
	// override), the fourth gets nothing. Whatever it completes it stole.
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 4, Quantum: time.Millisecond})
	defer p.Stop()

	var wg sync.WaitGroup
	submit := func(reqLen, worker int) {
		wg.Add(1)
		sb, err := sandbox.New(cm, make([]byte, reqLen), sandbox.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sb.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
		pushTo(t, p, sb, worker)
	}
	for w := 1; w <= 3; w++ {
		submit(4000, w)
	}
	// Followers queue behind the hogs.
	for i := 0; i < 12; i++ {
		submit(200, 1+i%3)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("batch did not complete: stats %+v", p.Stats())
	}
	if !p.Quiesce(time.Second) { // see TestPoolCompletesWork
		t.Error("pool did not quiesce")
	}
	st := p.Stats()
	if st.Completed != 15 {
		t.Errorf("Completed = %d, want 15", st.Completed)
	}
	if st.Steals == 0 {
		t.Error("no steals recorded under work-stealing distribution")
	}
}

// TestShortStolenBehindHogs is the fairness property: a short function that
// placement queued behind a long hog must not wait for the hog — an idle
// peer steals and completes it. Cooperative mode is the sharp version (the
// hog never yields, so without stealing the short would wait the hog's
// entire runtime); preemptive mode must preserve the property too.
func TestShortStolenBehindHogs(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	for _, policy := range []Policy{PolicyPreemptiveRR, PolicyCooperative} {
		t.Run(policy.String(), func(t *testing.T) {
			p := NewPool(Config{Workers: 2, Policy: policy, Quantum: time.Millisecond})
			defer p.Stop()

			var wg sync.WaitGroup
			submit := func(reqLen int, onDone func()) {
				wg.Add(1)
				sb, err := sandbox.New(cm, make([]byte, reqLen), sandbox.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sb.OnComplete = func(*sandbox.Sandbox) {
					if onDone != nil {
						onDone()
					}
					wg.Done()
				}
				// Everything is placed on worker 0 (a hint idle peers
				// may override), so that which shorts sit behind the hog
				// does not depend on how placement's ties happen to break.
				pushTo(t, p, sb, 0)
			}

			var hogDone, shortsDone atomic.Int64
			// The hog occupies one worker for many quanta.
			start := time.Now()
			var hogAt, lastShortAt atomic.Int64
			submit(20000, func() { hogDone.Add(1); hogAt.Store(int64(time.Since(start))) })
			// The shorts queue behind the hog; the other worker must steal
			// them. About 1 ms each, so that the peer has milliseconds, not
			// microseconds, to wake up and find them; the hog runs ~250 ms.
			for i := 0; i < 6; i++ {
				submit(100, func() {
					shortsDone.Add(1)
					lastShortAt.Store(int64(time.Since(start)))
				})
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("batch did not complete: stats %+v", p.Stats())
			}
			hogLat := time.Duration(hogAt.Load())
			shortLat := time.Duration(lastShortAt.Load())
			if shortLat >= hogLat/2 {
				t.Errorf("last short finished at %v, not well before the hog at %v", shortLat, hogLat)
			}
			if st := p.Stats(); st.Steals == 0 {
				t.Errorf("no steals: shorts behind the hog were not rescued (stats %+v)", st)
			}
		})
	}
}

// TestNoLostWakeup is the regression test for the lost-wakeup window: with
// the idle poll effectively disabled, every completion must be driven by a
// targeted wakeup. Under the old shared wake channel, a worker could
// consume the single token, lose the steal race, and park — leaving the
// request to wait out the poll interval (here: the 20s test budget).
func TestNoLostWakeup(t *testing.T) { t.Run(workStealing, testNoLostWakeup) }

func testNoLostWakeup(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	const workers = 4
	p := newPool(Config{Workers: workers}, 0, time.Hour) // wakeups or bust
	defer p.Stop()
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			sb, err := sandbox.New(cm, make([]byte, 2), sandbox.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sb.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
			if err := p.Submit(sb); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d stalled: a completion waited on the idle poll (stats %+v)", round, p.Stats())
		}
	}
}

// TestQuiesceEventDriven checks both directions of the event-driven wait:
// it times out (returning false) while work is genuinely in flight, and it
// returns promptly once the last sandbox finishes instead of sleeping out a
// poll interval.
func TestQuiesceEventDriven(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1, Quantum: time.Millisecond})
	defer p.Stop()
	var wg sync.WaitGroup
	wg.Add(1)
	sb, err := sandbox.New(cm, make([]byte, 5000), sandbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var doneAt atomic.Int64
	sb.OnComplete = func(*sandbox.Sandbox) { doneAt.Store(time.Now().UnixNano()); wg.Done() }
	if err := p.Submit(sb); err != nil {
		t.Fatal(err)
	}
	if p.Quiesce(time.Millisecond) {
		t.Error("Quiesce returned true with a sandbox in flight")
	}
	if !p.Quiesce(30 * time.Second) {
		t.Fatal("Quiesce timed out")
	}
	woke := time.Now().UnixNano()
	wg.Wait()
	if lag := time.Duration(woke - doneAt.Load()); lag > 5*time.Second {
		t.Errorf("Quiesce woke %v after completion", lag)
	}
	if !p.Quiesce(time.Millisecond) {
		t.Error("Quiesce on idle pool returned false")
	}
}

// ---- runq ----

func TestRunqFIFOOwner(t *testing.T) {
	q := NewRunq[int](4)
	vals := make([]int, 40) // forces growth
	for i := range vals {
		vals[i] = i
		q.Push(&vals[i])
	}
	if q.Len() != len(vals) {
		t.Errorf("Len = %d", q.Len())
	}
	for i := range vals {
		x, ok := q.Pop()
		if !ok || *x != i {
			t.Fatalf("Pop = %v, %v; want %d", x, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty succeeded")
	}
}

func TestRunqStealBatchTakesHalf(t *testing.T) {
	q := NewRunq[int](16)
	vals := make([]int, 8)
	for i := range vals {
		vals[i] = i
		q.Push(&vals[i])
	}
	dst := make([]*int, 8)
	n := q.StealBatch(dst, 8)
	if n != 4 {
		t.Fatalf("StealBatch took %d of 8, want half", n)
	}
	for i := 0; i < n; i++ {
		if *dst[i] != i {
			t.Errorf("stolen[%d] = %d, want %d (oldest first)", i, *dst[i], i)
		}
	}
	// The remainder pops in order.
	for want := n; want < len(vals); want++ {
		x, ok := q.Pop()
		if !ok || *x != want {
			t.Fatalf("Pop = %v, %v; want %d", x, ok, want)
		}
	}
	// A single element steals whole (half rounded up).
	q.Push(&vals[0])
	if n := q.StealBatch(dst, 8); n != 1 {
		t.Errorf("StealBatch on 1-element queue took %d", n)
	}
}

// TestRunqStealBatchStress is the exactly-once property under -race: one
// owner pushing and popping concurrently with batched thieves, and every
// element consumed exactly once — no loss, no duplication.
func TestRunqStealBatchStress(t *testing.T) {
	const (
		numItems   = 20000
		numThieves = 4
	)
	q := NewRunq[int](8)
	vals := make([]int, numItems)
	consumed := make([]atomic.Int32, numItems)
	var total atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < numThieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]*int, 16)
			for {
				n := q.StealBatch(dst, len(dst))
				for j := 0; j < n; j++ {
					consumed[*dst[j]].Add(1)
					total.Add(1)
				}
				if n == 0 {
					select {
					case <-stop:
						// One final sweep after the owner finished.
						if q.StealBatch(dst, len(dst)) == 0 {
							return
						}
					default:
					}
				}
			}
		}()
	}
	// Owner: push everything, popping every few pushes like a worker
	// interleaving admission with scheduling.
	for i := 0; i < numItems; i++ {
		vals[i] = i
		q.Push(&vals[i])
		if i%3 == 0 {
			if x, ok := q.Pop(); ok {
				consumed[*x].Add(1)
				total.Add(1)
			}
		}
	}
	for {
		x, ok := q.Pop()
		if !ok {
			break
		}
		consumed[*x].Add(1)
		total.Add(1)
	}
	// Wait for thieves to drain the rest.
	deadline := time.After(10 * time.Second)
	for total.Load() < numItems {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d items consumed", total.Load(), numItems)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	for i := range consumed {
		if n := consumed[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times", i, n)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after draining", q.Len())
	}
}
