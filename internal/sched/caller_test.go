package sched

import (
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/sandbox"
)

// The tests in this file pin where Pool.Run executes a sandbox — in the
// submitter's slice or on a worker — by counts and by what the sandbox
// produced, never by timing.

// trapSrc spins req_len × 1000 iterations and then divides by zero: with an
// empty request it traps inside the caller's slice, with a longer one on a
// worker, at the same instruction.
const trapSrc = `
export i32 main() {
	i32 n = sys_req_len();
	i32 acc = 0;
	for (i32 i = 0; i < n * 1000; i = i + 1) {
		acc = acc + i;
	}
	i32 zero = n - n;
	return acc / zero;
}
`

// runAndWait hands sb to Run and waits for it to finish.
func runAndWait(t *testing.T, p *Pool, sb *sandbox.Sandbox) {
	t.Helper()
	p.Run(sb, -1)
	select {
	case <-sb.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("sandbox never finished (state %s, stats %+v)", sb.State(), p.Stats())
	}
}

// workerCounts sums the per-worker completion and trap shards: what ran on
// a worker, as opposed to in a caller's slice.
func workerCounts(p *Pool) (completed, trapped uint64) {
	for _, w := range p.workers {
		completed += w.completed.Load()
		trapped += w.trapped.Load()
	}
	return completed, trapped
}

func TestRunCompletesOnCaller(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1})
	defer p.Stop()
	const n = 200
	for i := 0; i < n; i++ {
		sb := newSpin(t, cm, 0)
		runAndWait(t, p, sb)
		if sb.State() != sandbox.StateComplete || string(sb.Response()) != "o" {
			t.Fatalf("invoke %d: state %s response %q err %v", i, sb.State(), sb.Response(), sb.Err)
		}
		if g := sb.Gas(); g >= callerSliceGas {
			t.Fatalf("an empty spin burns %d gas, not under the %d-gas caller slice", g, callerSliceGas)
		}
		if w := sb.LastWorker.Load(); w != -1 {
			t.Fatalf("invoke %d ran on worker %d", i, w)
		}
		sb.Release()
	}
	st := p.Stats()
	if st.Completed != n || st.Submitted != n || st.Trapped != 0 {
		t.Errorf("Stats = %+v, want %d submitted and completed", st, n)
	}
	if c, tr := workerCounts(p); c != 0 || tr != 0 {
		t.Errorf("workers completed %d and trapped %d, want 0: every invoke fits the caller's slice", c, tr)
	}
	if p.Inflight() != 0 {
		t.Errorf("Inflight = %d", p.Inflight())
	}
}

// TestRunAboveSliceMatchesUnpreempted: a request longer than the caller's
// slice yields once, resumes on a worker, and ends exactly as one
// unpreempted run does — reply, exit code and gas.
func TestRunAboveSliceMatchesUnpreempted(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1})
	defer p.Stop()
	for _, reqLen := range []int{1, 2, 50} {
		ref := newSpin(t, cm, reqLen)
		if st := ref.RunQuantum(0); st != sandbox.StateComplete {
			t.Fatalf("reference run: %s (%v)", st, ref.Err)
		}
		sb := newSpin(t, cm, reqLen)
		runAndWait(t, p, sb)
		if sb.State() != sandbox.StateComplete {
			t.Fatalf("req %d: state %s err %v", reqLen, sb.State(), sb.Err)
		}
		if ref.Gas() <= callerSliceGas {
			t.Fatalf("req %d burns %d gas, not above the caller slice", reqLen, ref.Gas())
		}
		wantExit, _ := ref.ExitCode()
		gotExit, _ := sb.ExitCode()
		if string(sb.Response()) != string(ref.Response()) || gotExit != wantExit || sb.Gas() != ref.Gas() {
			t.Errorf("req %d: response %q exit %d gas %d, want %q %d %d",
				reqLen, sb.Response(), gotExit, sb.Gas(), ref.Response(), wantExit, ref.Gas())
		}
		if sb.LastWorker.Load() < 0 {
			t.Errorf("req %d finished without reaching a worker", reqLen)
		}
		ref.Release()
		sb.Release()
	}
	if !p.Quiesce(time.Second) {
		t.Fatal("pool did not quiesce")
	}
	if c, _ := workerCounts(p); c != 3 || p.Stats().Completed != 3 {
		t.Errorf("workers completed %d of %d, want all 3", c, p.Stats().Completed)
	}
}

// TestRunBlockedResumesOnItsTimer: a sandbox that blocks on latent I/O
// inside the caller's slice waits on its own timer, not in a worker's
// queue; when the I/O is due it is pushed to a worker and completes there
// with the fetched bytes.
func TestRunBlockedResumesOnItsTimer(t *testing.T) {
	cm := compileTestModule(t, kvSrc)
	p := NewPool(Config{Workers: 1})
	defer p.Stop()
	store := abi.NewMapKV()
	store.Set("k", []byte("async-value"))
	kv := &abi.LatentKV{KVStore: store, Delay: time.Millisecond}
	sb, err := sandbox.New(cm, nil, sandbox.Options{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	runAndWait(t, p, sb)
	if sb.State() != sandbox.StateComplete || string(sb.Response()) != "async-value" {
		t.Fatalf("state %s response %q err %v", sb.State(), sb.Response(), sb.Err)
	}
	if !p.Quiesce(time.Second) {
		t.Fatal("pool did not quiesce")
	}
	if st := p.Stats(); st.Blocked != 1 || st.Completed != 1 {
		t.Errorf("Stats = %+v, want one blocked, one completed", st)
	}
	if c, _ := workerCounts(p); c != 1 {
		t.Errorf("workers completed %d, want 1: the resume runs on a worker", c)
	}
}

// TestRunTrapMatchesWorkerTrap: a trap inside the caller's slice and the
// same trap on a worker end the same way and are counted the same way.
func TestRunTrapMatchesWorkerTrap(t *testing.T) {
	cm := compileTestModule(t, trapSrc)
	p := NewPool(Config{Workers: 1})
	defer p.Stop()
	caller := newSpin(t, cm, 0)
	runAndWait(t, p, caller)
	worker := newSpin(t, cm, 10)
	runAndWait(t, p, worker)
	for _, sb := range []*sandbox.Sandbox{caller, worker} {
		if sb.State() != sandbox.StateTrapped || sb.Err == nil {
			t.Fatalf("state %s err %v, want a trap", sb.State(), sb.Err)
		}
	}
	if caller.Err.Error() != worker.Err.Error() {
		t.Errorf("caller trap %q, worker trap %q", caller.Err, worker.Err)
	}
	if caller.LastWorker.Load() != -1 || worker.LastWorker.Load() != 0 {
		t.Errorf("trapped on workers %d and %d, want -1 (the caller) and 0",
			caller.LastWorker.Load(), worker.LastWorker.Load())
	}
	if !p.Quiesce(time.Second) {
		t.Fatal("pool did not quiesce")
	}
	if st := p.Stats(); st.Trapped != 2 || st.Completed != 0 || st.Submitted != 2 {
		t.Errorf("Stats = %+v, want 2 submitted and trapped", st)
	}
	if _, tr := workerCounts(p); tr != 1 {
		t.Errorf("workers trapped %d, want 1", tr)
	}
}

// TestRacedStopReleasesInstance is the path where Stop lands between Run's
// stopped check and its push: the sandbox goes into an inbox no worker will
// drain, the push fails it there, and its waiter gets it back failed with
// ErrStopped — with an instance Release returns to the pool.
func TestRacedStopReleasesInstance(t *testing.T) { t.Run(workStealing, testRacedStopReleasesInstance) }

func testRacedStopReleasesInstance(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1})
	p.Stop()
	cm.Release(cm.Acquire())
	pre := cm.PooledInstances()
	sb := newSpin(t, cm, 1)
	if st := sb.RunQuantum(callerSliceGas); st != sandbox.StateRunnable {
		t.Fatalf("caller slice ended %s, want a yield", st)
	}
	p.submitted.Add(1)
	p.inflight.Add(1)
	if err := p.push(sb, -1); err != ErrStopped {
		t.Fatalf("push after Stop = %v, want ErrStopped", err)
	}
	select {
	case <-sb.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("Done never fired")
	}
	if sb.State() != sandbox.StateTrapped || sb.Err != ErrStopped || p.Inflight() != 0 {
		t.Errorf("state %s err %v inflight %d", sb.State(), sb.Err, p.Inflight())
	}
	sb.Release()
	if got := cm.PooledInstances(); got != pre {
		t.Errorf("%d pooled instances after Release, want %d", got, pre)
	}
}

// TestRunAfterStop: Run takes ownership even of a sandbox the pool refuses,
// so the caller's one wait on Done covers it.
func TestRunAfterStop(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1})
	p.Stop()
	sb := newSpin(t, cm, 0)
	runAndWait(t, p, sb)
	if sb.State() != sandbox.StateTrapped || sb.Err != ErrStopped {
		t.Errorf("state %s err %v, want trapped with ErrStopped", sb.State(), sb.Err)
	}
	if st := p.Stats(); st.Submitted != 0 || p.Inflight() != 0 {
		t.Errorf("Stats = %+v inflight %d, want nothing counted", st, p.Inflight())
	}
}
