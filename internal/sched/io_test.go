package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/sandbox"
)

// The tests in this file pin what happens to a sandbox that blocks on host
// I/O: it waits on its own timer, not on a worker, and comes back through
// push like an arrival. Placement is fixed by construction (every worker is
// parked before each submission, and no idle poll runs), so the outcomes
// are counts, not races.

// kvSetSrc stores "v" under "k".
const kvSetSrc = `
static u8 key[4];
static u8 val[4];

export i32 main() {
	key[0] = 107;
	val[0] = 118;
	return sys_kv_set(key, 1, val, 1);
}
`

// kvTwiceSrc reads "a" and then "b", blocking on each, and replies with
// both values.
const kvTwiceSrc = `
static u8 key[4];
static u8 val[32];

export i32 main() {
	key[0] = 97;
	i32 n = sys_kv_get(key, 1, val, 32);
	sys_write(val, n);
	key[0] = 98;
	n = sys_kv_get(key, 1, val, 32);
	sys_write(val, n);
	return n;
}
`

// ioWait is the latency of the reads and writes below: long against the
// microseconds a submission, a park or a Stop takes, short against a hog.
const ioWait = 50 * time.Millisecond

// hogSlice is the preemptive slice of TestIOResumesBesideHog: 300 M of the
// 20 000-byte hog's 360 M gas, so that its first slice outlasts ioWait
// several times over on any machine (a slower one only widens the gap).
const hogSlice = 3000 * testSlice

// submitParked submits sb with affinity for worker 0 once every worker is
// parked: the target wakes alone, and nothing wakes its peers.
func submitParked(t *testing.T, p *Pool, sb *sandbox.Sandbox) {
	t.Helper()
	waitFor(t, "every worker to park", func() bool { return p.nparked.Load() == int64(len(p.workers)) })
	pushTo(t, p, sb, 0)
}

// TestIOResumesBesideHog is the gate for a blocked sandbox that shares a
// worker with a hog. A read blocks on worker 0, then a hog starts there.
// When the read is due it must not wait for worker 0: it completes on the
// idle worker 1 while the hog is still running — under the preemptive
// policy, inside the hog's first slice. With no worker 1 (there the read
// blocks in its caller slice once the hog runs) it must not wait for the
// hog's quantum either: the lone hog is paused at the first engine piece
// past its young bound, and the read completes on worker 0 inside that
// quantum.
func TestIOResumesBesideHog(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	kvm := compileTestModule(t, kvSrc)
	t.Run("preemptive-rr/workers=1", func(t *testing.T) {
		p := newPool(Config{Workers: 1}, hogSlice, time.Hour)
		defer p.Stop()
		store := abi.NewMapKV()
		store.Set("k", []byte("async-value"))
		// The read blocks in its caller slice once the hog has started,
		// and is due a millisecond later: inside the hog's young part,
		// hogSlice/youngShare gas, which lasts several milliseconds even
		// at the fastest rate the learner allows (maxGasPerMS). So the
		// completion is in the inbox before the hog's first poll, and the
		// counts below are exact.
		read, err := sandbox.New(kvm, nil, sandbox.Options{KV: &abi.LatentKV{KVStore: store, Delay: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		hog := newSpin(t, cm, 20_000)
		type seen struct {
			preemptions, pauses, hogGas, lastRunGas uint64
		}
		ran := make(chan seen, 1)
		// Runs on worker 0, which also runs the hog, so the hog's last run
		// (the one its pause ended) is settled.
		read.Defer(func(*sandbox.Sandbox) {
			st := p.Stats()
			g, _ := hog.LastSlice()
			ran <- seen{st.Preemptions, st.Pauses, hog.Gas(), g}
		})
		submitParked(t, p, hog)
		waitFor(t, "the hog to start", func() bool { return hog.LastWorker.Load() >= 0 })
		p.Run(read, -1)
		if b := p.Stats().Blocked; b != 1 {
			t.Fatalf("Blocked = %d after the read's caller slice, want 1", b)
		}

		var s seen
		select {
		case s = <-ran:
		case <-time.After(30 * time.Second):
			t.Fatalf("the read never completed (stats %+v)", p.Stats())
		}
		if read.State() != sandbox.StateComplete || string(read.Response()) != "async-value" {
			t.Fatalf("read: state %s response %q err %v", read.State(), read.Response(), read.Err)
		}
		if s.preemptions != 0 {
			t.Errorf("the hog's quantum ended %d times before the read completed, want 0", s.preemptions)
		}
		if s.pauses != 1 {
			t.Errorf("the hog was paused %d times for the read, want 1", s.pauses)
		}
		// Within one piece of hog gas: the run the pause ended is the one
		// after the young part, and it stopped at its first poll, having
		// spent one piece and at most one charge more. A worker that
		// looked only every few pieces would miss it by whole pieces.
		young, charge := uint64(hogSlice/youngShare), uint64(cm.Analysis().MaxBlockCost)
		if s.lastRunGas < engine.PollGas || s.lastRunGas > engine.PollGas+charge {
			t.Errorf("the hog's last run ran %d gas, want one piece: [%d, %d]", s.lastRunGas, engine.PollGas, engine.PollGas+charge)
		}
		if hi := young + engine.PollGas + charge; s.hogGas < young || s.hogGas > hi {
			t.Errorf("the hog was paused after %d gas, want [%d, %d]: its young bound and one piece", s.hogGas, young, hi)
		}
		t.Logf("hog paused after %d gas; its last run %d gas", s.hogGas, s.lastRunGas)
	})
	for _, policy := range []Policy{PolicyCooperative, PolicyPreemptiveRR} {
		t.Run(policy.String(), func(t *testing.T) {
			fuel := int64(0)
			if policy == PolicyPreemptiveRR {
				fuel = hogSlice
			}
			p := newPool(Config{Workers: 2, Policy: policy}, fuel, time.Hour)
			defer p.Stop()
			store := abi.NewMapKV()
			store.Set("k", []byte("async-value"))
			read, err := sandbox.New(kvm, nil, sandbox.Options{KV: &abi.LatentKV{KVStore: store, Delay: ioWait}})
			if err != nil {
				t.Fatal(err)
			}
			var hogDone atomic.Bool
			type seen struct {
				hogDone     bool
				preemptions uint64
			}
			ran := make(chan seen, 1)
			read.Defer(func(*sandbox.Sandbox) {
				ran <- seen{hogDone.Load(), p.workers[0].preemptions.Load()}
			})
			submitParked(t, p, read)
			waitFor(t, "the read to block", func() bool { return p.Stats().Blocked == 1 })

			hog := newSpin(t, cm, 20_000)
			hog.Defer(func(*sandbox.Sandbox) { hogDone.Store(true) })
			submitParked(t, p, hog)

			var s seen
			select {
			case s = <-ran:
			case <-time.After(30 * time.Second):
				t.Fatalf("the read never completed (stats %+v)", p.Stats())
			}
			if read.State() != sandbox.StateComplete || string(read.Response()) != "async-value" {
				t.Fatalf("read: state %s response %q err %v", read.State(), read.Response(), read.Err)
			}
			if s.hogDone {
				t.Error("the read completed only after the hog on its worker")
			}
			if w := read.LastWorker.Load(); w != 1 {
				t.Errorf("the read resumed on worker %d, want the idle worker 1", w)
			}
			if s.preemptions != 0 {
				t.Errorf("worker 0 ended %d hog slices before the read completed, want 0", s.preemptions)
			}
			if w := hog.LastWorker.Load(); w != 0 {
				t.Errorf("the hog ran on worker %d, want 0", w)
			}
		})
	}
}

// TestAbandonedWhileBlocked: a sandbox its waiter abandons while it is
// blocked is failed on its own timer. Its write never happens, its
// instance is back in the module's pool once the wait has passed, and no
// worker spends a slice on it.
func TestAbandonedWhileBlocked(t *testing.T) {
	cm := compileTestModule(t, kvSetSrc)
	p := newPool(Config{Workers: 2}, testSlice, time.Hour)
	defer p.Stop()
	cm.Release(cm.Acquire())
	pre := cm.PooledInstances()
	store := abi.NewMapKV()
	sb, err := sandbox.New(cm, nil, sandbox.Options{KV: &abi.LatentKV{KVStore: store, Delay: ioWait}})
	if err != nil {
		t.Fatal(err)
	}
	submitParked(t, p, sb)
	waitFor(t, "the write to block", func() bool { return p.Stats().Blocked == 1 })
	// The slice that blocked is the only one a worker ran.
	c0, t0 := workerCounts(p)
	if !sb.Abandon() {
		t.Fatal("a blocked sandbox finished before its I/O was due")
	}
	waitFor(t, "the instance to return to its pool", func() bool { return cm.PooledInstances() == pre })
	if _, ok := store.Get("k"); ok {
		t.Error("the abandoned sandbox's write ran")
	}
	if c, tr := workerCounts(p); c != c0 || tr != t0 {
		t.Errorf("workers completed %d and trapped %d after the abandon, want %d and %d", c, tr, c0, t0)
	}
	if st := p.Stats(); st.Preemptions != 0 || st.Trapped != 1 || st.Completed != 0 || p.Inflight() != 0 {
		t.Errorf("Stats = %+v inflight %d, want one trapped off the workers", st, p.Inflight())
	}
}

// TestStopReleasesBlockedWaiter: Stop does not fail a blocked sandbox on
// the spot. Its waiter gets ErrStopped once the wait has passed, and the
// write it was blocked on never happens.
func TestStopReleasesBlockedWaiter(t *testing.T) {
	cm := compileTestModule(t, kvSetSrc)
	p := newPool(Config{Workers: 1}, 0, time.Hour)
	store := abi.NewMapKV()
	sb, err := sandbox.New(cm, nil, sandbox.Options{KV: &abi.LatentKV{KVStore: store, Delay: ioWait}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	submitParked(t, p, sb)
	waitFor(t, "the write to block", func() bool { return p.Stats().Blocked == 1 })
	p.Stop()
	select {
	case <-sb.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("the blocked waiter was never released")
	}
	if waited := time.Since(start); waited < ioWait {
		t.Errorf("released after %v, before the %v wait passed", waited, ioWait)
	}
	if sb.State() != sandbox.StateTrapped || sb.Err != ErrStopped {
		t.Errorf("state %s err %v, want trapped with ErrStopped", sb.State(), sb.Err)
	}
	if _, ok := store.Get("k"); ok {
		t.Error("the write ran on a stopped pool")
	}
	if p.Inflight() != 0 {
		t.Errorf("Inflight = %d", p.Inflight())
	}
	sb.Release()
}

// TestBlockTwiceThenRecycled: a request that blocks twice — first in the
// caller's slice, then on a worker — returns both values, and a later
// request in the recycled shell blocks and resumes through the same,
// re-armed timer.
func TestBlockTwiceThenRecycled(t *testing.T) {
	cm := compileTestModule(t, kvTwiceSrc)
	p := NewPool(Config{Workers: 2})
	defer p.Stop()
	store := abi.NewMapKV()
	store.Set("a", []byte("one,"))
	store.Set("b", []byte("two"))
	kv := &abi.LatentKV{KVStore: store, Delay: time.Millisecond}
	shells := make(map[*sandbox.Sandbox]bool)
	recycled := false
	for i := uint64(1); i <= 50 && !recycled; i++ {
		sb, err := sandbox.New(cm, nil, sandbox.Options{KV: kv})
		if err != nil {
			t.Fatal(err)
		}
		recycled = shells[sb]
		shells[sb] = true
		runAndWait(t, p, sb)
		if sb.State() != sandbox.StateComplete || string(sb.Response()) != "one,two" {
			t.Fatalf("request %d: state %s response %q err %v", i, sb.State(), sb.Response(), sb.Err)
		}
		if b := p.Stats().Blocked; b != 2*i {
			t.Fatalf("after request %d: Blocked = %d, want %d", i, b, 2*i)
		}
		sb.Release()
	}
	if !recycled {
		t.Fatal("no request reused a recycled shell")
	}
}
