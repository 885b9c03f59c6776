package sched

import (
	"sync"
	"testing"
	"time"

	"sledge/internal/sandbox"
)

// TestAffinityWorkConservation is the check for pipeline continuation
// affinity: Run's affinity biases a continuation toward one worker's queue,
// but affinity is a hint, not a pin. When the preferred
// worker is stuck in a long cooperative quantum, idle peers must steal the
// queued continuations — affinity never defeats work conservation.
func TestAffinityWorkConservation(t *testing.T) { t.Run(workStealing, testAffinityWorkConservation) }

func testAffinityWorkConservation(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	// Cooperative policy: the hog's quantum cannot be preempted, so its
	// worker stays busy for the whole spin, and Run pushes every sandbox
	// with no caller slice.
	p := NewPool(Config{Workers: 4, Policy: PolicyCooperative})
	defer p.Stop()

	// 20M spin iterations: ~1000x the combined continuation work, so the
	// hog reliably outlasts them without dominating the race-instrumented
	// run.
	var hogWG sync.WaitGroup
	hogWG.Add(1)
	hog, err := sandbox.New(cm, make([]byte, 20_000), sandbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hog.OnComplete = func(*sandbox.Sandbox) { hogWG.Done() }
	if err := p.Submit(hog); err != nil {
		t.Fatal(err)
	}

	// Learn which worker the hog landed on, the way a pipeline executor
	// would pick its affinity target.
	var hogWorker int32 = -1
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if hogWorker = hog.LastWorker.Load(); hogWorker >= 0 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if hogWorker < 0 {
		t.Fatalf("hog never started: state %s", hog.State())
	}

	// Pile continuations onto the hogged worker's queue.
	const conts = 32
	var wg sync.WaitGroup
	boxes := make([]*sandbox.Sandbox, conts)
	for i := range boxes {
		sb, err := sandbox.New(cm, make([]byte, 1), sandbox.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		sb.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
		boxes[i] = sb
		p.Run(sb, int(hogWorker))
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("continuations starved behind the hog: stats %+v", p.Stats())
	}
	// The point of the test: the continuations finished while their
	// preferred worker was still hogged, which is only possible if idle
	// peers took them.
	if hog.State() == sandbox.StateComplete {
		t.Skip("hog finished before the continuations; machine too fast to observe stealing")
	}
	hogWG.Wait()
	if hog.State() != sandbox.StateComplete {
		t.Errorf("hog state %s", hog.State())
	}
	for i, sb := range boxes {
		if sb.State() != sandbox.StateComplete {
			t.Errorf("continuation %d state %s (err %v)", i, sb.State(), sb.Err)
		}
	}
}

// TestRunAffinityFallbacks: an out-of-range hint must behave like no hint
// (least-loaded placement), and a stopped pool must refuse the sandbox.
func TestRunAffinityFallbacks(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	// Cooperative, so that Run pushes: no caller slice finishes the spin.
	p := NewPool(Config{Workers: 2, Policy: PolicyCooperative})
	var wg sync.WaitGroup
	for _, hint := range []int{-1, 99} {
		sb, err := sandbox.New(cm, make([]byte, 1), sandbox.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		sb.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
		p.Run(sb, hint)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fallback submissions never completed")
	}
	p.Stop()
	sb, err := sandbox.New(cm, nil, sandbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(sb, 0)
	select {
	case <-sb.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Run after Stop never finished the sandbox")
	}
	if sb.Err != ErrStopped {
		t.Errorf("Run after Stop: err %v, want ErrStopped", sb.Err)
	}
}
