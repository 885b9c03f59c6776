package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/httpd"
	"sledge/internal/sched"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// The request path hands each sandbox to sched.Pool.Run, which runs its
// first short slice on the calling goroutine. These tests pin what that must
// not change: every sandbox's instance returns to its pool whatever the pool
// does, traps read the same wherever they happen, and blocking I/O still
// completes on a worker.

// loopSrc spins req_len × 1000 iterations — an empty request fits the
// caller's slice, a few bytes do not — and replies with one byte.
const loopSrc = `
static u8 out[4];

export i32 main() {
	i32 n = sys_req_len();
	i32 acc = 0;
	for (i32 i = 0; i < n * 1000; i = i + 1) {
		acc = acc + i;
	}
	out[0] = 111;
	sys_write(out, 1);
	return 0;
}
`

// loopTrapSrc is loopSrc ending in a division by zero instead of a reply.
const loopTrapSrc = `
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

func registerSrc(t *testing.T, rt *Runtime, name, src string) *engine.CompiledModule {
	t.Helper()
	m, err := rt.RegisterWCC(name, src, wcc.Options{})
	if err != nil {
		t.Fatalf("RegisterWCC %s: %v", name, err)
	}
	return m.Compiled()
}

// warmPool puts n fresh instances on cm's free list and returns its length.
func warmPool(cm *engine.CompiledModule, n int) int {
	ins := make([]*engine.Instance, n)
	for i := range ins {
		ins[i] = cm.Acquire()
	}
	for _, in := range ins {
		cm.Release(in)
	}
	return cm.PooledInstances()
}

// TestStoppedPoolReleasesSandbox: a request refused by a stopped pool still
// returns its instance, on the direct path and at a pipeline stage.
func TestStoppedPoolReleasesSandbox(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	registerApp(t, rt, "ping")
	if _, err := rt.RegisterPipeline("pings", "ping", "ping"); err != nil {
		t.Fatal(err)
	}
	m, _ := rt.Lookup("ping")
	cm := m.Compiled()
	pre := warmPool(cm, 4)
	rt.Pool().Stop()

	if _, err := rt.Invoke("ping", nil); !errors.Is(err, sched.ErrStopped) {
		t.Errorf("Invoke on a stopped pool: %v, want ErrStopped", err)
	}
	if got := cm.PooledInstances(); got != pre {
		t.Errorf("direct invoke: %d pooled instances, want %d", got, pre)
	}
	if _, err := rt.InvokePipeline("pings", nil); !errors.Is(err, sched.ErrStopped) {
		t.Errorf("InvokePipeline on a stopped pool: %v, want ErrStopped", err)
	}
	if got := cm.PooledInstances(); got != pre {
		t.Errorf("pipeline stage: %d pooled instances, want %d", got, pre)
	}
}

// TestDrainMidStreamStress drains the runtime while goroutines keep
// invoking requests that finish in the caller's slice, requests that go on
// to a worker, and pipelines of the latter. Whichever way Stop meets a
// request — refused up front, failed in an inbox, drained off a worker —
// the request fails with ErrStopped or succeeds, inflight returns to 0 and
// every instance is back on its module's free list.
func TestDrainMidStreamStress(t *testing.T) {
	const goroutines = 4
	rt := New(Config{Workers: 2})
	defer rt.Close()
	registerApp(t, rt, "ping")
	loop := registerSrc(t, rt, "loop", loopSrc)
	if _, err := rt.RegisterPipeline("loops", "loop", "loop"); err != nil {
		t.Fatal(err)
	}
	m, _ := rt.Lookup("ping")
	ping := m.Compiled()
	prePing := warmPool(ping, goroutines)
	preLoop := warmPool(loop, 2*goroutines) // a pipeline holds two stages at once

	long := make([]byte, 4)
	var served atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				var err error
				switch i % 3 {
				case 0:
					_, err = rt.Invoke("ping", nil)
				case 1:
					_, err = rt.Invoke("loop", long)
				default:
					_, err = rt.Invoke("p/loops", long)
				}
				if err != nil {
					errs <- err
					return
				}
				served.Add(1)
			}
		}(g)
	}
	for deadline := time.Now().Add(30 * time.Second); served.Load() < 300; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests served", served.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	rt.Drain(time.Second)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, sched.ErrStopped) {
			t.Errorf("request failed with %v, want ErrStopped", err)
		}
	}
	if n := rt.Pool().Inflight(); n != 0 {
		t.Errorf("Inflight = %d after drain", n)
	}
	if got := ping.PooledInstances(); got != prePing {
		t.Errorf("ping: %d pooled instances, want %d", got, prePing)
	}
	if got := loop.PooledInstances(); got != preLoop {
		t.Errorf("loop: %d pooled instances, want %d", got, preLoop)
	}
}

// TestCallerTrapMatchesWorkerTrap: the same trap, taken inside the caller's
// slice (empty request) and on a worker (ten bytes), gives the same reply
// and moves the same counters.
func TestCallerTrapMatchesWorkerTrap(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	registerSrc(t, rt, "trap", loopTrapSrc)
	m, _ := rt.Lookup("trap")
	var replies []httpd.Response
	for i, body := range [][]byte{nil, make([]byte, 10)} {
		replies = append(replies, rt.handle(&httpd.Request{Method: "POST", Path: "/trap", Body: body}))
		if st := rt.Stats(); st.Trapped != uint64(i+1) || st.Submitted != uint64(i+1) {
			t.Errorf("after trap %d: Stats = %+v", i+1, st)
		}
		if f := m.Stats().Failures; f != uint64(i+1) {
			t.Errorf("after trap %d: module failures = %d", i+1, f)
		}
	}
	caller, worker := replies[0], replies[1]
	if caller.Status != 500 || caller.Status != worker.Status || string(caller.Body) != string(worker.Body) {
		t.Errorf("caller trap %d %q, worker trap %d %q", caller.Status, caller.Body, worker.Status, worker.Body)
	}
}

// TestFetchBlocksOnItsOwnTimer: fetch blocks on latent storage inside its
// first slice; its own timer hands it to a worker when the read is due, and
// the worker completes it.
func TestFetchBlocksOnItsOwnTimer(t *testing.T) {
	store := abi.NewMapKV()
	store.Set("obj", []byte("stored-value"))
	rt := New(Config{Workers: 1, KV: &abi.LatentKV{KVStore: store, Delay: time.Millisecond}})
	defer rt.Close()
	cm, err := apps.FetchApp.Compile(rt.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterCompiled("fetch", cm, "main", ""); err != nil {
		t.Fatal(err)
	}
	out, err := rt.Invoke("fetch", []byte("obj"))
	if err != nil || string(out) != "stored-value" {
		t.Fatalf("fetch = %q, %v", out, err)
	}
	if st := rt.Stats(); st.Blocked != 1 || st.Completed != 1 {
		t.Errorf("Stats = %+v, want one blocked, one completed", st)
	}
}
