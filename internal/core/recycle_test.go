package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sledge/internal/engine"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// TestInvokeRecyclingIsolated hammers one module from many goroutines with
// distinct payloads; every response must match its own request even though
// all requests share a small set of recycled sandboxes. Run under -race this
// also exercises the worker/waiter ownership handoff.
func TestInvokeRecyclingIsolated(t *testing.T) {
	rt := newTestRuntime(t)
	if _, err := rt.RegisterWCC("echo", `
static u8 buf[4096];
export i32 main() {
	i32 n = sys_read(buf, 4096);
	sys_write(buf, n);
	return n;
}
`, wcc.Options{}); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := []byte(fmt.Sprintf("g%d-i%d-%s", g, i, strings.Repeat("x", i)))
				resp, err := rt.Invoke("echo", payload)
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				if !bytes.Equal(resp, payload) {
					errs <- fmt.Errorf("g%d i%d: got %q want %q", g, i, resp, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInvokeTimeoutAbandons: a timed-out request returns an error, bumps the
// abandoned counter, and the worker reaps the still-running sandbox so the
// pool drains (no silent leak).
func TestInvokeTimeoutAbandons(t *testing.T) {
	rt := New(Config{Workers: 1, RequestTimeout: 20 * time.Millisecond})
	t.Cleanup(func() { rt.Close() })
	if _, err := rt.RegisterWCC("spin", `
export i32 main() {
	i32 x = 0;
	for (i32 i = 0; i != 2; i = i * 1) {
		x = x + 1;
	}
	return x;
}
`, wcc.Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Invoke("spin", nil)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Invoke = %v, want timeout", err)
	}
	if got := rt.Abandoned(); got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
	// The preemptive scheduler surfaces the abandoned sandbox at the next
	// quantum boundary and reaps it; in-flight work must drain.
	if !rt.Pool().Quiesce(5 * time.Second) {
		t.Fatal("abandoned sandbox never reaped; pool did not drain")
	}
	// The runtime stays serviceable afterwards.
	if _, err := rt.RegisterWCC("ok", `
export i32 main() { return 0; }
`, wcc.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke("ok", nil); err != nil {
		t.Errorf("Invoke after abandon: %v", err)
	}
}

// TestStatsReportsAbandoned: the /__stats payload carries the counter.
func TestStatsReportsAbandoned(t *testing.T) {
	rt := newTestRuntime(t)
	resp := rt.statsResponse()
	if resp.Status != 200 {
		t.Fatalf("stats status %d", resp.Status)
	}
	if !bytes.Contains(resp.Body, []byte(`"abandoned"`)) {
		t.Errorf("stats payload missing abandoned counter: %s", resp.Body)
	}
}

// TestNoRecycleConfig: the churn baseline still works end to end.
func TestNoRecycleConfig(t *testing.T) {
	rt := New(Config{Workers: 1, NoRecycle: true})
	t.Cleanup(func() { rt.Close() })
	registerApp(t, rt, "ping")
	for i := 0; i < 10; i++ {
		resp, err := rt.Invoke("ping", nil)
		if err != nil || string(resp) != "p" {
			t.Fatalf("ping #%d = %q, %v", i, resp, err)
		}
	}
}

// TestColdChurnMatchesNative deploys, invokes once and retires suite modules
// under fresh names from several goroutines at once, the shape of traffic
// that keeps the slab recycler busy: every first instantiation builds on
// whatever slab another tenant's retired module left behind, and every
// reply must still be byte-identical to the app's native implementation.
func TestColdChurnMatchesNative(t *testing.T) {
	rt := newTestRuntime(t)
	type deployable struct {
		name      string
		bin       []byte
		req, want []byte
	}
	var suite []deployable
	for _, name := range []string{"ping", "echo", "gps-ekf", "resize", "rgb2gray"} {
		app, ok := apps.Get(name)
		if !ok {
			t.Fatalf("app %s missing", name)
		}
		res, err := wcc.Compile(app.Source, wcc.Options{HeapBytes: app.HeapBytes, Data: app.Data})
		if err != nil {
			t.Fatalf("wcc %s: %v", name, err)
		}
		req := app.GenRequest()
		suite = append(suite, deployable{name, res.Binary, req, app.Native(req)})
	}
	before := engine.SlabRecyclerStats()
	const goroutines = 4
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				suffix := fmt.Sprintf("-g%d-%d", g, i)
				for _, d := range suite {
					if _, err := rt.RegisterWasm(d.name+suffix, d.bin, "main"); err != nil {
						errs <- err
						return
					}
				}
				for _, d := range suite {
					got, err := rt.Invoke(d.name+suffix, d.req)
					if err != nil {
						errs <- fmt.Errorf("%s%s: %w", d.name, suffix, err)
						return
					}
					if !bytes.Equal(got, d.want) {
						errs <- fmt.Errorf("%s%s: reply differs from native (%d vs %d bytes)", d.name, suffix, len(got), len(d.want))
						return
					}
				}
				for _, d := range suite {
					if !rt.Unregister(d.name + suffix) {
						errs <- fmt.Errorf("%s%s was not registered", d.name, suffix)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	after := engine.SlabRecyclerStats()
	if after.Hits == before.Hits || after.Donated == before.Donated {
		t.Errorf("the churn never went through the recycler: %+v -> %+v", before, after)
	}
}

// TestStatsReportsSlabs: the recycler's gauge and counters ride in /__stats,
// so a surprising RSS can be read off the running process.
func TestStatsReportsSlabs(t *testing.T) {
	rt := newTestRuntime(t)
	registerApp(t, rt, "ping")
	if _, err := rt.Invoke("ping", nil); err != nil {
		t.Fatal(err)
	}
	m, _ := rt.Lookup("ping")
	waitPooled(t, m)
	rt.Unregister("ping")
	var payload struct {
		Slabs *engine.SlabStats `json:"slabs"`
	}
	if err := json.Unmarshal(rt.statsResponse().Body, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Slabs == nil {
		t.Fatal("/__stats has no slabs block")
	}
	if got, want := *payload.Slabs, engine.SlabRecyclerStats(); got != want {
		t.Errorf("slabs block = %+v, recycler says %+v", got, want)
	}
	if payload.Slabs.HeldBytes == 0 || payload.Slabs.Donated == 0 {
		t.Errorf("retired module's slab not visible: %+v", *payload.Slabs)
	}
}
