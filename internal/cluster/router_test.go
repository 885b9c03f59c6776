package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/workloads/apps"
)

// newTestNode builds a runtime with ping + spin registered.
func newTestNode(t *testing.T, workers int, acfg *admission.Config) *core.Runtime {
	t.Helper()
	rt := core.New(core.Config{Workers: workers, Admission: acfg})
	t.Cleanup(func() { rt.Close() })
	for _, name := range []string{"ping", "spin"} {
		app, ok := apps.Get(name)
		if !ok {
			t.Fatalf("app %q not found", name)
		}
		cm, err := app.Compile(rt.EngineConfig())
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		if _, err := rt.RegisterCompiled(name, cm, "main", ""); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	return rt
}

// newTestRouter builds a router with a poll interval long enough that tests
// control exactly which health snapshot the scorer sees.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Hour
	}
	r := New(cfg)
	t.Cleanup(r.Close)
	return r
}

func register(t *testing.T, r *Router, cfg NodeConfig) {
	t.Helper()
	if err := r.Register(cfg); err != nil {
		t.Fatalf("Register(%s): %v", cfg.Name, err)
	}
}

func TestLocalFastPath(t *testing.T) {
	r := newTestRouter(t, Config{})
	rt := newTestNode(t, 2, &admission.Config{Workers: 2})
	register(t, r, NodeConfig{Name: "edge0", Class: ClassEdge, Runtime: rt})
	out, err := r.Invoke("ping", nil)
	if err != nil || string(out) != "p" {
		t.Fatalf("Invoke(ping) = %q, %v", out, err)
	}
	snap := r.Stats()
	if snap.Routed != 1 || snap.Offloads != 0 || snap.Sheds != 0 {
		t.Fatalf("stats = %+v, want 1 routed, 0 offloads/sheds", snap)
	}
	if len(snap.Nodes) != 1 || snap.Nodes[0].Dispatched != 1 || snap.Nodes[0].Succeeded != 1 {
		t.Fatalf("node stats = %+v", snap.Nodes)
	}
}

func TestUnknownModule(t *testing.T) {
	r := newTestRouter(t, Config{})
	rt := newTestNode(t, 1, nil)
	register(t, r, NodeConfig{Name: "edge0", Runtime: rt})
	if _, err := r.Invoke("ghost", nil); !errors.Is(err, core.ErrNoModule) {
		t.Fatalf("Invoke(ghost) err = %v, want ErrNoModule", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := newTestRouter(t, Config{})
	rt := newTestNode(t, 1, nil)
	if err := r.Register(NodeConfig{Name: "a"}); err == nil {
		t.Error("register without runtime succeeded")
	}
	if err := r.Register(NodeConfig{Runtime: rt}); err == nil {
		t.Error("register without name succeeded")
	}
	register(t, r, NodeConfig{Name: "a", Runtime: rt})
	if err := r.Register(NodeConfig{Name: "a", Runtime: rt}); err == nil {
		t.Error("duplicate name succeeded")
	}
}

// occupy fills node's only admission slot with a long spin and waits until
// it is dispatched, so the next admitted request faces a 500ms queue-wait
// estimate.
func occupy(t *testing.T, rt *core.Runtime) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.Invoke("spin", apps.SpinRequest(50_000_000))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Pool().Inflight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rt.Pool().Inflight() == 0 {
		t.Fatal("occupier never dispatched")
	}
	return &wg
}

// saturatedConfig makes a node reject any request with a sub-500ms deadline
// the moment one request is in flight: one slot, 500ms claimed service time.
func saturatedConfig() *admission.Config {
	return &admission.Config{
		Workers:         1,
		MaxInflight:     1,
		DefaultEstimate: 500 * time.Millisecond,
	}
}

// TestOffloadOnRejection is the tentpole behaviour: the preferred edge node
// sheds on its admission estimate, and instead of surfacing the 503 the
// router retries on the cloud peer and succeeds.
func TestOffloadOnRejection(t *testing.T) {
	r := newTestRouter(t, Config{})
	edge := newTestNode(t, 1, saturatedConfig())
	cloud := newTestNode(t, 4, &admission.Config{Workers: 4})
	// The edge is co-located (preferred); the cloud is 2ms away.
	register(t, r, NodeConfig{Name: "edge0", Class: ClassEdge, Runtime: edge})
	register(t, r, NodeConfig{Name: "cloud0", Class: ClassCloud, Link: 2 * time.Millisecond, Runtime: cloud})

	occupy(t, edge)
	out, err := r.InvokeWithDeadline("ping", nil, 200*time.Millisecond)
	if err != nil || string(out) != "p" {
		t.Fatalf("offloaded invoke = %q, %v", out, err)
	}
	snap := r.Stats()
	if snap.Offloads != 1 || snap.OffloadAttempts != 1 {
		t.Fatalf("offloads/attempts = %d/%d, want 1/1", snap.Offloads, snap.OffloadAttempts)
	}
	var edgeNS, cloudNS NodeSnapshot
	for _, ns := range snap.Nodes {
		switch ns.Name {
		case "edge0":
			edgeNS = ns
		case "cloud0":
			cloudNS = ns
		}
	}
	if edgeNS.Rejected != 1 {
		t.Errorf("edge rejected = %d, want 1", edgeNS.Rejected)
	}
	if cloudNS.Succeeded != 1 {
		t.Errorf("cloud succeeded = %d, want 1", cloudNS.Succeeded)
	}
}

// TestClusterSaturated: when every node sheds, the router answers one
// cluster-level 503 carrying the smallest Retry-After any node offered.
func TestClusterSaturated(t *testing.T) {
	r := newTestRouter(t, Config{})
	edge := newTestNode(t, 1, saturatedConfig())
	register(t, r, NodeConfig{Name: "edge0", Runtime: edge})
	occupy(t, edge)
	_, err := r.InvokeWithDeadline("ping", nil, 100*time.Millisecond)
	var rej *admission.Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *admission.Rejection", err)
	}
	if rej.Status != 503 || rej.Reason != ReasonClusterSaturated {
		t.Fatalf("rejection = %+v, want 503 cluster-saturated", rej)
	}
	if rej.RetryAfter <= 0 {
		t.Fatal("cluster-saturated rejection missing Retry-After")
	}
	if snap := r.Stats(); snap.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", snap.Sheds)
	}
}

// TestRateLimitNotOffloaded: a 429 is tenant policy, not node saturation —
// the router must not let a tenant launder traffic past its rate by
// overflowing onto a peer.
func TestRateLimitNotOffloaded(t *testing.T) {
	r := newTestRouter(t, Config{})
	limited := newTestNode(t, 1, &admission.Config{TenantRate: 0.001, TenantBurst: 1})
	spare := newTestNode(t, 1, nil)
	register(t, r, NodeConfig{Name: "edge0", Runtime: limited})
	register(t, r, NodeConfig{Name: "cloud0", Class: ClassCloud, Link: 10 * time.Millisecond, Runtime: spare})
	if _, err := r.Invoke("ping", nil); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	_, err := r.Invoke("ping", nil)
	var rej *admission.Rejection
	if !errors.As(err, &rej) || rej.Status != 429 {
		t.Fatalf("second invoke err = %v, want 429 rejection", err)
	}
	snap := r.Stats()
	for _, ns := range snap.Nodes {
		if ns.Name == "cloud0" && ns.Dispatched != 0 {
			t.Fatalf("rate-limited request offloaded to peer (dispatched=%d)", ns.Dispatched)
		}
	}
	if snap.OffloadAttempts != 0 {
		t.Fatalf("offload attempts = %d, want 0", snap.OffloadAttempts)
	}
}

// TestStickyWarmRouting: two nodes publish identical health except that the
// module's compiled body is resident on one and cold (evicted by the bounded
// cache) on the other. pick must choose the resident node — in either
// registration order, so the choice comes from the warm bonus, not from a
// tie broken by position.
func TestStickyWarmRouting(t *testing.T) {
	r := newTestRouter(t, Config{})
	snapshot := func(resident bool) *core.HealthSnapshot {
		return &core.HealthSnapshot{
			Workers: 1,
			Modules: map[string]core.ModuleHealth{
				"hot": {ServiceNanos: int64(time.Millisecond), Resident: resident},
			},
		}
	}
	resident := &node{cfg: NodeConfig{Name: "resident"}}
	resident.health.Store(snapshot(true))
	cold := &node{cfg: NodeConfig{Name: "cold"}}
	cold.health.Store(snapshot(false))
	for _, nodes := range [][]*node{{resident, cold}, {cold, resident}} {
		got, _, known := r.pick(nodes, "hot", 0)
		if !known || got != resident {
			t.Errorf("order %s,%s: picked %v (known %v), want the resident node",
				nodes[0].cfg.Name, nodes[1].cfg.Name, got, known)
		}
	}
}

// TestHedgedDispatch: once a request has outlived the module's recent p99
// and its first pick shed, the retry goes to two peers at once.
func TestHedgedDispatch(t *testing.T) {
	r := newTestRouter(t, Config{HedgeMinSamples: 8})
	edge := newTestNode(t, 1, saturatedConfig())
	cloudA := newTestNode(t, 2, &admission.Config{Workers: 2})
	cloudB := newTestNode(t, 2, &admission.Config{Workers: 2})
	register(t, r, NodeConfig{Name: "edge0", Runtime: edge})
	register(t, r, NodeConfig{Name: "cloudA", Class: ClassCloud, Link: time.Millisecond, Runtime: cloudA})
	register(t, r, NodeConfig{Name: "cloudB", Class: ClassCloud, Link: time.Millisecond, Runtime: cloudB})
	// Seed the latency window with microsecond samples so any real request
	// is already past p99 by the time its first pick rejects.
	w := r.window("ping")
	for i := 0; i < 8; i++ {
		w.Observe(time.Microsecond)
	}
	occupy(t, edge)
	out, err := r.InvokeWithDeadline("ping", nil, 200*time.Millisecond)
	if err != nil || string(out) != "p" {
		t.Fatalf("hedged invoke = %q, %v", out, err)
	}
	snap := r.Stats()
	if snap.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", snap.Hedges)
	}
	if snap.Offloads != 1 {
		t.Fatalf("offloads = %d, want 1", snap.Offloads)
	}
}

// TestRouterAddsNoAllocOnLocalFastPath compares the router's steady-state
// allocation count against invoking the runtime directly: the router layer
// must add zero.
func TestRouterAddsNoAllocOnLocalFastPath(t *testing.T) {
	rt := newTestNode(t, 2, &admission.Config{Workers: 2})
	r := newTestRouter(t, Config{})
	register(t, r, NodeConfig{Name: "edge0", Runtime: rt})
	// Warm up both paths (window creation, estimator seeding).
	for i := 0; i < 8; i++ {
		if _, err := r.Invoke("ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	direct := testing.AllocsPerRun(200, func() {
		if _, err := rt.Invoke("ping", nil); err != nil {
			t.Fatal(err)
		}
	})
	routed := testing.AllocsPerRun(200, func() {
		if _, err := r.Invoke("ping", nil); err != nil {
			t.Fatal(err)
		}
	})
	if routed > direct {
		t.Fatalf("router fast path allocates: %.1f allocs/op vs %.1f direct", routed, direct)
	}
}
