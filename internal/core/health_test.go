package core

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"sledge/internal/admission"
	"sledge/internal/wcc"
)

// sumSrc computes a deterministic function of the payload (byte sum mod 256
// plus the length's low byte) so a response proves which code ran and on
// which input. The loop gives each request a real gas charge.
const sumSrc = `
static u8 buf[256];
export i32 main() {
	i32 n = sys_read(buf, 256);
	i32 s = n;
	for (i32 i = 0; i < n; i = i + 1) {
		s = s + buf[i];
	}
	buf[0] = s;
	sys_write(buf, 1);
	return 0;
}
`

func sumExpect(payload []byte) byte {
	s := len(payload)
	for _, b := range payload {
		s += int(b)
	}
	return byte(s)
}

func registerSum(t *testing.T, rt *Runtime, name string) *Module {
	t.Helper()
	m, err := rt.RegisterWCC(name, sumSrc, wcc.Options{})
	if err != nil {
		t.Fatalf("RegisterWCC(%s): %v", name, err)
	}
	return m
}

func invokeSum(t *testing.T, rt *Runtime, name string, payload []byte) {
	t.Helper()
	resp, err := rt.Invoke(name, payload)
	if err != nil {
		t.Fatalf("Invoke(%s): %v", name, err)
	}
	if len(resp) != 1 || resp[0] != sumExpect(payload) {
		t.Fatalf("Invoke(%s) = %v, want [%d]", name, resp, sumExpect(payload))
	}
}

func TestHealthSnapshotFields(t *testing.T) {
	rt := New(Config{Workers: 2, Admission: &admission.Config{}})
	t.Cleanup(func() { rt.Close() })
	registerSum(t, rt, "sum")
	registerSum(t, rt, "idle")
	for i := 0; i < 4; i++ {
		invokeSum(t, rt, "sum", []byte{byte(i)})
	}
	h := rt.Health()
	if h.Workers != 2 {
		t.Errorf("workers = %d, want 2", h.Workers)
	}
	if h.MaxInflight <= 0 {
		t.Errorf("max_inflight = %d, want > 0 with admission on", h.MaxInflight)
	}
	if h.Draining {
		t.Error("draining on a live runtime")
	}
	mh, ok := h.Modules["sum"]
	if !ok {
		t.Fatal("modules missing sum")
	}
	if mh.ServiceNanos <= 0 {
		t.Errorf("sum service_ns = %d, want > 0 after traffic", mh.ServiceNanos)
	}
	if mh.Breaker != "closed" {
		t.Errorf("sum breaker = %q, want closed", mh.Breaker)
	}
	// Registration installs the compiled body; an idle module reports it
	// resident too.
	for _, name := range []string{"sum", "idle"} {
		if !h.Modules[name].Resident {
			t.Errorf("%s not resident after registration", name)
		}
	}
}

func TestHealthEndpoint(t *testing.T) {
	rt := New(Config{Workers: 1, Admission: &admission.Config{}})
	t.Cleanup(func() { rt.Close() })
	registerSum(t, rt, "sum")
	invokeSum(t, rt, "sum", []byte{1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rt.Serve(ln)
	resp, err := http.Get("http://" + ln.Addr().String() + "/__health")
	if err != nil {
		t.Fatalf("GET /__health: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content-type = %q", ct)
	}
	var h HealthSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	if h.Workers != 1 {
		t.Errorf("workers = %d, want 1", h.Workers)
	}
	mh, ok := h.Modules["sum"]
	if !ok {
		t.Fatal("health payload missing sum")
	}
	if mh.ServiceNanos <= 0 {
		t.Errorf("service_ns = %d, want > 0", mh.ServiceNanos)
	}
}

func TestQueueWaitEstimate(t *testing.T) {
	h := &HealthSnapshot{
		Workers:     2,
		MaxInflight: 4,
		Inflight:    4,
		AdmitQueued: 6,
		Modules: map[string]ModuleHealth{
			"sum": {ServiceNanos: int64(2 * time.Millisecond)},
		},
	}
	// ahead = 4+6 - (4-1) = 7; wait = 7 * 2ms / 2 workers = 7ms.
	if got := h.QueueWaitEstimate("sum", 0, time.Second); got != 7*time.Millisecond {
		t.Errorf("wait = %v, want 7ms", got)
	}
	// Router-side pending counts as backlog the snapshot has not seen.
	if got := h.QueueWaitEstimate("sum", 2, time.Second); got != 9*time.Millisecond {
		t.Errorf("wait with pending = %v, want 9ms", got)
	}
	// Unknown modules fall back to the caller's default estimate.
	if got := h.QueueWaitEstimate("ghost", 0, 4*time.Millisecond); got != 14*time.Millisecond {
		t.Errorf("default-estimate wait = %v, want 14ms", got)
	}
	// Free slots: no queueing delay at all.
	idle := &HealthSnapshot{Workers: 2, MaxInflight: 4, Inflight: 1}
	if got := idle.QueueWaitEstimate("sum", 0, time.Millisecond); got != 0 {
		t.Errorf("idle wait = %v, want 0", got)
	}
	// Without admission control the dispatch window is the worker count.
	raw := &HealthSnapshot{Workers: 2, QueueDepth: 3, Inflight: 2,
		Modules: map[string]ModuleHealth{"sum": {ServiceNanos: int64(time.Millisecond)}}}
	// ahead = 3+2 - 1 = 4; wait = 4 * 1ms / 2 = 2ms.
	if got := raw.QueueWaitEstimate("sum", 0, time.Second); got != 2*time.Millisecond {
		t.Errorf("no-admission wait = %v, want 2ms", got)
	}
}

// TestHealthWorkersUsesAdmissionHint: when the admission controller's
// capacity hint exceeds the scheduler's core count (I/O-bound functions
// whose blocked sandboxes drain concurrently on the event loop), the
// snapshot reports the larger drain rate so external wait estimates agree
// with the controller's own shed decisions.
func TestHealthWorkersUsesAdmissionHint(t *testing.T) {
	rt := New(Config{Workers: 1, Admission: &admission.Config{Workers: 8, MaxInflight: 8}})
	t.Cleanup(func() { rt.Close() })
	h := rt.Health()
	if h.Workers != 8 {
		t.Errorf("workers = %d, want admission hint 8 over core count 1", h.Workers)
	}
	if h.MaxInflight != 8 {
		t.Errorf("max_inflight = %d, want 8", h.MaxInflight)
	}
}
