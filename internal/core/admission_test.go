package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/admission"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// newAdmissionRuntime builds a runtime with admission enabled and the
// given overrides.
func newAdmissionRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Admission == nil {
		cfg.Admission = &admission.Config{}
	}
	rt := New(cfg)
	t.Cleanup(func() { rt.Close() })
	return rt
}

func serveRuntime(t *testing.T, rt *Runtime) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(ln)
	return "http://" + ln.Addr().String()
}

// TestAdmissionPassThrough: an unloaded runtime with admission enabled
// behaves exactly like one without it.
func TestAdmissionPassThrough(t *testing.T) {
	rt := newAdmissionRuntime(t, Config{})
	registerApp(t, rt, "echo")
	payload := apps.EchoPayload(1024)
	resp, err := rt.Invoke("echo", payload)
	if err != nil || !bytes.Equal(resp, payload) {
		t.Fatalf("echo = %d bytes, %v", len(resp), err)
	}
	snap, ok := rt.AdmissionStats()
	if !ok || snap.Admitted != 1 || snap.Shed() != 0 {
		t.Fatalf("admission stats = %+v ok=%v, want 1 admitted 0 shed", snap, ok)
	}
}

// TestRateLimitOverHTTP: a tenant past its token bucket gets 429 with a
// Retry-After header on the wire.
func TestRateLimitOverHTTP(t *testing.T) {
	rt := newAdmissionRuntime(t, Config{
		Admission: &admission.Config{TenantRate: 1, TenantBurst: 2},
	})
	registerApp(t, rt, "ping")
	url := serveRuntime(t, rt)

	client := &http.Client{Timeout: 5 * time.Second}
	codes := map[int]int{}
	var retryAfter string
	for i := 0; i < 3; i++ {
		resp, err := client.Post(url+"/ping", "application/octet-stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes[resp.StatusCode]++
		if resp.StatusCode == 429 {
			retryAfter = resp.Header.Get("Retry-After")
		}
	}
	if codes[200] != 2 || codes[429] != 1 {
		t.Fatalf("status codes = %v, want 2x200 + 1x429", codes)
	}
	if retryAfter == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	// The shed shows up in /__stats.
	resp, err := client.Get(url + "/__stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Admission *admission.Snapshot `json:"admission"`
		Server    struct {
			Served uint64 `json:"served"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission == nil || stats.Admission.ShedRate != 1 {
		t.Fatalf("stats.admission = %+v, want shed_rate_429 = 1", stats.Admission)
	}
	if stats.Server.Served == 0 {
		t.Fatal("server stats missing from /__stats")
	}
}

// TestBreakerStopsCrashingModule: a trapping function trips its breaker
// and subsequent requests shed with 503 without burning sandboxes; Replace
// resets the circuit.
func TestBreakerStopsCrashingModule(t *testing.T) {
	rt := newAdmissionRuntime(t, Config{
		Admission: &admission.Config{
			Breaker: admission.BreakerConfig{Window: 8, MinSamples: 4, FailureRatio: 0.5, Cooldown: time.Hour},
		},
	})
	// unreachable memory access traps every invocation.
	if _, err := rt.RegisterWCC("crashy", `
export i32 main() {
	u8* p = (u8*) 0x7fffffff;
	p[0] = 1;
	return 0;
}
`, wcc.Options{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	var rej *admission.Rejection
	for i := 0; i < 20; i++ {
		_, err := rt.Invoke("crashy", nil)
		if err == nil {
			t.Fatal("crashy must fail")
		}
		if errors.As(err, &rej) {
			break
		}
	}
	if rej == nil || rej.Status != 503 || rej.Reason != "breaker-open" {
		t.Fatalf("rejection = %+v, want 503 breaker-open", rej)
	}
	trappedBefore := rt.Stats().Trapped
	for i := 0; i < 10; i++ {
		rt.Invoke("crashy", nil)
	}
	if trappedAfter := rt.Stats().Trapped; trappedAfter != trappedBefore {
		t.Fatalf("breaker-open requests still reached the scheduler: trapped %d -> %d", trappedBefore, trappedAfter)
	}

	// Redeploy a fixed version under the same name: circuit resets.
	app, _ := apps.Get("ping")
	cm, err := app.Compile(rt.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Replace("crashy", cm, "main", ""); err != nil {
		t.Fatal(err)
	}
	resp, err := rt.Invoke("crashy", nil)
	if err != nil || string(resp) != "p" {
		t.Fatalf("replaced module = %q, %v (breaker should be reset)", resp, err)
	}
}

// TestUnregister: removal takes effect, clears admission state, and a
// re-registration under the same name works.
func TestUnregister(t *testing.T) {
	rt := newAdmissionRuntime(t, Config{})
	registerApp(t, rt, "ping")
	if _, err := rt.Invoke("ping", nil); err != nil {
		t.Fatal(err)
	}
	if !rt.Unregister("ping") {
		t.Fatal("Unregister(ping) = false")
	}
	if rt.Unregister("ping") {
		t.Fatal("double Unregister must report false")
	}
	if _, err := rt.Invoke("ping", nil); !errors.Is(err, ErrNoModule) {
		t.Fatalf("invoke after unregister = %v, want ErrNoModule", err)
	}
	registerApp(t, rt, "ping")
	if resp, err := rt.Invoke("ping", nil); err != nil || string(resp) != "p" {
		t.Fatalf("re-registered ping = %q, %v", resp, err)
	}
}

// TestDeadlineHeaderShedsOverHTTP: a request carrying an impossible
// deadline sheds with 503 + Retry-After while the queue is busy.
func TestDeadlineHeaderShedsOverHTTP(t *testing.T) {
	rt := newAdmissionRuntime(t, Config{
		Workers: 1,
		Admission: &admission.Config{
			MaxInflight:     1,
			DefaultEstimate: 500 * time.Millisecond,
		},
	})
	registerApp(t, rt, "spin")
	url := serveRuntime(t, rt)
	client := &http.Client{Timeout: 10 * time.Second}

	// Occupy the only slot with a long spin.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := client.Post(url+"/spin", "application/octet-stream",
			bytes.NewReader(apps.SpinRequest(30_000_000)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Wait until it is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for rt.pool.Inflight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest("POST", url+"/spin", bytes.NewReader(apps.SpinRequest(1000)))
	req.Header.Set(DeadlineHeader, "1") // 1ms: cannot be met behind a 500ms estimate
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d (%q), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if !strings.Contains(string(body), "deadline-shed") {
		t.Fatalf("body = %q, want deadline-shed reason", body)
	}
	wg.Wait()
}

// TestRuntimeDrainUnderLoad is the end-to-end graceful-drain check (run
// with -race): shutdown under HTTP load completes every in-flight admitted
// request and refuses new ones.
func TestRuntimeDrainUnderLoad(t *testing.T) {
	rt := newAdmissionRuntime(t, Config{Workers: 2})
	registerApp(t, rt, "spin")
	url := serveRuntime(t, rt)

	client := &http.Client{Timeout: 10 * time.Second}
	var ok200, refused atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(url+"/spin", "application/octet-stream",
					bytes.NewReader(apps.SpinRequest(50_000)))
				if err != nil {
					refused.Add(1) // connection refused after listener close
					return
				}
				io.Copy(io.Discard, resp.Body)
				code := resp.StatusCode
				resp.Body.Close()
				switch code {
				case 200:
					ok200.Add(1)
				case 503:
					refused.Add(1)
				default:
					t.Errorf("unexpected status %d", code)
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	if !rt.Drain(10 * time.Second) {
		t.Error("drain did not complete cleanly")
	}
	close(stop)
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("no successful requests before drain")
	}
	snap, _ := rt.AdmissionStats()
	if snap.Inflight != 0 || snap.Queued != 0 {
		t.Fatalf("post-drain admission state = %+v", snap)
	}
	if rt.pool.Inflight() != 0 {
		t.Fatalf("post-drain pool inflight = %d", rt.pool.Inflight())
	}
	// Drained runtime refuses direct invokes too.
	if _, err := rt.Invoke("spin", apps.SpinRequest(10)); err == nil {
		t.Fatal("invoke after drain must fail")
	}
	t.Logf("ok=%d refused=%d", ok200.Load(), refused.Load())
}

// TestPriceDoesNotMoveBesideHog: a request's price is its module's gas at a
// rate, so the same request costs the same whether it ran alone or queued
// behind a CPU hog on the only worker — where its wall-clock latency grows
// by the hog's quanta. Two names for the spin function keep the hog's gas
// out of the short request's mean. The same holds for a request that blocks
// on storage: its blocked span is the read's own latency, not the wait for
// the hog's worker that follows it.
func TestPriceDoesNotMoveBesideHog(t *testing.T) {
	store := abi.NewMapKV()
	store.Set("obj", []byte("stored-value"))
	rt := newAdmissionRuntime(t, Config{Workers: 1, KV: &abi.LatentKV{KVStore: store, Delay: time.Millisecond}})
	spin, _ := apps.Get("spin")
	for name, app := range map[string]*apps.App{"short": spin, "hog": spin, "fetch": &apps.FetchApp} {
		cm, err := app.Compile(rt.EngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.RegisterCompiled(name, cm, "main", ""); err != nil {
			t.Fatal(err)
		}
	}
	short, _ := rt.Lookup("short")
	fetch, _ := rt.Lookup("fetch")
	const n = 16
	const gasPerMS = 300_000 // any fixed rate: the test compares gas, not the clock
	invokeShort := func() {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := rt.Invoke("short", apps.SpinRequest(20_000)); err != nil {
				t.Fatal(err)
			}
			if out, err := rt.Invoke("fetch", []byte("obj")); err != nil || string(out) != "stored-value" {
				t.Fatalf("fetch = %q, %v", out, err)
			}
		}
	}

	invokeShort()
	alone, aloneLat := short.cost(gasPerMS), short.Stats().MeanLatency
	fetchAlone := fetch.cost(gasPerMS)

	stop, hogDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(hogDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Invoke("hog", apps.SpinRequest(2_000_000))
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); rt.pool.Inflight() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the hog never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	invokeShort()
	close(stop)
	<-hogDone

	beside := short.cost(gasPerMS)
	t.Logf("mean latency: %v alone, %v over both phases; price %v both times", aloneLat, short.Stats().MeanLatency, alone)
	if alone <= 0 || beside != alone {
		t.Fatalf("price beside the hog = %v, alone = %v: want equal and positive", beside, alone)
	}
	if fetchBeside := fetch.cost(gasPerMS); fetchAlone <= time.Millisecond || fetchBeside != fetchAlone {
		t.Fatalf("fetch's price beside the hog = %v, alone = %v: want equal and above its 1ms read", fetchBeside, fetchAlone)
	}
}
