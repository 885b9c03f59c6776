package nuclio

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sledge/internal/workloads/apps"
)

// TestMain lets the re-executed test binary act as a function worker.
func TestMain(m *testing.M) {
	if MaybeWorkerMain() {
		return
	}
	os.Exit(m.Run())
}

func newRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := New(Config{MaxWorkers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt
}

func TestInvokePing(t *testing.T) {
	rt := newRuntime(t)
	resp, err := rt.Invoke("ping", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(resp) != "p" {
		t.Errorf("ping = %q", resp)
	}
	if rt.Invocations.Load() != 1 {
		t.Errorf("Invocations = %d", rt.Invocations.Load())
	}
}

func TestInvokeEchoMatchesNative(t *testing.T) {
	rt := newRuntime(t)
	payload := apps.EchoPayload(10 * 1024)
	resp, err := rt.Invoke("echo", payload)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !bytes.Equal(resp, payload) {
		t.Errorf("echo over process IPC mangled payload (%d bytes)", len(resp))
	}
}

func TestInvokeEKF(t *testing.T) {
	rt := newRuntime(t)
	app, _ := apps.Get("gps-ekf")
	req := app.GenRequest()
	resp, err := rt.Invoke("gps-ekf", req)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	want := app.Native(req)
	if !bytes.Equal(resp, want) {
		t.Error("process-isolated EKF diverges from in-process native")
	}
}

func TestUnknownFunction(t *testing.T) {
	rt := newRuntime(t)
	if _, err := rt.Invoke("ghost", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("unknown function: %v", err)
	}
}

func TestSpawnNoop(t *testing.T) {
	rt := newRuntime(t)
	start := time.Now()
	if err := rt.SpawnNoop(); err != nil {
		t.Fatalf("SpawnNoop: %v", err)
	}
	t.Logf("fork+exec+wait took %v", time.Since(start))
}

func TestConcurrencyBoundedByWorkers(t *testing.T) {
	rt, err := New(Config{MaxWorkers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Invoke("ping", nil); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if rt.Invocations.Load() != 8 {
		t.Errorf("Invocations = %d", rt.Invocations.Load())
	}
}

func TestHTTPServing(t *testing.T) {
	rt := newRuntime(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rt.Serve(ln)
	defer rt.Close()
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/ping", "application/octet-stream", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "p" {
		t.Errorf("ping over HTTP: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/ghost", "application/octet-stream", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown status = %d", resp.StatusCode)
	}
}

func TestInvokeTimeoutKillsWorker(t *testing.T) {
	rt, err := New(Config{MaxWorkers: 1, InvokeTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// ~10^9 iterations of native spin takes well over the timeout.
	req := apps.SpinRequest(1_000_000_000)
	start := time.Now()
	_, err = rt.Invoke("spin", req)
	if err == nil {
		t.Fatal("timeout did not fire")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error %v does not mention timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
	if rt.Failures.Load() != 1 {
		t.Errorf("Failures = %d", rt.Failures.Load())
	}
}
