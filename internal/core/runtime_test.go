package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sledge/internal/wasm"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

func newTestRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt := New(Config{Workers: 2})
	t.Cleanup(func() { rt.Close() })
	return rt
}

func registerApp(t *testing.T, rt *Runtime, name string) {
	t.Helper()
	app, ok := apps.Get(name)
	if !ok {
		t.Fatalf("app %s missing", name)
	}
	cm, err := app.Compile(rt.cfg.Engine)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	if _, err := rt.RegisterCompiled(name, cm, "main", ""); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
}

func TestInvokeDirect(t *testing.T) {
	rt := newTestRuntime(t)
	registerApp(t, rt, "ping")
	registerApp(t, rt, "echo")

	resp, err := rt.Invoke("ping", nil)
	if err != nil || string(resp) != "p" {
		t.Errorf("ping = %q, %v", resp, err)
	}
	payload := apps.EchoPayload(4096)
	resp, err = rt.Invoke("echo", payload)
	if err != nil || !bytes.Equal(resp, payload) {
		t.Errorf("echo mismatch (%d bytes, err %v)", len(resp), err)
	}
	if _, err := rt.Invoke("ghost", nil); !errors.Is(err, ErrNoModule) {
		t.Errorf("unknown module: %v", err)
	}
}

func TestRegisterWCCAndErrors(t *testing.T) {
	rt := newTestRuntime(t)
	if _, err := rt.RegisterWCC("inc", `
static u8 b[1];
export i32 main() {
	sys_read(b, 1);
	b[0] = b[0] + 1;
	sys_write(b, 1);
	return 0;
}
`, wcc.Options{}); err != nil {
		t.Fatalf("RegisterWCC: %v", err)
	}
	resp, err := rt.Invoke("inc", []byte{41})
	if err != nil || len(resp) != 1 || resp[0] != 42 {
		t.Errorf("inc = %v, %v", resp, err)
	}
	// Duplicate registration fails.
	if _, err := rt.RegisterWCC("inc", `export i32 main() { return 0; }`, wcc.Options{}); !errors.Is(err, ErrDuplicateModule) {
		t.Errorf("duplicate register: %v", err)
	}
	// Broken source fails cleanly.
	if _, err := rt.RegisterWCC("bad", `export i32 main() { return x; }`, wcc.Options{}); err == nil {
		t.Error("registered invalid source")
	}
	mods := rt.Modules()
	if len(mods) != 1 || mods[0] != "inc" {
		t.Errorf("Modules = %v", mods)
	}
}

func TestTrappedModuleReturnsError(t *testing.T) {
	rt := newTestRuntime(t)
	if _, err := rt.RegisterWCC("crash", `
static u8 b[4];
export i32 main() {
	i32* p = (i32*) b;
	// Out-of-bounds store: sandbox violation, not host corruption.
	p[1000000] = 7;
	return 0;
}
`, wcc.Options{}); err != nil {
		t.Fatalf("RegisterWCC: %v", err)
	}
	if _, err := rt.Invoke("crash", nil); err == nil {
		t.Error("trapped module returned success")
	}
}

func TestHTTPServing(t *testing.T) {
	rt := newTestRuntime(t)
	registerApp(t, rt, "ping")
	registerApp(t, rt, "echo")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rt.Serve(ln)
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/ping", "application/octet-stream", nil)
	if err != nil {
		t.Fatalf("POST /ping: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "p" {
		t.Errorf("ping over HTTP: %d %q", resp.StatusCode, body)
	}

	payload := apps.EchoPayload(1024)
	resp, err = http.Post(base+"/echo", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /echo: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, payload) {
		t.Error("echo over HTTP mangled payload")
	}

	resp, err = http.Post(base+"/ghost", "application/octet-stream", nil)
	if err != nil {
		t.Fatalf("POST /ghost: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown module status = %d", resp.StatusCode)
	}
	if rt.Addr() == nil {
		t.Error("Addr() nil while serving")
	}
}

func TestConcurrentInvocations(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	registerApp(t, rt, "echo")
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := apps.EchoPayload(128 + i)
			resp, err := rt.Invoke("echo", payload)
			if err != nil {
				errCh <- err
				return
			}
			if !bytes.Equal(resp, payload) {
				errCh <- errors.New("payload mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := rt.Stats()
	if st.Completed != 64 {
		t.Errorf("Completed = %d", st.Completed)
	}
}

func TestRequestTimeout(t *testing.T) {
	rt := New(Config{Workers: 1, RequestTimeout: 30 * time.Millisecond})
	defer rt.Close()
	if _, err := rt.RegisterWCC("forever", `
export i32 main() {
	i32 x = 1;
	while (x > 0) {
		x = x + 1;
		if (x == 0) { x = 1; }
	}
	return x;
}
`, wcc.Options{}); err != nil {
		t.Fatalf("RegisterWCC: %v", err)
	}
	start := time.Now()
	_, err := rt.Invoke("forever", nil)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("want timeout error, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout took too long")
	}
}

func TestStatsEndpoint(t *testing.T) {
	rt := newTestRuntime(t)
	registerApp(t, rt, "ping")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rt.Serve(ln)
	base := "http://" + ln.Addr().String()

	if _, err := http.Post(base+"/ping", "application/octet-stream", nil); err != nil {
		t.Fatalf("ping: %v", err)
	}
	resp, err := http.Get(base + "/__stats")
	if err != nil {
		t.Fatalf("GET /__stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var payload struct {
		Modules   []string                 `json:"modules"`
		Completed uint64                   `json:"completed"`
		Inflight  int                      `json:"inflight"`
		PerModule map[string]ModuleStats   `json:"per_module"`
		Fuel      int64                    `json:"fuel_quantum"`
		GasPerMS  struct{ Min, Max int64 } `json:"gas_per_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if payload.Completed != 1 || len(payload.Modules) != 1 || payload.Modules[0] != "ping" {
		t.Errorf("stats payload = %+v", payload)
	}
	// The scheduler block says how long a slice is right now: the live fuel
	// quantum and the learned gas rate behind it (a ping is far under the
	// sample floor, so both workers still convert with the same rate).
	if g := payload.GasPerMS; g.Min <= 0 || g.Min != g.Max ||
		payload.Fuel != rt.Pool().FuelQuantum() || payload.Fuel != g.Min*5 {
		t.Errorf("fuel_quantum %d, gas_per_ms %+v: want the 5 ms quantum at one positive rate", payload.Fuel, g)
	}
	// The static-analysis summary rides along per module: any non-recursive
	// module has at least its entry point stack-certified.
	an := payload.PerModule["ping"].Analysis
	if an.CertifiedFuncs < 1 {
		t.Errorf("analysis stats missing from /__stats: %+v", an)
	}
	// So does the register-allocation summary: the default engine config
	// compiles to register form, with a non-empty per-frame register file.
	ra := payload.PerModule["ping"].Regalloc
	if !ra.Enabled || ra.Registers < 1 {
		t.Errorf("regalloc stats missing from /__stats: %+v", ra)
	}
	if ra.Spills != 0 {
		t.Errorf("regalloc reported %d spills; the slab register file never spills", ra.Spills)
	}
}

func TestLoadModulesFile(t *testing.T) {
	dir := t.TempDir()
	wccPath := filepath.Join(dir, "hello.wcc")
	if err := os.WriteFile(wccPath, []byte(`
static u8 out[2];
export i32 main() {
	out[0] = 104; out[1] = 105;
	sys_write(out, 2);
	return 0;
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A precompiled wasm module alongside it.
	res, err := wcc.Compile(`
static u8 out[1];
export i32 main() {
	out[0] = 119;
	sys_write(out, 1);
	return 0;
}
`, wcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wasmPath := filepath.Join(dir, "w.wasm")
	if err := os.WriteFile(wasmPath, res.Binary, 0o644); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "modules.json")
	if err := os.WriteFile(cfgPath, []byte(`{
  "modules": [
    {"name": "hello", "path": "hello.wcc"},
    {"name": "w", "path": "w.wasm", "entry": "main"}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}

	rt := newTestRuntime(t)
	if err := rt.LoadModulesFile(cfgPath); err != nil {
		t.Fatalf("LoadModulesFile: %v", err)
	}
	if resp, err := rt.Invoke("hello", nil); err != nil || string(resp) != "hi" {
		t.Errorf("hello = %q, %v", resp, err)
	}
	if resp, err := rt.Invoke("w", nil); err != nil || string(resp) != "w" {
		t.Errorf("w = %q, %v", resp, err)
	}
}

func TestLoadModulesFileErrors(t *testing.T) {
	rt := newTestRuntime(t)
	dir := t.TempDir()
	if err := rt.LoadModulesFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if err := rt.LoadModulesFile(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	incomplete := filepath.Join(dir, "incomplete.json")
	os.WriteFile(incomplete, []byte(`{"modules":[{"name":"x"}]}`), 0o644)
	if err := rt.LoadModulesFile(incomplete); err == nil {
		t.Error("module without path accepted")
	}
	dangling := filepath.Join(dir, "dangling.json")
	os.WriteFile(dangling, []byte(`{"modules":[{"name":"x","path":"nope.wcc"}]}`), 0o644)
	if err := rt.LoadModulesFile(dangling); err == nil {
		t.Error("dangling module path accepted")
	}
}

func TestWASIModuleThroughRuntime(t *testing.T) {
	// A module importing wasi_snapshot_preview1 registers and serves.
	m := wasiTestModule()
	bin, err := wasmEncode(m)
	if err != nil {
		t.Fatal(err)
	}
	rt := newTestRuntime(t)
	if _, err := rt.RegisterWasm("wasi-echo", bin, "main"); err != nil {
		t.Fatalf("RegisterWasm: %v", err)
	}
	resp, err := rt.Invoke("wasi-echo", []byte("through wasi"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(resp) != "through wasi" {
		t.Errorf("resp = %q", resp)
	}
}

// wasiTestModule mirrors the echo-over-WASI module from the abi tests.
func wasiTestModule() *wasm.Module {
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{
		{Params: []wasm.ValType{wasm.ValI32, wasm.ValI32, wasm.ValI32, wasm.ValI32},
			Results: []wasm.ValType{wasm.ValI32}},
		{Params: []wasm.ValType{wasm.ValI32}},
		{Results: []wasm.ValType{wasm.ValI32}},
	}
	m.Imports = []wasm.Import{
		{Module: "wasi_snapshot_preview1", Name: "fd_read", Kind: wasm.ExternFunc, TypeIdx: 0},
		{Module: "wasi_snapshot_preview1", Name: "fd_write", Kind: wasm.ExternFunc, TypeIdx: 0},
		{Module: "wasi_snapshot_preview1", Name: "proc_exit", Kind: wasm.ExternFunc, TypeIdx: 1},
	}
	m.Memories = []wasm.Limits{{Min: 2, Max: 2, HasMax: true}}
	m.Funcs = []wasm.Func{{TypeIdx: 2, Body: []wasm.Instr{
		{Op: wasm.OpI32Const, Imm: 8},
		{Op: wasm.OpI32Const, Imm: 1024},
		{Op: wasm.OpI32Store, Imm2: 2},
		{Op: wasm.OpI32Const, Imm: 12},
		{Op: wasm.OpI32Const, Imm: 4096},
		{Op: wasm.OpI32Store, Imm2: 2},
		{Op: wasm.OpI32Const, Imm: 0},
		{Op: wasm.OpI32Const, Imm: 8},
		{Op: wasm.OpI32Const, Imm: 1},
		{Op: wasm.OpI32Const, Imm: 16},
		{Op: wasm.OpCall, Imm: 0},
		{Op: wasm.OpDrop},
		{Op: wasm.OpI32Const, Imm: 12},
		{Op: wasm.OpI32Const, Imm: 16},
		{Op: wasm.OpI32Load, Imm2: 2},
		{Op: wasm.OpI32Store, Imm2: 2},
		{Op: wasm.OpI32Const, Imm: 1},
		{Op: wasm.OpI32Const, Imm: 8},
		{Op: wasm.OpI32Const, Imm: 1},
		{Op: wasm.OpI32Const, Imm: 20},
		{Op: wasm.OpCall, Imm: 1},
		{Op: wasm.OpDrop},
		{Op: wasm.OpI32Const, Imm: 0},
		{Op: wasm.OpCall, Imm: 2},
		{Op: wasm.OpI32Const, Imm: 0},
	}, Name: "main"}}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 3}}
	return m
}

func wasmEncode(m *wasm.Module) ([]byte, error) { return wasm.Encode(m) }
