package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sledge/internal/engine"
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
	cm, err := app.Compile(rt.EngineConfig())
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
		Pauses    *uint64                  `json:"pauses"`
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
	// Pauses sit beside preemptions; a lone ping has nothing to pause.
	if payload.Pauses == nil || *payload.Pauses != 0 {
		t.Errorf("pauses = %v, want a count of 0", payload.Pauses)
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
	// Whether the compiled body is installed, and the request's gas, ride
	// along too.
	if ms := payload.PerModule["ping"]; !ms.Resident || ms.Gas == 0 {
		t.Errorf("per-module resident %v, gas %d: want resident and a nonzero charge", ms.Resident, ms.Gas)
	}
}

// newCacheRuntime builds a one-worker runtime compiling with bounds, whose
// cache never evicts on its own: a test drops bodies with dropCompiled.
func newCacheRuntime(t *testing.T, bounds engine.BoundsStrategy) *Runtime {
	t.Helper()
	rt := newRuntime(Config{Workers: 1, Bounds: bounds, CacheBudgetBytes: 1 << 40}, time.Hour)
	t.Cleanup(func() { rt.Close() })
	return rt
}

// dropCompiled squeezes the cache budget until m's compiled body goes (one
// demotion rung per scan), then lifts it again so the next invoke revives.
func dropCompiled(t *testing.T, rt *Runtime, m *Module) {
	t.Helper()
	setCacheBudget(rt, 1)
	for i := 0; i < 8 && m.Compiled() != nil; i++ {
		rt.cache.scan()
	}
	if m.Compiled() != nil {
		t.Fatal("the cache never dropped the compiled body")
	}
	setCacheBudget(rt, 1<<40)
}

// TestAdaptiveRegistersCheapTier: registration compiles once, with the
// runtime's one engine configuration, and traffic never moves the body:
// there is no ladder. Only the cache takes it away, and the next invoke
// revives it. /__stats and /__health both report which.
func TestAdaptiveRegistersCheapTier(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		rt := newCacheRuntime(t, 0)
		m := registerSum(t, rt, "sum")
		resident := func(when string, want bool) {
			t.Helper()
			if got := m.Stats().Resident; got != want {
				t.Fatalf("%s: stats resident = %v, want %v", when, got, want)
			}
			if got := rt.Health().Modules["sum"].Resident; got != want {
				t.Fatalf("%s: health resident = %v, want %v", when, got, want)
			}
		}
		resident("registration", true)
		for i := 0; i < 16; i++ {
			invokeSum(t, rt, "sum", []byte{1, 2, byte(i)})
		}
		resident("traffic", true)
		dropCompiled(t, rt, m)
		resident("dropCompiled", false)
		invokeSum(t, rt, "sum", []byte{1, 2, 3})
		resident("revive", true)
	})
}

// TestPromotionGasContinuity pins the gas contract through the runtime:
// the same request charges bit-identical gas under every bounds strategy
// (gas is a function of the source path, not of how memory accesses are
// checked), and revive — the one remaining swap of a module's compiled
// body — neither loses nor double-counts gas.
func TestPromotionGasContinuity(t *testing.T) {
	payload := []byte{11, 22, 33, 44, 55}
	ref := newCacheRuntime(t, 0)
	rm := registerSum(t, ref, "sum")
	invokeSum(t, ref, "sum", payload)
	gasRef := rm.Stats().Gas
	if gasRef == 0 {
		t.Fatal("the default configuration charged no gas")
	}
	for _, bounds := range []engine.BoundsStrategy{
		engine.BoundsGuard, engine.BoundsSoftware, engine.BoundsSoftwareFused, engine.BoundsMPX, engine.BoundsNone,
	} {
		t.Run(bounds.String(), func(t *testing.T) {
			rt := newCacheRuntime(t, bounds)
			m := registerSum(t, rt, "sum")

			invokeSum(t, rt, "sum", payload)
			gas := m.Stats().Gas
			if gas != gasRef {
				t.Fatalf("%s charged %d, the default configuration %d", bounds, gas, gasRef)
			}
			invokeSum(t, rt, "sum", payload)
			if got := m.Stats().Gas; got != 2*gas {
				t.Fatalf("second invocation: profile gas %d, want %d", got, 2*gas)
			}

			before := m.Stats().Gas
			dropCompiled(t, rt, m)
			// Dropping the body must not touch the module's gas total.
			if got := m.Stats().Gas; got != before {
				t.Fatalf("eviction changed profile gas: %d -> %d", before, got)
			}
			invokeSum(t, rt, "sum", payload)
			if !m.Stats().Resident {
				t.Fatal("not resident after revive")
			}
			if got := m.Stats().Gas - before; got != gas {
				t.Fatalf("gas discontinuity across revive: charged %d before, %d after", gas, got)
			}
		})
	}
}

// TestStatsEndpointReportsTiering: /__stats reports each module's gas and
// whether its compiled body is resident: true once registered, false
// while the cache has dropped the body, true again once an invoke revived
// it. There is no tiering block.
func TestStatsEndpointReportsTiering(t *testing.T) {
	rt := newCacheRuntime(t, 0)
	m := registerSum(t, rt, "sum")
	invokeSum(t, rt, "sum", []byte{5, 6})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rt.Serve(ln)
	stats := func() (map[string]json.RawMessage, ModuleStats) {
		t.Helper()
		resp, err := http.Get("http://" + ln.Addr().String() + "/__stats")
		if err != nil {
			t.Fatalf("GET /__stats: %v", err)
		}
		defer resp.Body.Close()
		var raw map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatalf("decode stats: %v", err)
		}
		var per map[string]ModuleStats
		if err := json.Unmarshal(raw["per_module"], &per); err != nil {
			t.Fatalf("decode per_module: %v", err)
		}
		ms, ok := per["sum"]
		if !ok {
			t.Fatal("per_module missing sum")
		}
		return raw, ms
	}

	raw, ms := stats()
	if _, ok := raw["tiering"]; ok {
		t.Error("stats payload still carries a tiering block")
	}
	if !ms.Resident {
		t.Error("per-module resident = false after registration")
	}
	if ms.Gas == 0 {
		t.Errorf("per-module gas = 0, want > 0")
	}

	gas := ms.Gas
	dropCompiled(t, rt, m)
	if _, ms = stats(); ms.Resident || ms.Gas != gas {
		t.Errorf("evicted module: resident %v, gas %d; want false and gas %d", ms.Resident, ms.Gas, gas)
	}
	invokeSum(t, rt, "sum", []byte{5, 6})
	if _, ms = stats(); !ms.Resident || ms.Gas != 2*gas {
		t.Errorf("revived module: resident %v, gas %d; want true and gas %d", ms.Resident, ms.Gas, 2*gas)
	}
}

// TestRegisterCompiledRefusesOtherConfigs: a precompiled module reaches
// the pool only if it was compiled with the runtime's configuration. The
// naive tier (which traps where the pool expects a yield), NoBlockMeter
// (which spends a quantum's gas as dispatches) and another runtime's
// EngineConfig() (whose instances would retire their memory to that
// runtime's slab recycler) are refused by RegisterCompiled and Replace
// alike. The refusal names both configs, or, when they differ only in the
// recycler, says the module was compiled for another runtime.
func TestRegisterCompiledRefusesOtherConfigs(t *testing.T) {
	rt := New(Config{Workers: 1})
	t.Cleanup(func() { rt.Close() })
	other := New(Config{Workers: 1})
	t.Cleanup(func() { other.Close() })
	app, ok := apps.Get("ping")
	if !ok {
		t.Fatal("ping app missing")
	}
	for _, cfg := range []engine.Config{
		{Tier: engine.TierNaive},
		{NoBlockMeter: true},
		other.EngineConfig(),
	} {
		cm, err := app.Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("compiled with %+v, the runtime compiles with %+v", cm.Config(), rt.EngineConfig())
		if cfg.Slabs != nil {
			want = "core: module ping: compiled for another runtime"
		}
		if _, err := rt.RegisterCompiled("ping", cm, "main", ""); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RegisterCompiled(%+v) = %v, want %q", cfg, err, want)
		}
		if _, err := rt.Replace("ping", cm, "main", ""); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Replace(%+v) = %v, want %q", cfg, err, want)
		}
	}
	if mods := rt.Modules(); len(mods) != 0 {
		t.Fatalf("refused modules were registered: %v", mods)
	}
	registerApp(t, rt, "ping")
	if out, err := rt.Invoke("ping", nil); err != nil || len(out) == 0 {
		t.Fatalf("a module compiled with EngineConfig(): %q, %v", out, err)
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
