package abi

import (
	"errors"
	"math"
	"testing"
	"time"

	"sledge/internal/engine"
	"sledge/internal/wasm"
)

// hostInstance builds a minimal instance with one page of memory whose
// HostData carries the given context.
func hostInstance(t *testing.T, ctx *Context) *engine.Instance {
	t.Helper()
	m := wasm.NewModule()
	m.Memories = []wasm.Limits{{Min: 1}}
	cm, err := engine.Compile(m, nil, engine.Config{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	inst := cm.Instantiate()
	inst.HostData = ctx
	return inst
}

func callHost(t *testing.T, module, name string, inst *engine.Instance, args ...uint64) (uint64, error) {
	t.Helper()
	def, ok := Registry()[module][name]
	if !ok {
		t.Fatalf("no host function %s.%s", module, name)
	}
	return def.Func(inst, args)
}

func TestReadWriteCursor(t *testing.T) {
	ctx := NewContext([]byte("hello world"))
	inst := hostInstance(t, ctx)

	// Read 5 bytes into offset 100, then the rest.
	n, err := callHost(t, "sledge", "read", inst, 100, 5)
	if err != nil || n != 5 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if got := string(inst.Memory()[100:105]); got != "hello" {
		t.Errorf("memory = %q", got)
	}
	n, err = callHost(t, "sledge", "read", inst, 200, 100)
	if err != nil || n != 6 {
		t.Fatalf("second read = %d, %v", n, err)
	}
	if got := string(inst.Memory()[200:206]); got != " world" {
		t.Errorf("memory = %q", got)
	}
	// Exhausted.
	n, err = callHost(t, "sledge", "read", inst, 0, 10)
	if err != nil || n != 0 {
		t.Errorf("read at EOF = %d, %v", n, err)
	}

	// Write accumulates the response.
	copy(inst.Memory()[300:], "abc")
	if _, err := callHost(t, "sledge", "write", inst, 300, 3); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := callHost(t, "sledge", "write", inst, 300, 2); err != nil {
		t.Fatalf("write: %v", err)
	}
	if string(ctx.Response) != "abcab" {
		t.Errorf("Response = %q", ctx.Response)
	}

	n, err = callHost(t, "sledge", "req_len", inst)
	if err != nil || n != 11 {
		t.Errorf("req_len = %d, %v", n, err)
	}
}

func TestReadWriteOOB(t *testing.T) {
	ctx := NewContext([]byte("x"))
	inst := hostInstance(t, ctx)
	if _, err := callHost(t, "sledge", "read", inst, uint64(wasm.PageSize), 16); err == nil {
		t.Error("read past memory accepted")
	}
	if _, err := callHost(t, "sledge", "write", inst, uint64(wasm.PageSize-1), 2); err == nil {
		t.Error("write past memory accepted")
	}
}

func TestMissingContext(t *testing.T) {
	inst := hostInstance(t, nil)
	inst.HostData = nil
	if _, err := callHost(t, "sledge", "read", inst, 0, 1); !errors.Is(err, ErrNoContext) {
		t.Errorf("want ErrNoContext, got %v", err)
	}
}

func TestKVSyncRoundTrip(t *testing.T) {
	ctx := NewContext(nil)
	ctx.KV = NewMapKV()
	inst := hostInstance(t, ctx)
	copy(inst.Memory()[0:], "key1")
	copy(inst.Memory()[16:], "value-1")
	n, err := callHost(t, "sledge", "kv_set", inst, 0, 4, 16, 7)
	if err != nil || n != 7 {
		t.Fatalf("kv_set = %d, %v", n, err)
	}
	n, err = callHost(t, "sledge", "kv_get", inst, 0, 4, 64, 32)
	if err != nil || n != 7 {
		t.Fatalf("kv_get = %d, %v", n, err)
	}
	if got := string(inst.Memory()[64:71]); got != "value-1" {
		t.Errorf("fetched %q", got)
	}
	// Missing key returns -1.
	copy(inst.Memory()[0:], "nope")
	n, err = callHost(t, "sledge", "kv_get", inst, 0, 4, 64, 32)
	if err != nil || int32(uint32(n)) != -1 {
		t.Errorf("missing key = %d, %v", int32(uint32(n)), err)
	}
}

func TestKVNilStore(t *testing.T) {
	ctx := NewContext(nil)
	inst := hostInstance(t, ctx)
	n, err := callHost(t, "sledge", "kv_get", inst, 0, 1, 8, 8)
	if err != nil || int32(uint32(n)) != -1 {
		t.Errorf("kv_get without store = %d, %v", int32(uint32(n)), err)
	}
	n, err = callHost(t, "sledge", "kv_set", inst, 0, 1, 8, 1)
	if err != nil || int32(uint32(n)) != -1 {
		t.Errorf("kv_set without store = %d, %v", int32(uint32(n)), err)
	}
}

func TestKVAsyncBlocksAndCompletes(t *testing.T) {
	store := NewMapKV()
	store.Set("k", []byte("deferred"))
	ctx := NewContext(nil)
	ctx.KV = &LatentKV{KVStore: store, Delay: 2 * time.Millisecond}
	inst := hostInstance(t, ctx)
	inst.Memory()[0] = 'k'

	_, err := callHost(t, "sledge", "kv_get", inst, 0, 1, 32, 16)
	if !errors.Is(err, engine.ErrHostBlock) {
		t.Fatalf("async kv_get returned %v, want ErrHostBlock", err)
	}
	p := ctx.TakePending()
	if p == nil {
		t.Fatal("no pending op registered")
	}
	if ctx.Pending != nil {
		t.Error("TakePending did not clear")
	}
	if p.Wait != 2*time.Millisecond {
		t.Errorf("Wait = %v, want the store's 2ms latency", p.Wait)
	}
	if n := p.Complete(); n != 8 {
		t.Errorf("Complete = %d", n)
	}
	if got := string(inst.Memory()[32:40]); got != "deferred" {
		t.Errorf("deferred write = %q", got)
	}
}

func TestClockAndRand(t *testing.T) {
	ctx := NewContext(nil)
	fixed := time.UnixMilli(1234567890)
	ctx.Now = func() time.Time { return fixed }
	inst := hostInstance(t, ctx)
	v, err := callHost(t, "sledge", "clock_ms", inst)
	if err != nil || v != 1234567890 {
		t.Errorf("clock_ms = %d, %v", v, err)
	}

	ctx.SetRandSeed(42)
	a, _ := callHost(t, "sledge", "rand", inst)
	b, _ := callHost(t, "sledge", "rand", inst)
	if a == b {
		t.Error("rand repeated immediately")
	}
	// Determinism: same seed, same sequence.
	ctx2 := NewContext(nil)
	ctx2.SetRandSeed(42)
	inst2 := hostInstance(t, ctx2)
	a2, _ := callHost(t, "sledge", "rand", inst2)
	if a != a2 {
		t.Errorf("rand not deterministic: %d vs %d", a, a2)
	}
	// Seed 0 falls back to the default constant.
	ctx3 := NewContext(nil)
	ctx3.SetRandSeed(0)
	inst3 := hostInstance(t, ctx3)
	if _, err := callHost(t, "sledge", "rand", inst3); err != nil {
		t.Errorf("rand with zero seed: %v", err)
	}
}

func TestMathImports(t *testing.T) {
	inst := hostInstance(t, NewContext(nil))
	cases := []struct {
		name string
		args []uint64
		want float64
	}{
		{"exp", []uint64{math.Float64bits(0)}, 1},
		{"log", []uint64{math.Float64bits(math.E)}, 1},
		{"pow", []uint64{math.Float64bits(2), math.Float64bits(10)}, 1024},
		{"sin", []uint64{math.Float64bits(0)}, 0},
		{"cos", []uint64{math.Float64bits(0)}, 1},
		{"atan2", []uint64{math.Float64bits(0), math.Float64bits(1)}, 0},
	}
	for _, c := range cases {
		v, err := callHost(t, "math", c.name, inst, c.args...)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := math.Float64frombits(v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}
