package apps

import (
	"bytes"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
)

// TestFetchApp exercises the I/O-bound fetch function against both a
// synchronous store (immediate result) and a latent one (the sandbox path
// the continuum experiment depends on: block on kv_get, resume with the
// value).
func TestFetchApp(t *testing.T) {
	cm, err := FetchApp.Compile(engine.Config{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	store := abi.NewMapKV()
	val := bytes.Repeat([]byte("x"), 64)
	store.Set("obj", val)

	inst := cm.Acquire()
	ctx := abi.NewContext(FetchApp.GenRequest())
	ctx.KV = store
	inst.HostData = ctx
	if _, err := inst.Invoke("main"); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !bytes.Equal(ctx.Response, val) {
		t.Fatalf("sync fetch = %q", ctx.Response)
	}
	cm.Release(inst)

	// A miss exits non-zero (no response payload).
	inst = cm.Acquire()
	ctx = abi.NewContext([]byte("ghost"))
	ctx.KV = store
	inst.HostData = ctx
	if ret, err := inst.Invoke("main"); err != nil {
		t.Fatalf("Invoke miss: %v", err)
	} else if ret != 1 || len(ctx.Response) != 0 {
		t.Fatalf("miss = ret %d resp %q", ret, ctx.Response)
	}
	cm.Release(inst)

	// Against a latent backend the host call blocks the sandbox; at the
	// raw-instance level that surfaces as ErrHostBlock with a Pending op,
	// which the scheduler completes once its Wait has passed.
	inst = cm.Acquire()
	ctx = abi.NewContext(FetchApp.GenRequest())
	ctx.KV = &abi.LatentKV{KVStore: store, Delay: time.Millisecond}
	inst.HostData = ctx
	_, err = inst.Invoke("main")
	if err == nil {
		t.Fatal("latent fetch did not block")
	}
	p := ctx.TakePending()
	if p == nil {
		t.Fatal("blocked fetch left no pending op")
	}
	p.Complete()
	cm.Release(inst)
}
