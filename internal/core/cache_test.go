package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sledge/internal/engine"
	"sledge/internal/wasm"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// compileForReplace builds a fresh compiled form for Replace, against the
// runtime's own host registry so host calls keep resolving.
func compileForReplace(bin []byte, rt *Runtime, cfg engine.Config) (*engine.CompiledModule, error) {
	cm, err := engine.CompileBinary(bin, rt.hostReg, cfg)
	if err != nil {
		return nil, fmt.Errorf("compile for replace: %w", err)
	}
	return cm, nil
}

const cacheEchoSrc = `
static u8 buf[4096];
export i32 main() {
	i32 n = sys_read(buf, 4096);
	sys_write(buf, n);
	return n;
}
`

// cacheStartModuleBin encodes a module with a start section (WCC never
// emits one): the start fills a 4 KiB prefix so the compiled module carries
// a post-init snapshot — the state the cache's middle demotion rung drops.
func cacheStartModuleBin(t *testing.T) []byte {
	t.Helper()
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{}, {Results: []wasm.ValType{wasm.ValI32}}}
	m.Memories = []wasm.Limits{{Min: 1, Max: 1, HasMax: true}}
	m.Funcs = []wasm.Func{
		{TypeIdx: 0, Locals: []wasm.ValType{wasm.ValI32}, Body: []wasm.Instr{
			{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 4096},
			{Op: wasm.OpI32GeU},
			{Op: wasm.OpBrIf, Imm: 1},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Store8},
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpLocalSet, Imm: 0},
			{Op: wasm.OpBr, Imm: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
		}, Name: "boot"},
		{TypeIdx: 1, Body: []wasm.Instr{
			{Op: wasm.OpI32Const, Imm: 100},
			{Op: wasm.OpI32Load, Imm2: 2},
		}, Name: "main"},
	}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 1}}
	m.Start = 0
	bin, err := wasm.Encode(m)
	if err != nil {
		t.Fatalf("encode start module: %v", err)
	}
	return bin
}

func setCacheBudget(rt *Runtime, b int64) {
	rt.cache.mu.Lock()
	rt.cache.budget = b
	rt.cache.mu.Unlock()
}

// waitPooled polls until the module's idle pool holds at least one instance
// (the completion path re-pools shortly after Invoke returns).
func waitPooled(t *testing.T, m *Module) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cm := m.Compiled(); cm != nil && cm.PooledBytes() > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("idle pool never populated")
}

// TestCacheDemotionRungs walks one module down the full demotion ladder —
// purge idle pool, drop snapshot, drop compiled body — by ratcheting the
// budget just below the measured resident set, then revives it with an
// invoke. The scan interval is effectively infinite so every transition is
// driven (and asserted) synchronously via the controller's scan.
func TestCacheDemotionRungs(t *testing.T) {
	// Slabs earlier tests retired would be shed before any rung is taken.
	engine.ShedSlabs(math.MaxInt64)
	rt := New(Config{Workers: 1, CacheBudgetBytes: 1 << 40, CacheScanInterval: time.Hour})
	t.Cleanup(func() { rt.Close() })
	if _, err := rt.RegisterWCC("hot", cacheEchoSrc, wcc.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterWasm("coldy", cacheStartModuleBin(t), "main"); err != nil {
		t.Fatal(err)
	}
	coldy, _ := rt.Lookup("coldy")
	hot, _ := rt.Lookup("hot")
	if _, err := rt.Invoke("coldy", nil); err != nil {
		t.Fatalf("coldy: %v", err)
	}
	if _, err := rt.Invoke("hot", []byte("x")); err != nil {
		t.Fatalf("hot: %v", err)
	}
	cm := coldy.Compiled()
	if cm.SnapshotBytes() == 0 {
		t.Fatal("coldy has no snapshot; the rung-2 assertion would be vacuous")
	}
	waitPooled(t, coldy)
	waitPooled(t, hot)

	// One refresh under the huge budget: both modules were invoked since
	// registration, so both sit in T2 with "hot" more recently measured.
	step := func(wantUnderBudget bool) CacheSnapshot {
		t.Helper()
		rt.cache.scan()
		s := rt.cache.Stats()
		if wantUnderBudget && s.ResidentBytes > s.BudgetBytes {
			t.Fatalf("resident %d still over budget %d", s.ResidentBytes, s.BudgetBytes)
		}
		return s
	}
	// First refresh: both modules were touched since registration, so both
	// enter T2 — in map-iteration order, which is not deterministic.
	step(true)
	// Second refresh with only "hot" touched pins the recency order: "hot"
	// moves to the T2 MRU position, leaving "coldy" the deterministic
	// eviction victim for every ratchet below.
	if _, err := rt.Invoke("hot", []byte("y")); err != nil {
		t.Fatal(err)
	}
	waitPooled(t, hot)
	s0 := step(true)

	// Rung 1: one byte over budget → the LRU victim ("coldy") sheds its
	// idle pool and nothing else.
	setCacheBudget(rt, s0.ResidentBytes-1)
	s1 := step(true)
	if s1.PurgedIdle == 0 || s1.DroppedSnapshots != 0 || s1.DroppedBodies != 0 {
		t.Fatalf("rung 1: %+v", s1)
	}
	if coldy.Compiled() == nil || coldy.Compiled().SnapshotBytes() == 0 {
		t.Fatal("rung 1 demoted more than the idle pool")
	}

	// Rung 2: next ratchet drops the snapshot, body stays installed.
	s1 = step(true)
	setCacheBudget(rt, s1.ResidentBytes-1)
	s2 := step(true)
	if s2.DroppedSnapshots != 1 || s2.DroppedBodies != 0 {
		t.Fatalf("rung 2: %+v", s2)
	}
	if coldy.Compiled() == nil {
		t.Fatal("rung 2 dropped the body")
	}
	if coldy.Compiled().SnapshotBytes() != 0 {
		t.Fatal("rung 2 left the snapshot resident")
	}

	// Rung 3: the body goes, the module is registered-but-cold.
	s2 = step(true)
	setCacheBudget(rt, s2.ResidentBytes-1)
	s3 := step(false)
	if s3.DroppedBodies != 1 {
		t.Fatalf("rung 3: %+v", s3)
	}
	if coldy.Compiled() != nil {
		t.Fatal("rung 3 left the compiled body installed")
	}
	if s3.ColdModules != 1 {
		t.Fatalf("cold modules = %d, want 1 ghost", s3.ColdModules)
	}
	if got := rt.Health().Modules["coldy"].Tier; got != TierLabelCold {
		t.Fatalf("health tier = %q, want %q", got, TierLabelCold)
	}
	if hot.Compiled() == nil {
		t.Fatal("the recently used module was evicted before the LRU one")
	}
	if s3.EvictedBytes <= 0 {
		t.Fatalf("evicted bytes gauge = %d", s3.EvictedBytes)
	}

	// Revive: the next invoke lazily recompiles, recaptures the snapshot,
	// and lands the ghost hit in the ARC history.
	setCacheBudget(rt, 1<<40)
	if _, err := rt.Invoke("coldy", nil); err != nil {
		t.Fatalf("revive invoke: %v", err)
	}
	if coldy.Compiled() == nil {
		t.Fatal("revive did not reinstall a compiled body")
	}
	if coldy.Compiled().SnapshotBytes() == 0 {
		t.Fatal("revive did not recapture the post-init snapshot")
	}
	s4 := rt.cache.Stats()
	if s4.ColdRecompiles != 1 || s4.GhostHits != 1 {
		t.Fatalf("revive counters: %+v", s4)
	}
	if s4.ColdModules != 0 {
		t.Fatalf("ghost not consumed on revive: %+v", s4)
	}
}

// TestCacheColdReviveServesIdentical hammers a fleet whose resident set
// cannot fit the budget at all: the controller continuously drops bodies
// and the invoke path continuously revives them. Every response must stay
// byte-identical across evict/recompile cycles, and the /__stats cache
// block must show the churn.
func TestCacheColdReviveServesIdentical(t *testing.T) {
	// The budget is below a single compiled body (~300 object bytes for
	// this module), so nothing can stay resident: every scan demotes down
	// to registered-but-cold and every invoke revives.
	rt := New(Config{Workers: 2, CacheBudgetBytes: 64, CacheScanInterval: time.Millisecond})
	t.Cleanup(func() { rt.Close() })
	const modules = 6
	names := make([]string, modules)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
		if _, err := rt.RegisterWCC(names[i], cacheEchoSrc, wcc.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Forty rounds, and then for as long as the scanner (a 1 ms ticker on
	// its own goroutine) has not yet had a turn: 240 echo invokes can finish
	// inside two of its periods.
	churned := func() bool {
		s, _ := rt.CacheStats()
		return s.DroppedBodies != 0 && s.ColdRecompiles != 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for round := 0; round < 40 || (!churned() && time.Now().Before(deadline)); round++ {
		for i, name := range names {
			payload := []byte(fmt.Sprintf("r%d-m%d", round, i))
			got, err := rt.Invoke(name, payload)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("round %d %s: got %q", round, name, got)
			}
		}
	}
	s, ok := rt.CacheStats()
	if !ok {
		t.Fatal("CacheStats reported no cache")
	}
	if s.DroppedBodies == 0 || s.ColdRecompiles == 0 {
		t.Fatalf("no churn recorded under an impossible budget: %+v", s)
	}
	if s.BudgetBytes != 64 {
		t.Fatalf("budget gauge = %d", s.BudgetBytes)
	}
}

// TestCachePinnedCompiledNeverCold: a RegisterCompiled module has no
// retained source, so the cache may shed its pool and snapshot but must
// never drop the body — there is nothing to recompile from.
func TestCachePinnedCompiledNeverCold(t *testing.T) {
	rt := New(Config{Workers: 1, CacheBudgetBytes: 1, CacheScanInterval: time.Millisecond})
	t.Cleanup(func() { rt.Close() })
	app, ok := apps.Get("ping")
	if !ok {
		t.Fatal("ping app missing")
	}
	cm, err := app.Compile(rt.cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.RegisterCompiled("pinned", cm, "main", "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := rt.Invoke("pinned", nil); err != nil {
			t.Fatalf("pinned invoke: %v", err)
		}
		if m.Compiled() == nil {
			t.Fatal("pinned module went cold")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s, _ := rt.CacheStats()
	if s.DroppedBodies != 0 {
		t.Fatalf("pinned body dropped: %+v", s)
	}
}

// TestUnregisterReleasesPooledSlabs: Unregister must retire idle instances
// immediately, and an in-flight instance released afterwards must not be
// re-pooled; in both cases the linear memory goes to the slab recycler.
func TestUnregisterReleasesPooledSlabs(t *testing.T) {
	engine.ShedSlabs(math.MaxInt64)
	rt := newTestRuntime(t)
	if _, err := rt.RegisterWCC("gone", cacheEchoSrc, wcc.Options{}); err != nil {
		t.Fatal(err)
	}
	m, _ := rt.Lookup("gone")
	for i := 0; i < 4; i++ {
		if _, err := rt.Invoke("gone", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitPooled(t, m)
	cm := m.Compiled()
	inflight := cm.Acquire() // simulates a request still running at unregister
	cm.Release(cm.Acquire()) // and one that just finished
	idle := cm.PooledInstances()
	before := engine.SlabRecyclerStats()
	if !rt.Unregister("gone") {
		t.Fatal("Unregister returned false")
	}
	if got := engine.SlabRecyclerStats().Donated - before.Donated; got != uint64(idle) || idle == 0 {
		t.Fatalf("Unregister donated %d slabs for %d idle instances", got, idle)
	}
	if n := cm.PooledInstances(); n != 0 {
		t.Fatalf("%d idle instances survived Unregister", n)
	}
	if b := cm.PooledBytes(); b != 0 {
		t.Fatalf("%d idle bytes survived Unregister", b)
	}
	cm.Release(inflight)
	if n := cm.PooledInstances(); n != 0 {
		t.Fatalf("post-unregister Release re-pooled the instance (%d idle)", n)
	}
	if got := engine.SlabRecyclerStats().Donated - before.Donated; got != uint64(idle)+1 {
		t.Fatalf("post-unregister Release did not donate its slab (%d donated, want %d)", got, idle+1)
	}
}

// TestCacheBudgetShedsSlabsFirst: slabs the recycler holds count against
// CacheBudgetBytes, and an over-budget scan gives them up before it touches
// any module's pool, snapshot or body.
func TestCacheBudgetShedsSlabsFirst(t *testing.T) {
	engine.ShedSlabs(math.MaxInt64)
	rt := New(Config{Workers: 1, CacheBudgetBytes: 1 << 40, CacheScanInterval: time.Hour})
	t.Cleanup(func() { rt.Close() })
	for _, name := range []string{"keep", "retire"} {
		if _, err := rt.RegisterWCC(name, cacheEchoSrc, wcc.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Invoke(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
		m, _ := rt.Lookup(name)
		waitPooled(t, m)
	}
	rt.Unregister("retire")
	rt.cache.scan()
	s0 := rt.cache.Stats()
	if s0.SlabBytes == 0 || s0.SlabBytes != engine.SlabRecyclerStats().HeldBytes {
		t.Fatalf("retired module's slab is not on the cache's books: %+v", s0)
	}
	if s0.ResidentBytes != s0.T1Bytes+s0.T2Bytes+s0.SlabBytes {
		t.Fatalf("resident bytes do not include the recycler's: %+v", s0)
	}

	setCacheBudget(rt, s0.ResidentBytes-1)
	rt.cache.scan()
	s1 := rt.cache.Stats()
	if s1.SlabBytes >= s0.SlabBytes {
		t.Fatalf("over budget, but the recycler still holds %d of %d bytes", s1.SlabBytes, s0.SlabBytes)
	}
	if s1.PurgedIdle != 0 || s1.DroppedSnapshots != 0 || s1.DroppedBodies != 0 {
		t.Fatalf("a module was demoted while recycled slabs could be shed: %+v", s1)
	}
	if s1.ResidentBytes > s1.BudgetBytes {
		t.Fatalf("resident %d still over budget %d", s1.ResidentBytes, s1.BudgetBytes)
	}
	if s1.EvictedBytes != s0.SlabBytes-s1.SlabBytes {
		t.Fatalf("evicted bytes %d, shed %d", s1.EvictedBytes, s0.SlabBytes-s1.SlabBytes)
	}

	// With nothing left to shed, the same squeeze reaches rung 1.
	engine.ShedSlabs(math.MaxInt64)
	rt.cache.scan()
	setCacheBudget(rt, rt.cache.Stats().ResidentBytes-1)
	rt.cache.scan()
	if s2 := rt.cache.Stats(); s2.PurgedIdle != 1 {
		t.Fatalf("empty recycler: expected the idle-pool rung, got %+v", s2)
	}
}

// TestConcurrentUnregisterReplaceInvoke is the -race net for the
// registration lifecycle: invokes, pool acquires, unregisters, replaces,
// and the cache controller all race on the same names. Correct responses or
// ErrNoModule are the only acceptable outcomes, and the runtime must stay
// serviceable afterwards.
func TestConcurrentUnregisterReplaceInvoke(t *testing.T) {
	rt := New(Config{Workers: 2, CacheBudgetBytes: 96 << 10, CacheScanInterval: time.Millisecond})
	t.Cleanup(func() { rt.Close() })
	res, err := wcc.Compile(cacheEchoSrc, wcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bin := res.Binary
	const modules = 4
	names := make([]string, modules)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
		if _, err := rt.RegisterWasm(names[i], bin, "main"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	// Invokers: payload echo must hold whenever the module exists.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				name := names[rng.Intn(modules)]
				payload := []byte(fmt.Sprintf("%s-%d", name, i))
				got, err := rt.Invoke(name, payload)
				if err != nil {
					if errors.Is(err, ErrNoModule) {
						continue // lost the race with Unregister: expected
					}
					report(fmt.Errorf("invoke %s: %w", name, err))
					return
				}
				if !bytes.Equal(got, payload) {
					report(fmt.Errorf("invoke %s: got %q want %q", name, got, payload))
					return
				}
			}
		}(int64(101 * (g + 1)))
	}
	// Direct pool traffic against whatever compiled form is installed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			if m, ok := rt.Lookup(names[i%modules]); ok {
				if cm := m.Compiled(); cm != nil {
					in := cm.Acquire()
					cm.Release(in)
				}
			}
		}
	}()
	// Churner: unregister/re-register and replace in a tight loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng := rt.cfg.Engine
		for i := 0; i < 60; i++ {
			name := names[i%modules]
			switch i % 3 {
			case 0:
				rt.Unregister(name)
				if _, err := rt.RegisterWasm(name, bin, "main"); err != nil && !errors.Is(err, ErrDuplicateModule) {
					report(fmt.Errorf("re-register %s: %w", name, err))
					return
				}
			default:
				cm, err := compileForReplace(bin, rt, eng)
				if err != nil {
					report(err)
					return
				}
				if _, err := rt.Replace(name, cm, "main", ""); err != nil {
					report(fmt.Errorf("replace %s: %w", name, err))
					return
				}
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	// Still serviceable: every name answers after the churn settles.
	for _, name := range names {
		if _, ok := rt.Lookup(name); !ok {
			if _, err := rt.RegisterWasm(name, bin, "main"); err != nil {
				t.Fatal(err)
			}
		}
		payload := []byte("settled-" + name)
		got, err := rt.Invoke(name, payload)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("post-churn %s: %q, %v", name, got, err)
		}
	}
}
