package engine

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"sledge/internal/wasm"
)

// TestMain installs the recycler's take hook for the whole package: every
// slab any test's instantiation takes from the recycler is checked all-zero
// over its full capacity — the invariant cross-tenant reuse rests on.
func TestMain(m *testing.M) {
	slabTakeHook = func(full []byte) {
		if i := firstNonZero(full); i >= 0 {
			panic(fmt.Sprintf("slab recycler handed out a dirty slab: byte %d of %d is %#x", i, len(full), full[i]))
		}
	}
	os.Exit(m.Run())
}

// firstNot returns the index of the first byte of b that is not v, or -1.
func firstNot(b []byte, v byte) int {
	for i, c := range b {
		if c != v {
			return i
		}
	}
	return -1
}

func firstNonZero(b []byte) int { return firstNot(b, 0) }

// withSlabs returns cfg compiling against a fresh, empty recycler.
func withSlabs(cfg Config) Config {
	cfg.Slabs = new(Slabs)
	return cfg
}

// fillLoop stores 0xA5A5A5A5 over the instance's whole current memory,
// counting in the given (zero-initialized) local.
func fillLoop(local uint64) []wasm.Instr {
	return []wasm.Instr{
		{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
		{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
		{Op: wasm.OpLocalGet, Imm: local},
		{Op: wasm.OpMemorySize},
		{Op: wasm.OpI32Const, Imm: uint64(wasm.PageSize)},
		{Op: wasm.OpI32Mul},
		{Op: wasm.OpI32GeU},
		{Op: wasm.OpBrIf, Imm: 1},
		{Op: wasm.OpLocalGet, Imm: local},
		{Op: wasm.OpI32Const, Imm: 0xA5A5A5A5},
		{Op: wasm.OpI32Store, Imm2: 2},
		{Op: wasm.OpLocalGet, Imm: local},
		{Op: wasm.OpI32Const, Imm: 4},
		{Op: wasm.OpI32Add},
		{Op: wasm.OpLocalSet, Imm: local},
		{Op: wasm.OpBr, Imm: 0},
		{Op: wasm.OpEnd},
		{Op: wasm.OpEnd},
	}
}

// donorModule is tenant A: pages of memory, a data segment, and three ways
// to dirty all of it — fill (wasm stores), scribble (a host function writing
// through MemRange), and the Memory() escape hatch from the test itself —
// plus fillgrow, which fills and then grows within one run, while the
// interpreter still holds the store watermark in a local.
func donorModule(pages uint32) (*wasm.Module, HostRegistry) {
	m := wasm.NewModule()
	m.Memories = []wasm.Limits{{Min: pages, Max: pages + 4, HasMax: true}}
	m.Data = []wasm.DataSegment{
		{Offset: wasm.Instr{Op: wasm.OpI32Const, Imm: 16}, Bytes: []byte("tenant-a-data")},
	}
	m.Types = []wasm.FuncType{
		{},
		{Params: []wasm.ValType{wasm.ValI32}, Results: []wasm.ValType{wasm.ValI32}},
	}
	m.Imports = []wasm.Import{{Module: "env", Name: "scribble", Kind: wasm.ExternFunc, TypeIdx: 0}}
	m.Funcs = []wasm.Func{
		{TypeIdx: 0, Locals: []wasm.ValType{wasm.ValI32}, Body: fillLoop(0), Name: "fill"},
		{TypeIdx: 0, Body: []wasm.Instr{{Op: wasm.OpCall, Imm: 0}}, Name: "hostfill"},
		{TypeIdx: 1, Locals: []wasm.ValType{wasm.ValI32}, Body: append(fillLoop(1),
			wasm.Instr{Op: wasm.OpLocalGet, Imm: 0},
			wasm.Instr{Op: wasm.OpMemoryGrow},
		), Name: "fillgrow"},
	}
	m.Exports = []wasm.Export{
		{Name: "fill", Kind: wasm.ExternFunc, Index: 1},
		{Name: "hostfill", Kind: wasm.ExternFunc, Index: 2},
		{Name: "fillgrow", Kind: wasm.ExternFunc, Index: 3},
	}
	host := HostRegistry{"env": {"scribble": {
		Func: func(in *Instance, _ []uint64) (uint64, error) {
			buf, err := in.MemRange(0, uint32(len(in.mem)))
			if err != nil {
				return 0, err
			}
			for i := range buf {
				buf[i] = 0x5A
			}
			return 0, nil
		},
		Type: m.Types[0],
	}}}
	return m, host
}

// takerModule is tenant B: same memory size as the donor, its own data
// segment elsewhere.
func takerModule(pages uint32) *wasm.Module {
	m := wasm.NewModule()
	m.Memories = []wasm.Limits{{Min: pages, Max: pages + 4, HasMax: true}}
	m.Data = []wasm.DataSegment{
		{Offset: wasm.Instr{Op: wasm.OpI32Const, Imm: 4096}, Bytes: []byte("tenant-b")},
	}
	return m
}

// dirtiers are the three ways tenant A authors bytes.
var dirtiers = []struct {
	name string
	fill func(t *testing.T, in *Instance)
}{
	{"stores", func(t *testing.T, in *Instance) {
		if _, err := in.Invoke("fill"); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}},
	{"host-write", func(t *testing.T, in *Instance) {
		if _, err := in.Invoke("hostfill"); err != nil {
			t.Fatalf("hostfill: %v", err)
		}
	}},
	{"Memory()", func(t *testing.T, in *Instance) {
		mem := in.Memory()
		for i := range mem {
			mem[i] = 0xC3
		}
	}},
}

// firstFromRecycler instantiates tenant B, compiled against cfg's recycler,
// and checks that its memory came from the recycler and reads all-zero
// outside B's own data segment.
func firstFromRecycler(t *testing.T, pages uint32, cfg Config) {
	t.Helper()
	before := cfg.Slabs.Stats()
	b := mustCompile(t, takerModule(pages), cfg).Instantiate()
	if after := cfg.Slabs.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("tenant B's %d-page memory did not come from the recycler: %+v -> %+v", pages, before, after)
	}
	want := make([]byte, int(pages)*wasm.PageSize)
	copy(want[4096:], "tenant-b")
	if !bytes.Equal(b.mem, want) {
		i := 0
		for b.mem[i] == want[i] {
			i++
		}
		t.Fatalf("tenant B reads %#x at %d: a retired tenant's byte survived", b.mem[i], i)
	}
	if cap(b.mem) != len(want) {
		t.Fatalf("recycled slab capacity %d, want %d", cap(b.mem), len(want))
	}
}

// TestSlabHygieneAcrossModules is the cross-tenant isolation guarantee of
// the slab recycler: tenant A fills its whole memory, its module is retired,
// and tenant B — a different module of the same size whose first instance is
// built on A's slab — observes nothing A wrote. Both donation points are
// covered: an idle pooled instance at ClosePool, and an in-flight instance
// released after the pool closed.
func TestSlabHygieneAcrossModules(t *testing.T) {
	for _, cfg := range allConfigs {
		for _, d := range dirtiers {
			for _, inflight := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/%s/inflight=%v", cfg.Tier, cfg.Bounds, d.name, inflight)
				cfg := withSlabs(cfg)
				m, host := donorModule(1)
				a, err := Compile(m, host, cfg)
				if err != nil {
					t.Fatalf("%s: Compile: %v", name, err)
				}
				in := a.Acquire()
				d.fill(t, in)
				if i := bytes.IndexByte(in.mem, 0); i >= 0 {
					t.Fatalf("%s: the dirtier left byte %d zero; the test would be vacuous", name, i)
				}
				if inflight {
					a.ClosePool()
					a.Release(in)
				} else {
					a.Release(in)
					a.ClosePool()
				}
				if got := cfg.Slabs.Stats().HeldBytes; got != wasm.PageSize {
					t.Fatalf("%s: recycler holds %d bytes after retiring A, want one page", name, got)
				}
				firstFromRecycler(t, 1, cfg)
			}
		}
	}
}

// TestSlabHygieneSnapshotDonor: a snapshot-materialized instance's baseline
// is the post-init image, not zeros, so a donor that never ran (watermark 0)
// must still clear the image's extent — and one that ran, the watermark too.
// The start function grew memory, so the slab is two pages.
func TestSlabHygieneSnapshotDonor(t *testing.T) {
	for _, cfg := range snapshotFidelityConfigs() {
		for _, ran := range []bool{false, true} {
			cfg := withSlabs(cfg)
			a := mustCompile(t, snapshotTestModule(t), cfg)
			// The compile-time probe's own grow retired a slab, and the probe
			// donated its grown one.
			cfg.Slabs.Shed(math.MaxInt64)
			if a.Snapshot() == nil {
				t.Fatal("module was not snapshotted")
			}
			in := a.Acquire()
			if in.snap == nil {
				t.Fatal("expected a snapshot-materialized instance")
			}
			if ran {
				// Above the image's extent, so only the watermark covers it.
				if _, err := in.Invoke("poke", 2*wasm.PageSize-4, 0xDEADBEEF); err != nil {
					t.Fatalf("poke: %v", err)
				}
			}
			a.Release(in)
			a.ClosePool()
			if got := cfg.Slabs.Stats().HeldBytes; got != 2*wasm.PageSize {
				t.Fatalf("%s/%s ran=%v: recycler holds %d bytes, want two pages", cfg.Tier, cfg.Bounds, ran, got)
			}
			firstFromRecycler(t, 2, cfg)
		}
	}
}

// TestSnapshotProbeDonatesSlab: the compile-time probe never runs again, so
// its post-init memory (the start function filled and grew it) goes to the
// recycler, where the module's first instance, of the same post-init size,
// finds it clean and materializes the snapshot on it.
func TestSnapshotProbeDonatesSlab(t *testing.T) {
	for _, cfg := range snapshotFidelityConfigs() {
		cfg := withSlabs(cfg)
		a := mustCompile(t, snapshotTestModule(t), cfg)
		snap := a.Snapshot()
		if snap == nil {
			t.Fatal("module was not snapshotted")
		}
		before := cfg.Slabs.Stats()
		if before.HeldBytes < int64(snap.MemLen()) {
			t.Fatalf("%s/%s: the probe's %d-byte memory was not donated: %+v", cfg.Tier, cfg.Bounds, snap.MemLen(), before)
		}
		in := a.Instantiate()
		if after := cfg.Slabs.Stats(); after.Hits != before.Hits+1 {
			t.Fatalf("%s/%s: the first instance did not take the probe's slab: %+v -> %+v", cfg.Tier, cfg.Bounds, before, after)
		}
		want := make([]byte, snap.MemLen())
		copy(want, snap.image)
		if !bytes.Equal(in.mem, want) {
			t.Fatalf("%s/%s: the first instance's memory is not the snapshot image", cfg.Tier, cfg.Bounds)
		}
	}
}

// TestSlabHygieneGrownDonor: memory.grow retires the outgrown slab at once
// and the grown one when the module does; both must come back clean, and a
// grown instance's new memory must itself be a recycled slab.
func TestSlabHygieneGrownDonor(t *testing.T) {
	for _, cfg := range allConfigs {
		cfg := withSlabs(cfg)
		cfg.Slabs.give(make([]byte, 3*wasm.PageSize))
		m, host := donorModule(1)
		a, err := Compile(m, host, cfg)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		in := a.Acquire()
		before := cfg.Slabs.Stats()
		if v, err := in.Invoke("fillgrow", 2); err != nil || int32(v) != 1 {
			t.Fatalf("fillgrow(2) = %d, %v", v, err)
		}
		if after := cfg.Slabs.Stats(); after.Hits != before.Hits+1 || after.Donated != before.Donated+1 {
			t.Fatalf("%s/%s: grow did not take its new memory from, and retire its old one to, the recycler: %+v -> %+v",
				cfg.Tier, cfg.Bounds, before, after)
		}
		mem := in.Memory()
		if i := firstNot(mem[:wasm.PageSize], 0xA5); i >= 0 {
			t.Fatalf("grow lost byte %d of the old memory", i)
		}
		if i := firstNonZero(mem[wasm.PageSize:]); i >= 0 {
			t.Fatalf("grown region nonzero at %d", i)
		}
		// The outgrown one-page slab serves tenant B.
		firstFromRecycler(t, 1, cfg)
		// Dirty the grown memory to the last byte and retire the module.
		for i := range mem {
			mem[i] = 0x3C
		}
		a.Release(in)
		a.ClosePool()
		firstFromRecycler(t, 3, cfg)
	}
}

// TestSlabRecyclerBound: the recycler never holds more than slabBound, drops
// what would exceed it, refuses slabs that are not whole pages, and sheds on
// request.
func TestSlabRecyclerBound(t *testing.T) {
	var r Slabs
	const slab = 8 << 20
	for i := 0; i < slabBound/slab+3; i++ {
		r.give(make([]byte, slab))
		if held := r.Stats().HeldBytes; held > slabBound {
			t.Fatalf("recycler holds %d bytes, bound is %d", held, slabBound)
		}
	}
	r.give(make([]byte, wasm.PageSize+1))
	r.give(make([]byte, wasm.PageSize)[: 10 : wasm.PageSize/2])
	st := r.Stats()
	if st.HeldBytes != slabBound {
		t.Errorf("held %d, want the bound %d exactly", st.HeldBytes, slabBound)
	}
	if got := st.DroppedOverBound; got != 3 {
		t.Errorf("dropped over bound = %d, want 3", got)
	}
	if got := st.Donated; got != slabBound/slab {
		t.Errorf("donated = %d, want %d", got, slabBound/slab)
	}
	// A partial shed releases at least what was asked, in whole slabs.
	if got := r.Shed(slab + 1); got != 2*slab {
		t.Errorf("Shed(%d) released %d, want %d", slab+1, got, 2*slab)
	}
	if got := r.Stats().HeldBytes; got != slabBound-2*slab {
		t.Errorf("held %d after the shed, want %d", got, slabBound-2*slab)
	}
	// Exact-size classes: another size misses while 8 MiB slabs are filed.
	st = r.Stats()
	if s := r.take(slab / 2); len(s) != slab/2 {
		t.Fatalf("take returned %d bytes", len(s))
	}
	if s := r.take(slab); len(s) != slab || cap(s) != slab {
		t.Fatalf("take returned len %d cap %d", len(s), cap(s))
	}
	if after := r.Stats(); after.Misses != st.Misses+1 || after.Hits != st.Hits+1 {
		t.Errorf("want one miss and one hit: %+v -> %+v", st, after)
	}
	r.Shed(math.MaxInt64)
	if got := r.Stats().HeldBytes; got != 0 {
		t.Errorf("held %d after a full drain", got)
	}
}

// TestSlabClosedReleaseSkipsReset: releasing into a closed pool must not pay
// for (or leave behind) a reset — the instance is dead, only its memory is
// of use to anyone.
func TestSlabClosedReleaseSkipsReset(t *testing.T) {
	cfg := withSlabs(Config{})
	m, host := donorModule(1)
	a, err := Compile(m, host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := a.Acquire()
	if _, err := in.Invoke("fill"); err != nil {
		t.Fatal(err)
	}
	a.ClosePool()
	a.Release(in)
	if in.mem != nil {
		t.Error("closed-pool Release left the instance holding its memory")
	}
	if in.status != StatusDone || !in.started {
		t.Errorf("closed-pool Release reset the instance (status %s, started %v)", in.status, in.started)
	}
	if n := a.PooledInstances(); n != 0 {
		t.Errorf("closed pool holds %d instances", n)
	}
	a.Release(in) // a second release has nothing left to donate
	if got := cfg.Slabs.Stats().HeldBytes; got != wasm.PageSize {
		t.Errorf("recycler holds %d bytes, want one page", got)
	}
	// Acquire on the closed pool still works: straight to Instantiate.
	if in2 := a.Acquire(); in2 == in || len(in2.mem) != wasm.PageSize {
		t.Error("closed pool did not fall back to a fresh instance")
	}
}

// TestSlabChurnRace retires and deploys modules of three sizes from many
// goroutines at once (run under -race): every first instantiation must see
// exactly its own data segment on an otherwise zero memory, whichever
// tenant's slab it was built on. The TestMain hook checks every take.
func TestSlabChurnRace(t *testing.T) {
	cfg := withSlabs(Config{})
	const goroutines = 8
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pages := uint32(1 + (g+i)%3)
				m, host := donorModule(pages)
				a, err := Compile(m, host, cfg)
				if err != nil {
					errs <- err
					return
				}
				held := a.Acquire() // stays in flight across ClosePool
				idle := a.Acquire()
				want := make([]byte, int(pages)*wasm.PageSize)
				copy(want[16:], "tenant-a-data")
				for _, in := range []*Instance{held, idle} {
					if !bytes.Equal(in.mem, want) {
						errs <- fmt.Errorf("g%d round %d: fresh %d-page instance is not data segment + zeros", g, i, pages)
						return
					}
					if _, err := in.Invoke([]string{"fill", "hostfill"}[i%2]); err != nil {
						errs <- err
						return
					}
				}
				a.Release(idle)
				a.ClosePool()
				a.Release(held)
				if n := cfg.Slabs.Stats().HeldBytes; n > slabBound {
					errs <- fmt.Errorf("recycler holds %d bytes, bound is %d", n, slabBound)
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
	if st := cfg.Slabs.Stats(); st.Hits == 0 {
		t.Errorf("the churn never reused a slab: %+v", st)
	}
}
