package engine

import (
	"encoding/binary"
	"errors"
	"testing"

	"sledge/internal/wasm"
)

// snapshotTestModule builds the fidelity module: a start function that does
// every category of init work the snapshot must capture — a memory-fill
// loop, a global mutation performed through call_indirect, a memory.grow,
// and a store into the grown page — plus an entry that reads all of it back
// and a poke that dirties state between pooled runs.
//
// MVP tables are immutable after element-segment initialization in this
// engine (no table.set/table.grow), so "start mutates tables" is not a
// reachable axis; the call_indirect in the start function instead proves
// the snapshot path interoperates with table dispatch and the derived
// inline caches.
func snapshotTestModule(t *testing.T) *wasm.Module {
	t.Helper()
	m := buildModule(t, 1,
		fnDef{
			name:   "boot",
			locals: []wasm.ValType{wasm.ValI32},
			body: []wasm.Instr{
				// for i = 0; i < 1024; i++ { mem[4*i] = 7*i + 1 }
				{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
				{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
				{Op: wasm.OpLocalGet, Imm: 0},
				{Op: wasm.OpI32Const, Imm: 1024},
				{Op: wasm.OpI32GeU},
				{Op: wasm.OpBrIf, Imm: 1},
				{Op: wasm.OpLocalGet, Imm: 0},
				{Op: wasm.OpI32Const, Imm: 4},
				{Op: wasm.OpI32Mul},
				{Op: wasm.OpLocalGet, Imm: 0},
				{Op: wasm.OpI32Const, Imm: 7},
				{Op: wasm.OpI32Mul},
				{Op: wasm.OpI32Const, Imm: 1},
				{Op: wasm.OpI32Add},
				{Op: wasm.OpI32Store, Imm2: 2},
				{Op: wasm.OpLocalGet, Imm: 0},
				{Op: wasm.OpI32Const, Imm: 1},
				{Op: wasm.OpI32Add},
				{Op: wasm.OpLocalSet, Imm: 0},
				{Op: wasm.OpBr, Imm: 0},
				{Op: wasm.OpEnd},
				{Op: wasm.OpEnd},
				// Mutate the global through the table: call_indirect slot 0.
				{Op: wasm.OpI32Const, Imm: 0},
				{Op: wasm.OpCallIndirect, Imm: 3}, // type 3: () -> ()
				// Grow a page and store a sentinel into the grown region.
				{Op: wasm.OpI32Const, Imm: 1},
				{Op: wasm.OpMemoryGrow},
				{Op: wasm.OpDrop},
				{Op: wasm.OpI32Const, Imm: uint64(wasm.PageSize)},
				{Op: wasm.OpI32Const, Imm: 99},
				{Op: wasm.OpI32Store, Imm2: 2},
			},
		},
		fnDef{
			name:   "main",
			params: []wasm.ValType{wasm.ValI32}, results: []wasm.ValType{wasm.ValI32},
			body: []wasm.Instr{
				{Op: wasm.OpLocalGet, Imm: 0},
				{Op: wasm.OpI32Const, Imm: 4},
				{Op: wasm.OpI32Mul},
				{Op: wasm.OpI32Load, Imm2: 2},
				{Op: wasm.OpGlobalGet, Imm: 0},
				{Op: wasm.OpI32Add},
				{Op: wasm.OpI32Const, Imm: uint64(wasm.PageSize)},
				{Op: wasm.OpI32Load, Imm2: 2},
				{Op: wasm.OpI32Add},
			},
		},
		fnDef{
			name:   "poke",
			params: []wasm.ValType{wasm.ValI32, wasm.ValI32},
			body: []wasm.Instr{
				{Op: wasm.OpLocalGet, Imm: 0},
				{Op: wasm.OpLocalGet, Imm: 1},
				{Op: wasm.OpI32Store, Imm2: 2},
				{Op: wasm.OpI32Const, Imm: 0},
				{Op: wasm.OpGlobalSet, Imm: 0},
			},
		},
		fnDef{
			name: "setg",
			body: []wasm.Instr{
				{Op: wasm.OpI32Const, Imm: 12345},
				{Op: wasm.OpGlobalSet, Imm: 0},
			},
		},
	)
	m.Globals = []wasm.Global{{
		Type: wasm.GlobalType{Type: wasm.ValI32, Mutable: true},
		Init: wasm.Instr{Op: wasm.OpI32Const, Imm: 0},
	}}
	m.Tables = []wasm.Limits{{Min: 1, Max: 1, HasMax: true}}
	m.Elems = []wasm.ElemSegment{{
		Offset: wasm.Instr{Op: wasm.OpI32Const, Imm: 0}, FuncIndices: []uint32{3},
	}}
	m.Start = 0
	return m
}

// snapshotFidelityConfigs is the differential matrix for the snapshot axis:
// register form with and without analysis, and the naive tier, each crossed with every explicit bounds strategy. BoundsNone is
// excluded as in the fuzzer: its trap set legitimately differs.
func snapshotFidelityConfigs() []Config {
	var cfgs []Config
	for _, b := range []BoundsStrategy{BoundsGuard, BoundsSoftware, BoundsSoftwareFused, BoundsMPX} {
		cfgs = append(cfgs,
			Config{Bounds: b, Tier: TierOptimized},
			Config{Bounds: b, Tier: TierOptimized, NoAnalysis: true},
			Config{Bounds: b, Tier: TierNaive},
		)
	}
	return cfgs
}

// runMain executes one fresh-instance main(arg) and returns (result, gas).
func runMain(t *testing.T, cm *CompiledModule, arg uint64) (uint64, uint64) {
	t.Helper()
	in := cm.Acquire()
	defer cm.Release(in)
	if err := in.Start("main", arg); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if st, err := in.Run(0); err != nil || st != StatusDone {
		t.Fatalf("Run: %v %v", st, err)
	}
	v, _ := in.Result()
	return v, in.Gas
}

// TestSnapshotFidelity proves snapshot-materialized execution bit-identical
// (result and gas) to the replayed instantiate+start path across the full
// tier × bounds matrix, including pooled reuse after a run that dirtied
// memory and globals.
func TestSnapshotFidelity(t *testing.T) {
	m := snapshotTestModule(t)
	const arg = 5
	type outcome struct {
		first, gas1  uint64
		reused, gas2 uint64
		snapshotted  bool
	}
	var ref *outcome
	var refCfg string
	for _, base := range snapshotFidelityConfigs() {
		for _, noSnap := range []bool{false, true} {
			cfg := base
			cfg.NoSnapshot = noSnap
			name := cfg.Tier.String() + "/" + cfg.Bounds.String()
			cm := mustCompile(t, m, cfg)
			if got, want := cm.Snapshot() != nil, !noSnap; got != want {
				t.Fatalf("%s nosnap=%v: snapshot present = %v, want %v", name, noSnap, got, want)
			}
			var o outcome
			o.snapshotted = cm.Snapshot() != nil
			o.first, o.gas1 = runMain(t, cm, arg)
			// Dirty memory and the global through the pool, then re-run:
			// the reset must restore the post-init baseline, not the
			// pristine data-segment state and not the poked state.
			pk := cm.Acquire()
			if err := pk.Start("poke", arg*4, 1); err != nil {
				t.Fatalf("%s: poke start: %v", name, err)
			}
			if _, err := pk.Run(0); err != nil {
				t.Fatalf("%s: poke run: %v", name, err)
			}
			cm.Release(pk)
			o.reused, o.gas2 = runMain(t, cm, arg)
			if ref == nil {
				ref = &o
				refCfg = name
				// The module's init work is all visible from main: mem fill,
				// call_indirect global mutation, and the grown-page sentinel.
				if want := uint64(arg*7 + 1 + 12345 + 99); o.first != want {
					t.Fatalf("%s: main(%d) = %d, want %d", name, arg, o.first, want)
				}
				continue
			}
			if o.first != ref.first || o.reused != ref.reused {
				t.Errorf("%s nosnap=%v: results (%d, %d) diverge from %s (%d, %d)",
					name, noSnap, o.first, o.reused, refCfg, ref.first, ref.reused)
			}
			if o.gas1 != ref.gas1 || o.gas2 != ref.gas2 {
				t.Errorf("%s nosnap=%v: gas (%d, %d) diverges from %s (%d, %d)",
					name, noSnap, o.gas1, o.gas2, refCfg, ref.gas1, ref.gas2)
			}
			if o.first != o.reused {
				t.Errorf("%s nosnap=%v: pooled reuse diverged: %d then %d", name, noSnap, o.first, o.reused)
			}
		}
	}
}

// TestSnapshotSkipsStartFunction counts start-function runs: the start
// function adds one to a memory cell, so the cell read after Acquire and
// again after the entry returns says how often it ran, and where. An
// instance materialised from the post-init snapshot holds the compile-time
// probe's one run before Start and runs it no more; the replay oracle runs
// it once per instantiation, inside Start.
func TestSnapshotSkipsStartFunction(t *testing.T) {
	m := buildModule(t, 1,
		fnDef{name: "boot", body: []wasm.Instr{
			{Op: wasm.OpI32Const, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 0},
			{Op: wasm.OpI32Load, Imm2: 2},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpI32Store, Imm2: 2},
		}},
		fnDef{name: "main", results: []wasm.ValType{wasm.ValI32}, body: []wasm.Instr{
			{Op: wasm.OpI32Const, Imm: 0},
			{Op: wasm.OpI32Load, Imm2: 2},
		}},
	)
	m.Start = 0
	const instances = 4
	for _, tc := range []struct {
		noSnapshot       bool
		atAcquire, inRun int // count in the cell after Acquire; runs Start added
	}{
		{false, 1, 0},
		{true, 0, instances},
	} {
		cm := mustCompile(t, m, Config{NoSnapshot: tc.noSnapshot})
		runs := 0
		for i := 0; i < instances; i++ {
			in := cm.Acquire()
			before := int(binary.LittleEndian.Uint32(in.mem))
			if before != tc.atAcquire {
				t.Errorf("NoSnapshot=%v instance %d: cell = %d after Acquire, want %d", tc.noSnapshot, i, before, tc.atAcquire)
			}
			v, err := in.Invoke("main")
			if err != nil {
				t.Fatalf("NoSnapshot=%v: %v", tc.noSnapshot, err)
			}
			if v != 1 {
				t.Errorf("NoSnapshot=%v instance %d: main = %d, want 1", tc.noSnapshot, i, v)
			}
			runs += int(v) - before
			cm.Release(in)
		}
		if runs != tc.inRun {
			t.Errorf("NoSnapshot=%v: start function ran %d times over %d instances, want %d", tc.noSnapshot, runs, instances, tc.inRun)
		}
	}
}

// TestSnapshotSkippedForTrappingStart: a start function that traps is never
// snapshotted, and both paths surface the same trap on every Start.
func TestSnapshotSkippedForTrappingStart(t *testing.T) {
	m := buildModule(t, 1,
		fnDef{name: "boom", body: []wasm.Instr{
			{Op: wasm.OpI32Const, Imm: 1 << 20}, // beyond 1-page memory
			{Op: wasm.OpI32Const, Imm: 7},
			{Op: wasm.OpI32Store, Imm2: 2},
		}},
		fnDef{name: "main", results: []wasm.ValType{wasm.ValI32},
			body: []wasm.Instr{{Op: wasm.OpI32Const, Imm: 1}}},
	)
	m.Start = 0
	for _, noSnap := range []bool{false, true} {
		cfg := Config{NoSnapshot: noSnap}
		cm := mustCompile(t, m, cfg)
		if cm.Snapshot() != nil {
			t.Fatalf("nosnap=%v: trapping start was snapshotted", noSnap)
		}
		for i := 0; i < 2; i++ {
			in := cm.Acquire()
			err := in.Start("main")
			var trap *Trap
			if !errors.As(err, &trap) || trap.Code != TrapMemOutOfBounds {
				t.Fatalf("nosnap=%v run %d: Start = %v, want memory OOB trap", noSnap, i, err)
			}
			cm.Release(in)
		}
	}
}

// TestSnapshotSkippedForHostStart: a start function whose call graph
// reaches a host import is never snapshotted — the host call must be
// observed once per instantiation, exactly as the replayed path does.
func TestSnapshotSkippedForHostStart(t *testing.T) {
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{}, {Results: []wasm.ValType{wasm.ValI32}}}
	m.Imports = []wasm.Import{{Module: "env", Name: "tick", Kind: wasm.ExternFunc, TypeIdx: 0}}
	m.Funcs = []wasm.Func{
		{TypeIdx: 0, Body: []wasm.Instr{{Op: wasm.OpCall, Imm: 0}}, Name: "boot"},
		{TypeIdx: 1, Body: []wasm.Instr{{Op: wasm.OpI32Const, Imm: 3}}, Name: "main"},
	}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 2}}
	m.Start = 1
	calls := 0
	host := HostRegistry{"env": {"tick": {
		Func: func(_ *Instance, _ []uint64) (uint64, error) { calls++; return 0, nil },
		Type: m.Types[0],
	}}}
	cm, err := Compile(m, host, Config{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cm.Snapshot() != nil {
		t.Fatal("host-reaching start was snapshotted")
	}
	if calls != 0 {
		t.Fatalf("host called %d times during Compile (probe must not run)", calls)
	}
	for i := 1; i <= 3; i++ {
		in := cm.Acquire()
		if err := in.Start("main"); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if calls != i {
			t.Fatalf("after %d starts host ran %d times", i, calls)
		}
		cm.Release(in)
	}
}

// TestSnapshotWarmPathZeroAllocs: the snapshot-materialize fast path —
// Acquire, Start (gas credit, no replay), Run, Release — stays free of
// allocations once the pool is warm, matching the //sledge:noalloc
// annotations the analyzer enforces statically.
func TestSnapshotWarmPathZeroAllocs(t *testing.T) {
	cm := mustCompile(t, snapshotTestModule(t), Config{})
	if cm.Snapshot() == nil {
		t.Fatal("module was not snapshotted")
	}
	args := []uint64{5}
	warm := func() {
		in := cm.Acquire()
		if err := in.Start("main", args...); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if _, err := in.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		cm.Release(in)
	}
	for i := 0; i < 8; i++ {
		warm()
	}
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Errorf("warm snapshot path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDropSnapshotRetiresBaseline: after the cache's rung-2 demotion, new
// instances replay the start function and produce identical results, and
// pooled instances carrying the dropped baseline are torn down on Release
// instead of re-pooled (the snapshot bytes must actually retire).
func TestDropSnapshotRetiresBaseline(t *testing.T) {
	cm := mustCompile(t, snapshotTestModule(t), Config{})
	pre, preGas := runMain(t, cm, 5)
	stale := cm.Acquire() // materialized from the snapshot
	if stale.snap == nil {
		t.Fatal("expected a snapshot-materialized instance")
	}
	if !cm.DropSnapshot() {
		t.Fatal("DropSnapshot reported no snapshot")
	}
	if cm.SnapshotBytes() != 0 {
		t.Fatalf("SnapshotBytes = %d after drop", cm.SnapshotBytes())
	}
	// The stale instance still runs correctly against its own baseline.
	if err := stale.Start("main", 5); err != nil {
		t.Fatalf("stale Start: %v", err)
	}
	if _, err := stale.Run(0); err != nil {
		t.Fatalf("stale Run: %v", err)
	}
	if v, _ := stale.Result(); v != pre {
		t.Errorf("stale instance result %d, want %d", v, pre)
	}
	before := cm.PooledInstances()
	cm.Release(stale)
	if got := cm.PooledInstances(); got != before {
		t.Errorf("stale instance was re-pooled (%d -> %d idle)", before, got)
	}
	// Fresh instances use the replay path and agree bit-for-bit.
	post, postGas := runMain(t, cm, 5)
	if post != pre || postGas != preGas {
		t.Errorf("replay after drop = (%d, gas %d), snapshot path was (%d, gas %d)",
			post, postGas, pre, preGas)
	}
}
