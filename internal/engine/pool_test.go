package engine

import (
	"errors"
	"testing"

	"sledge/internal/wasm"
)

// pokeModule: one page of memory, a data segment, and store/load helpers.
func pokeModule() *wasm.Module {
	m := wasm.NewModule()
	m.Memories = []wasm.Limits{{Min: 1, Max: 4, HasMax: true}}
	m.Data = []wasm.DataSegment{
		{Offset: wasm.Instr{Op: wasm.OpI32Const, Imm: 16}, Bytes: []byte("seed-data")},
	}
	m.Types = []wasm.FuncType{
		{Params: []wasm.ValType{wasm.ValI32, wasm.ValI32}},
		{Params: []wasm.ValType{wasm.ValI32}, Results: []wasm.ValType{wasm.ValI32}},
	}
	m.Funcs = []wasm.Func{
		{TypeIdx: 0, Body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpLocalGet, Imm: 1},
			{Op: wasm.OpI32Store},
		}, Name: "poke"},
		{TypeIdx: 1, Body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Load},
		}, Name: "peek"},
	}
	m.Exports = []wasm.Export{
		{Name: "poke", Kind: wasm.ExternFunc, Index: 0},
		{Name: "peek", Kind: wasm.ExternFunc, Index: 1},
	}
	return m
}

// TestPoolHygiene is the engine-level multi-tenant isolation guarantee: a
// recycled instance's memory must be indistinguishable from a fresh one —
// data segments replayed, everything else zero.
func TestPoolHygiene(t *testing.T) {
	for _, cfg := range allConfigs {
		cm := mustCompile(t, pokeModule(), cfg)

		first := cm.Acquire()
		// Tenant A scribbles a secret both through wasm stores and through
		// the host Memory() escape hatch.
		if _, err := first.Invoke("poke", 4096, 0xDEADBEEF); err != nil {
			t.Fatalf("%s/%s: poke: %v", cfg.Tier, cfg.Bounds, err)
		}
		copy(first.Memory()[60000:], "tenant-a-secret")
		cm.Release(first)

		second := cm.Acquire()
		if second != first {
			t.Fatalf("%s/%s: expected the recycled instance back", cfg.Tier, cfg.Bounds)
		}
		fresh := cm.Instantiate()
		got, want := second.Memory(), fresh.Memory()
		if len(got) != len(want) {
			t.Fatalf("%s/%s: recycled len %d, fresh len %d", cfg.Tier, cfg.Bounds, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s/%s: recycled memory differs from fresh at %d: %#x vs %#x",
					cfg.Tier, cfg.Bounds, i, got[i], want[i])
			}
		}
		// And it is fully functional again.
		if v, err := second.Invoke("peek", 16); err != nil || uint32(v) == 0 {
			t.Errorf("%s/%s: peek(data seg) = %d, %v", cfg.Tier, cfg.Bounds, v, err)
		}
	}
}

// TestPoolGrowAcrossRecycle: grown memory shrinks back to the declared
// minimum on release, the retained capacity is re-zeroed, and a later grow
// reuses it without reallocating.
func TestPoolGrowAcrossRecycle(t *testing.T) {
	m := pokeModule()
	m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: 1, Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, Imm: 0},
		{Op: wasm.OpMemoryGrow},
	}, Name: "grow"})
	m.Exports = append(m.Exports, wasm.Export{Name: "grow", Kind: wasm.ExternFunc, Index: 2})

	cm := mustCompile(t, m, Config{})
	in := cm.Acquire()
	if v, err := in.Invoke("grow", 2); err != nil || int32(v) != 1 {
		t.Fatalf("grow(2) = %d, %v", v, err)
	}
	// Invoke marked it started; reacquire run state via a fresh Start on the
	// recycled instance below. Scribble into the grown region first.
	copy(in.Memory()[2*wasm.PageSize:], "grown-secret")
	cm.Release(in)

	in2 := cm.Acquire()
	if in2 != in {
		t.Fatal("expected recycled instance")
	}
	if len(in2.Memory()) != wasm.PageSize {
		t.Fatalf("recycled memory len = %d, want %d", len(in2.Memory()), wasm.PageSize)
	}
	// Regrow: the retained capacity is reused and must read as zeros.
	if v, err := in2.Invoke("grow", 2); err != nil || int32(v) != 1 {
		t.Fatalf("regrow(2) = %d, %v", v, err)
	}
	mem := in2.Memory()
	for i := 2 * wasm.PageSize; i < len(mem); i++ {
		if mem[i] != 0 {
			t.Fatalf("regrown memory nonzero at %d: %#x", i, mem[i])
		}
	}
}

func TestPoolReleaseRejectsLiveInstance(t *testing.T) {
	cm := mustCompile(t, pokeModule(), Config{})
	in := cm.Acquire()
	if err := in.Start("peek", 16); err != nil {
		t.Fatal(err)
	}
	// Runnable (started, yielded) instances must not enter the pool.
	cm.Release(in)
	if n := cm.PooledInstances(); n != 0 {
		t.Fatalf("live instance pooled: %d", n)
	}
	if st, err := in.Run(0); err != nil || st != StatusDone {
		t.Fatalf("Run = %s, %v", st, err)
	}
	cm.Release(in)
	if n := cm.PooledInstances(); n != 1 {
		t.Fatalf("finished instance not pooled: %d", n)
	}
}

// icModule has two same-typed table entries (to flip the cache), a
// wrong-typed one, and a null slot.
func icModule() *wasm.Module {
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{
		{Results: []wasm.ValType{wasm.ValI32}},                                      // () -> i32
		{Params: []wasm.ValType{wasm.ValI32}, Results: []wasm.ValType{wasm.ValI32}}, // (i32) -> i32
	}
	m.Funcs = []wasm.Func{
		{TypeIdx: 0, Body: []wasm.Instr{{Op: wasm.OpI32Const, Imm: 7}}, Name: "seven"},
		{TypeIdx: 0, Body: []wasm.Instr{{Op: wasm.OpI32Const, Imm: 9}}, Name: "nine"},
		{TypeIdx: 1, Body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 1},
			{Op: wasm.OpI32Add},
		}, Name: "inc"},
		{TypeIdx: 1, Body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpCallIndirect, Imm: 0}, // expects type 0
		}, Name: "dispatch"},
	}
	m.Tables = []wasm.Limits{{Min: 5, Max: 5, HasMax: true}}
	m.Elems = []wasm.ElemSegment{{
		Offset: wasm.Instr{Op: wasm.OpI32Const, Imm: 0}, FuncIndices: []uint32{0, 1, 2},
	}}
	m.Exports = []wasm.Export{{Name: "dispatch", Kind: wasm.ExternFunc, Index: 3}}
	return m
}

// TestCallIndirectInlineCache: repeated monomorphic dispatch, a polymorphic
// flip, and the CFI checks all behave identically with the cache hot.
func TestCallIndirectInlineCache(t *testing.T) {
	cm := mustCompile(t, icModule(), Config{})
	in := cm.Acquire()

	run := func(slot uint64) uint64 {
		t.Helper()
		v, err := in.Invoke("dispatch", slot)
		if err != nil {
			t.Fatalf("dispatch(%d): %v", slot, err)
		}
		// Reuse the same instance (and its warmed cache) across calls.
		cm.Release(in)
		in = cm.Acquire()
		return v
	}

	for i := 0; i < 5; i++ { // monomorphic: hits after the first call
		if got := run(0); got != 7 {
			t.Fatalf("dispatch(0) call %d = %d, want 7", i, got)
		}
	}
	if got := run(1); got != 9 { // flip: cache key mismatch, re-resolve
		t.Fatalf("dispatch(1) = %d, want 9", got)
	}
	if got := run(0); got != 7 {
		t.Fatalf("dispatch(0) after flip = %d, want 7", got)
	}

	// With the cache populated for slot 0, the other slots must still take
	// the checked path and trap.
	cases := []struct {
		slot uint64
		code TrapCode
	}{
		{2, TrapIndirectCallType},
		{4, TrapIndirectCallNull},
		{9, TrapIndirectCallOOB},
	}
	for _, c := range cases {
		_, err := in.Invoke("dispatch", c.slot)
		var trap *Trap
		if !errors.As(err, &trap) || trap.Code != c.code {
			t.Errorf("dispatch(%d): want %s, got %v", c.slot, c.code, err)
		}
		cm.Release(in)
		in = cm.Acquire()
	}
}

// fusionCase pairs a function with inputs and runs it under every config,
// checking the forwarded, fused code computes the same value as the
// unfused one. The cases are the idioms the lowerer's old peephole matched.
type fusionCase struct {
	name string
	fn   fnDef
	args []uint64
	want uint64
}

func fusionCases() []fusionCase {
	i32 := wasm.ValI32
	f64v := wasm.ValF64
	return []fusionCase{
		{
			// a load from a constant address (the constant is moved to a slot)
			name: "const-load-i32",
			fn: fnDef{
				name: "f", results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpI32Const, Imm: 64},
					{Op: wasm.OpI32Const, Imm: 0x01020304},
					{Op: wasm.OpI32Store},
					{Op: wasm.OpI32Const, Imm: 60},
					{Op: wasm.OpI32Load, Imm: 4}, // static offset lands on 64
				},
			},
			want: 0x01020304,
		},
		{
			// a store of a constant value
			name: "const-store-i32",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpI32Const, Imm: 12345},
					{Op: wasm.OpI32Store},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpI32Load},
				},
			},
			args: []uint64{128},
			want: 12345,
		},
		{
			// a store whose value is read straight from a local
			name: "local-store-i32",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Store},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpI32Load},
				},
			},
			args: []uint64{256, 0xCAFE},
			want: 0xCAFE,
		},
		{
			// i32.sub with a local rhs, named in place
			name: "sub-local-i32",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Sub},
				},
			},
			args: []uint64{50, 8},
			want: 42,
		},
		{
			// i32.sub with a const rhs  ->  iI32AddI with negated imm
			name: "sub-const-i32",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpI32Const, Imm: 7},
					{Op: wasm.OpI32Sub},
				},
			},
			args: []uint64{3}, // wraps below zero
			want: uint64(uint32(0xFFFFFFFC)),
		},
		{
			// f64 round-trip: store from a local, constant-addressed load, sub
			name: "f64-store-load-sub",
			fn: fnDef{
				name: "f", params: []wasm.ValType{f64v, f64v}, results: []wasm.ValType{f64v},
				body: []wasm.Instr{
					{Op: wasm.OpI32Const, Imm: 512},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpF64Store},
					{Op: wasm.OpI32Const, Imm: 512},
					{Op: wasm.OpF64Load},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpF64Sub},
				},
			},
			args: []uint64{uf64(44.5), uf64(2.5)},
			want: uf64(42.0),
		},
		{
			// cmp; br_if back edge (direct sense)  ->  iBrIfLtS
			name: "cmp-brif-direct",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
				locals: []wasm.ValType{i32, i32}, // i, acc
				body: []wasm.Instr{
					{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
					{Op: wasm.OpLocalGet, Imm: 2},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Add},
					{Op: wasm.OpLocalSet, Imm: 2},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Const, Imm: 1},
					{Op: wasm.OpI32Add},
					{Op: wasm.OpLocalSet, Imm: 1},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpI32LtS},
					{Op: wasm.OpBrIf, Imm: 0},
					{Op: wasm.OpEnd},
					{Op: wasm.OpLocalGet, Imm: 2},
				},
			},
			args: []uint64{10}, // 0+1+...+9
			want: 45,
		},
		{
			// cmp; i32.eqz; br_if back edge (inverted)  ->  iBrIfGeS
			name: "cmp-brif-inverted",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32}, results: []wasm.ValType{i32},
				locals: []wasm.ValType{i32, i32},
				body: []wasm.Instr{
					{Op: wasm.OpLoop, Imm: uint64(wasm.BlockTypeEmpty)},
					{Op: wasm.OpLocalGet, Imm: 2},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Add},
					{Op: wasm.OpLocalSet, Imm: 2},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Const, Imm: 1},
					{Op: wasm.OpI32Add},
					{Op: wasm.OpLocalSet, Imm: 1},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpI32GeS},
					{Op: wasm.OpI32Eqz},
					{Op: wasm.OpBrIf, Imm: 0},
					{Op: wasm.OpEnd},
					{Op: wasm.OpLocalGet, Imm: 2},
				},
			},
			args: []uint64{10},
			want: 45,
		},
		{
			// unsigned compare branch  ->  iBrIfLtU (wraparound-sensitive)
			name: "cmp-brif-unsigned",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32LtU},
					{Op: wasm.OpBrIf, Imm: 0},
					{Op: wasm.OpI32Const, Imm: 0},
					{Op: wasm.OpReturn},
					{Op: wasm.OpEnd},
					{Op: wasm.OpI32Const, Imm: 1},
				},
			},
			args: []uint64{5, 0xFFFFFFFF}, // unsigned: 5 < 2^32-1
			want: 1,
		},
		{
			// eq branch taken vs not
			name: "cmp-brif-eq",
			fn: fnDef{
				name: "f", params: []wasm.ValType{i32, i32}, results: []wasm.ValType{i32},
				body: []wasm.Instr{
					{Op: wasm.OpBlock, Imm: uint64(wasm.BlockTypeEmpty)},
					{Op: wasm.OpLocalGet, Imm: 0},
					{Op: wasm.OpLocalGet, Imm: 1},
					{Op: wasm.OpI32Eq},
					{Op: wasm.OpBrIf, Imm: 0},
					{Op: wasm.OpI32Const, Imm: 0},
					{Op: wasm.OpReturn},
					{Op: wasm.OpEnd},
					{Op: wasm.OpI32Const, Imm: 1},
				},
			},
			args: []uint64{33, 33},
			want: 1,
		},
	}
}

func TestFusionMatchesUnfused(t *testing.T) {
	configs := append([]Config{{NoFusion: true}}, allConfigs...)
	for _, fc := range fusionCases() {
		for _, cfg := range configs {
			m := buildModule(t, 1, fc.fn)
			cm := mustCompile(t, m, cfg)
			if got := invoke(t, cm, "f", fc.args...); got != fc.want {
				t.Errorf("%s [%s/%s nofusion=%v]: got %#x, want %#x",
					fc.name, cfg.Tier, cfg.Bounds, cfg.NoFusion, got, fc.want)
			}
		}
	}
}
