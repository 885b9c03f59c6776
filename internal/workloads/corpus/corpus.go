// Package corpus is the module set the repo's whole-corpus tests share: the
// lowering-totality test and the differential fuzzer in internal/engine, and
// the analysis facts golden in internal/analysis. It is imported by tests
// only.
package corpus

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sledge/internal/wasm"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
	"sledge/internal/workloads/polybench"
)

// Modules is every module the repo ships or seeds a fuzzer with, by name:
// the nine apps and fetch, the PolyBench kernels, the differential fuzzer's
// seeds and its checked-in corpus (fuzzDir is the path of
// internal/engine/testdata/fuzz/FuzzDifferentialElision from the calling
// test's directory). Corpus entries are raw fuzz inputs: some do not decode.
func Modules(tb testing.TB, fuzzDir string) map[string][]byte {
	tb.Helper()
	bins := make(map[string][]byte)
	for _, a := range append(append([]apps.App(nil), apps.Apps...), apps.FetchApp) {
		res, err := wcc.Compile(a.Source, wcc.Options{HeapBytes: a.HeapBytes, Data: a.Data})
		if err != nil {
			tb.Fatalf("wcc %s: %v", a.Name, err)
		}
		bins["app/"+a.Name] = res.Binary
	}
	for _, k := range polybench.Kernels {
		res, err := wcc.Compile(k.Source, wcc.Options{HeapBytes: k.MemBytes(k.TestN)})
		if err != nil {
			tb.Fatalf("wcc %s: %v", k.Name, err)
		}
		bins["polybench/"+k.Name] = res.Binary
	}
	for i, bin := range SeedModules(tb) {
		bins["seed/"+strconv.Itoa(i)] = bin
	}
	files, err := filepath.Glob(filepath.Join(fuzzDir, "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("fuzz corpus %s: %v (%d files)", fuzzDir, err, len(files))
	}
	for _, f := range files {
		// "go test fuzz v1" / []byte("...") / uint64(n)
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			tb.Fatalf("%s: not a fuzz corpus entry", f)
		}
		bin, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		bins["corpus/"+filepath.Base(f)] = []byte(bin)
	}
	return bins
}

// IdiomSeedModule is hand-built from the Wasm features and operand shapes
// WCC never emits — br_table, select, memory.size/grow, call_indirect at a
// polymorphic and at a provably monomorphic site, every i32
// compare-and-branch with stack and with local operands, branches on a bare
// local, f64 arithmetic and addressing on locals — so the fuzzer (and
// TestLoweringTotalNoDeadOpcode) start from every lowered form, not only
// the ones the apps happen to use. main(x) sums what each helper returns.
func IdiomSeedModule() *wasm.Module {
	const (
		tUn  = iota // (i32) -> i32
		tBin        // (i32, i32) -> i32
		tF64        // (f64, f64) -> f64
		tNul        // () -> i32
	)
	const (
		fInc = iota
		fDbl
		fSeven
		fMisc
		fCmps
		fF64
		fMain
	)
	i32, f64 := wasm.ValI32, wasm.ValF64
	empty := uint64(wasm.BlockTypeEmpty)
	get := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpLocalGet, Imm: l} }
	set := func(l uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpLocalSet, Imm: l} }
	konst := func(v uint64) wasm.Instr { return wasm.Instr{Op: wasm.OpI32Const, Imm: v} }
	op := func(o wasm.Opcode) wasm.Instr { return wasm.Instr{Op: o} }
	// bump is `acc += k` on local l, reached only when the branch before
	// it was not taken.
	bump := func(l, k uint64) []wasm.Instr {
		return []wasm.Instr{get(l), konst(k), op(wasm.OpI32Add), set(l)}
	}

	m := wasm.NewModule()
	m.Types = []wasm.FuncType{
		{Params: []wasm.ValType{i32}, Results: []wasm.ValType{i32}},
		{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}},
		{Params: []wasm.ValType{f64, f64}, Results: []wasm.ValType{f64}},
		{Results: []wasm.ValType{i32}},
	}
	m.Memories = []wasm.Limits{{Min: 1, Max: 2, HasMax: true}}
	m.Tables = []wasm.Limits{{Min: 3, Max: 3, HasMax: true}}
	m.Elems = []wasm.ElemSegment{{Offset: konst(0), FuncIndices: []uint32{fInc, fDbl, fSeven}}}

	// misc(x): br_table over x, then select, memory.size and memory.grow.
	misc := wasm.Func{TypeIdx: tUn, Locals: []wasm.ValType{i32}, Name: "misc"}
	misc.Body = []wasm.Instr{
		{Op: wasm.OpBlock, Imm: empty},
		{Op: wasm.OpBlock, Imm: empty},
		{Op: wasm.OpBlock, Imm: empty},
		get(0),
		wasm.MakeBrTable(&misc.BrLabels, []uint32{0, 1}, 2),
		op(wasm.OpEnd),
	}
	misc.Body = append(misc.Body, bump(1, 10)...)
	misc.Body = append(misc.Body, op(wasm.OpEnd))
	misc.Body = append(misc.Body, bump(1, 20)...)
	misc.Body = append(misc.Body, op(wasm.OpEnd),
		get(1),
		konst(3), konst(4), get(0), op(wasm.OpSelect), op(wasm.OpI32Add),
		op(wasm.OpMemorySize), op(wasm.OpI32Add),
		konst(1), op(wasm.OpMemoryGrow), op(wasm.OpI32Add),
	)

	// cmps(a, b): each comparison guards a bump twice, once with a computed
	// left operand (stack form) and once with both operands in locals; then
	// a branch on a bare local in both senses.
	cmps := wasm.Func{TypeIdx: tBin, Locals: []wasm.ValType{i32}, Name: "cmps"}
	for i, cmp := range []wasm.Opcode{
		wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS,
		wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
	} {
		k := uint64(1) << uint(i)
		cmps.Body = append(cmps.Body,
			wasm.Instr{Op: wasm.OpBlock, Imm: empty},
			get(0), konst(1), op(wasm.OpI32Add), get(1), op(cmp),
			wasm.Instr{Op: wasm.OpBrIf, Imm: 0})
		cmps.Body = append(cmps.Body, bump(2, k)...)
		cmps.Body = append(cmps.Body, op(wasm.OpEnd),
			wasm.Instr{Op: wasm.OpBlock, Imm: empty},
			get(0), get(1), op(cmp),
			wasm.Instr{Op: wasm.OpBrIf, Imm: 0})
		cmps.Body = append(cmps.Body, bump(2, k<<10)...)
		cmps.Body = append(cmps.Body, op(wasm.OpEnd))
	}
	cmps.Body = append(cmps.Body,
		wasm.Instr{Op: wasm.OpBlock, Imm: empty},
		get(0), wasm.Instr{Op: wasm.OpBrIf, Imm: 0})
	cmps.Body = append(cmps.Body, bump(2, 1<<20)...)
	cmps.Body = append(cmps.Body, op(wasm.OpEnd),
		wasm.Instr{Op: wasm.OpBlock, Imm: empty},
		get(1), op(wasm.OpI32Eqz), wasm.Instr{Op: wasm.OpBrIf, Imm: 0})
	cmps.Body = append(cmps.Body, bump(2, 1<<21)...)
	cmps.Body = append(cmps.Body, op(wasm.OpEnd), get(2))

	// fl(a, b) = (a+b) + (a-b) + (mem[p] - b) + mem[64], with mem[p=64] = a:
	// LL arithmetic, a local-addressed store and load, a constant-addressed
	// load, and a subtraction whose left operand is not a local.
	fl := wasm.Func{TypeIdx: tF64, Locals: []wasm.ValType{i32}, Name: "fl", Body: []wasm.Instr{
		konst(64), set(2),
		get(2), get(0), op(wasm.OpF64Store),
		get(0), get(1), op(wasm.OpF64Add),
		get(0), get(1), op(wasm.OpF64Sub),
		op(wasm.OpF64Add),
		get(2), op(wasm.OpF64Load), get(1), op(wasm.OpF64Sub),
		op(wasm.OpF64Add),
		konst(64), op(wasm.OpF64Load),
		op(wasm.OpF64Add),
	}}

	main := wasm.Func{TypeIdx: tUn, Name: "main", Body: []wasm.Instr{
		get(0), konst(3), op(wasm.OpI32And), {Op: wasm.OpCall, Imm: fMisc},
		get(0), konst(100), {Op: wasm.OpCall, Imm: fCmps}, op(wasm.OpI32Add),
		get(0), get(0), {Op: wasm.OpCall, Imm: fCmps}, op(wasm.OpI32Add),
		// Slots 0 and 1 share a signature: a real table dispatch.
		get(0), get(0), konst(1), op(wasm.OpI32And), {Op: wasm.OpCallIndirect, Imm: tUn}, op(wasm.OpI32Add),
		// Slot 2 is the only () -> i32: the analysis devirtualizes it.
		konst(2), {Op: wasm.OpCallIndirect, Imm: tNul}, op(wasm.OpI32Add),
		get(0), konst(255), op(wasm.OpI32And), op(wasm.OpF64ConvertI32S),
		{Op: wasm.OpF64Const, Imm: math.Float64bits(2.5)},
		{Op: wasm.OpCall, Imm: fF64}, op(wasm.OpI32TruncF64S), op(wasm.OpI32Add),
	}}

	m.Funcs = []wasm.Func{
		{TypeIdx: tUn, Name: "inc", Body: []wasm.Instr{get(0), konst(1), op(wasm.OpI32Add)}},
		{TypeIdx: tUn, Name: "dbl", Body: []wasm.Instr{get(0), get(0), op(wasm.OpI32Add)}},
		{TypeIdx: tNul, Name: "seven", Body: []wasm.Instr{konst(7)}},
		misc, cmps, fl, main,
	}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: fMain}}
	return m
}

// SeedModules returns the wasm binaries the differential fuzzer is
// seeded with: three WCC programs, the idiom module, and a hand-built
// start-section module.
func SeedModules(tb testing.TB) [][]byte {
	tb.Helper()
	var bins [][]byte
	for _, src := range []string{
		// In-bounds constant walk: every check elided.
		`
static u8 buf[64];
export i32 main(i32 n) {
	i32 acc = 0;
	for (i32 i = 0; i < 64; i = i + 1) {
		buf[i] = i * 7;
		acc = acc + (i32) buf[i];
	}
	return acc;
}
`,
		// Attacker-controlled index: check must stay and trap.
		`
static i32 A[16];
export i32 main(i32 i) {
	A[i] = 42;
	return A[i];
}
`,
		// Bounded call chain: stack certification applies.
		`
static i32 A[8];
i32 leaf(i32 x) { return A[x % 8] + x; }
i32 mid(i32 x) { return leaf(x) + leaf(x + 1); }
export i32 main(i32 x) {
	A[0] = 3;
	return mid(x % 4);
}
`,
	} {
		res, err := wcc.Compile(src, wcc.Options{})
		if err != nil {
			tb.Fatalf("wcc seed: %v", err)
		}
		bins = append(bins, res.Binary)
	}
	ibin, err := wasm.Encode(IdiomSeedModule())
	if err != nil {
		tb.Fatalf("idiom seed: %v", err)
	}
	bins = append(bins, ibin)
	// Start-section seed (WCC never emits one): init work that the
	// snapshot axis must reproduce — a memory fill plus a global bump.
	sm := wasm.NewModule()
	sm.Types = []wasm.FuncType{{}, {Params: []wasm.ValType{wasm.ValI32}, Results: []wasm.ValType{wasm.ValI32}}}
	sm.Memories = []wasm.Limits{{Min: 1, Max: 2, HasMax: true}}
	sm.Globals = []wasm.Global{{
		Type: wasm.GlobalType{Type: wasm.ValI32, Mutable: true},
		Init: wasm.Instr{Op: wasm.OpI32Const, Imm: 11},
	}}
	sm.Funcs = []wasm.Func{
		{TypeIdx: 0, Body: []wasm.Instr{
			{Op: wasm.OpI32Const, Imm: 8},
			{Op: wasm.OpI32Const, Imm: 77},
			{Op: wasm.OpI32Store, Imm2: 2},
			{Op: wasm.OpGlobalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 100},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpGlobalSet, Imm: 0},
		}, Name: "boot"},
		{TypeIdx: 1, Body: []wasm.Instr{
			{Op: wasm.OpLocalGet, Imm: 0},
			{Op: wasm.OpI32Const, Imm: 8},
			{Op: wasm.OpI32And},
			{Op: wasm.OpI32Load, Imm2: 2},
			{Op: wasm.OpGlobalGet, Imm: 0},
			{Op: wasm.OpI32Add},
		}, Name: "main"},
	}
	sm.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 1}}
	sm.Start = 0
	sbin, err := wasm.Encode(sm)
	if err != nil {
		tb.Fatalf("start seed: %v", err)
	}
	return append(bins, sbin)
}
