package analysis

import (
	"testing"

	"sledge/internal/wasm"
)

// TestScratchAccounting checks the two ends of the pooling rule: a walker
// that analysed an ordinary function stays far under maxScratchBytes, and
// one that a function with tens of thousands of locals grew is over it, so
// retire drops it. The big function also puts local indices past int16 in
// the interner's arena and through a loop entry's pruning.
func TestScratchAccounting(t *testing.T) {
	const bigLocals, hot = 40000, 39000
	empty := uint64(wasm.BlockTypeEmpty)
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{}}
	m.Memories = []wasm.Limits{{Min: 1}}
	body := []wasm.Instr{
		// An access through local `hot` before the loop: available.
		{Op: wasm.OpLocalGet, Imm: hot}, {Op: wasm.OpI32Load, Imm: 1 << 20}, {Op: wasm.OpDrop},
		{Op: wasm.OpBlock, Imm: empty},
		{Op: wasm.OpLoop, Imm: empty},
		// Same address, not yet reassigned in this iteration — but the
		// loop body assigns it, so the entry re-versions it.
		{Op: wasm.OpLocalGet, Imm: hot}, {Op: wasm.OpI32Load, Imm: 1 << 20}, {Op: wasm.OpDrop},
		{Op: wasm.OpLocalGet, Imm: hot}, {Op: wasm.OpI32Const, Imm: 4}, {Op: wasm.OpI32Add}, {Op: wasm.OpLocalSet, Imm: hot},
		{Op: wasm.OpLocalGet, Imm: hot}, {Op: wasm.OpI32Const, Imm: 64}, {Op: wasm.OpI32LtU}, {Op: wasm.OpBrIf, Imm: 0},
		{Op: wasm.OpEnd},
		{Op: wasm.OpEnd},
	}
	big := wasm.Func{TypeIdx: 0, Locals: make([]wasm.ValType, bigLocals), Body: body}
	small := wasm.Func{TypeIdx: 0, Locals: make([]wasm.ValType, 4), Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, Imm: 0}, {Op: wasm.OpI32Load}, {Op: wasm.OpDrop},
	}}
	for i := range big.Locals {
		big.Locals[i] = wasm.ValI32
	}
	for i := range small.Locals {
		small.Locals[i] = wasm.ValI32
	}
	m.Funcs = []wasm.Func{small, big}
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}

	var report Report
	w := new(mwalker)
	w.analyze(m, &m.Funcs[0], wasm.PageSize, make([]uint64, 1), &report)
	if got := w.scratchBytes(); got > maxScratchBytes/8 {
		t.Errorf("scratch after a three-instruction function: %d bytes", got)
	}
	safe := make([]uint64, 1)
	w.analyze(m, &m.Funcs[1], wasm.PageSize, safe, &report)
	if got := w.scratchBytes(); got <= maxScratchBytes {
		t.Errorf("scratch after a %d-local function: %d bytes, want over the %d cap", bigLocals, got, maxScratchBytes)
	}
	// Neither access is within the first page (offset 1 MiB), so only
	// availability could prove one, and it must not cross the loop entry.
	if safe[0] != 0 {
		t.Errorf("safe bits %b: an access was proven across the loop entry that reassigns its address local", safe[0])
	}
}
