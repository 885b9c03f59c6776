package engine

import (
	"fmt"

	"sledge/internal/analysis"
	"sledge/internal/wasm"
)

// lowerer is the state of lowerFunc.
type lowerer struct {
	m   *wasm.Module
	f   *wasm.Func
	cfg Config
	cm  *CompiledModule
	cf  *compiledFunc
	// facts are the static-analysis results consulted for check elision
	// and devirtualization (nil when analysis is disabled); fnIdx/idx
	// locate the current instruction in the facts' (defined function,
	// body index) keyspace.
	facts  *analysis.Facts
	fnIdx  int
	idx    int
	code   []cinstr
	frames []lframe
	h      int // current operand-stack height
	maxH   int
	// dead-code suppression
	dead      bool
	deadDepth int
}

type patchKind int

const (
	patchCode  patchKind = iota + 1 // code[idx1].a = target
	patchTable                      // brTables[idx1][idx2].pc = target
)

type patch struct {
	kind patchKind
	idx1 int
	idx2 int
}

type lframe struct {
	kind      wasm.Opcode // OpBlock, OpLoop, OpIf, OpElse (func body = OpBlock)
	startPC   int         // loop branch target
	height    int         // operand height at entry
	arity     int         // result count
	patches   []patch     // forward branches to this frame's end
	elsePatch int         // code index of the iBrIfNot for an if; -1 otherwise
}

// lowerFunc flattens a validated structured function body into the engine's
// internal instruction stream: structured control flow becomes pre-resolved
// jumps carrying their stack-adjustment metadata, dead code is dropped, and
// memory accesses get the check instruction the configured bounds strategy
// needs. The stream is stack form — operands implicit, local.get/set/tee
// and drop under their wasm opcodes — and lives only until regalloc.run
// rewrites it: cf.code is left aliasing buf, the caller's scratch, which is
// returned (possibly regrown) for the next function.
func lowerFunc(m *wasm.Module, f *wasm.Func, cfg Config, cm *CompiledModule, cf *compiledFunc, facts *analysis.Facts, charges []uint32, fnIdx int, buf []cinstr) ([]cinstr, error) {
	lo := &lowerer{m: m, f: f, cfg: cfg, cm: cm, cf: cf, facts: facts, fnIdx: fnIdx, code: buf[:0]}
	lo.frames = append(lo.frames, lframe{kind: wasm.OpBlock, arity: cf.numResults, elsePatch: -1})
	for i, in := range f.Body {
		lo.idx = i
		// Gas charge points land immediately before the lowered form of
		// their anchor instruction — exactly where loop startPC and
		// else/end patches resolve to, so every entry into the region
		// (fall-through or branch) pays the charge. The cost pass mirrors
		// the lowerer's dead-state machine, so charges in dead regions are
		// zero; the guard keeps the invariant explicit.
		if !lo.dead && charges[i] != 0 {
			lo.emit(cinstr{op: iGasCharge, imm: uint64(charges[i])})
		}
		if err := lo.step(in); err != nil {
			return lo.code, fmt.Errorf("instr %d (%s): %w", i, in, err)
		}
	}
	// Implicit function end.
	lo.idx = -1
	if err := lo.step(wasm.Instr{Op: wasm.OpEnd}); err != nil {
		return lo.code, fmt.Errorf("implicit end: %w", err)
	}
	cf.code = lo.code
	cf.maxStack = lo.maxH + 1 // slack for the iBrTable index pop ordering
	return lo.code, nil
}

func (lo *lowerer) emit(ci cinstr) int {
	lo.code = append(lo.code, ci)
	return len(lo.code) - 1
}

func (lo *lowerer) push(n int) {
	lo.h += n
	if lo.h > lo.maxH {
		lo.maxH = lo.h
	}
}

func (lo *lowerer) pop(n int) error {
	lo.h -= n
	if lo.h < 0 {
		return fmt.Errorf("engine: lowering height underflow")
	}
	return nil
}

func (lo *lowerer) top() *lframe { return &lo.frames[len(lo.frames)-1] }

func (lo *lowerer) frameAt(label uint64) (*lframe, error) {
	if label >= uint64(len(lo.frames)) {
		return nil, fmt.Errorf("label %d out of range", label)
	}
	return &lo.frames[len(lo.frames)-1-int(label)], nil
}

// branchInfo returns the jump metadata for a branch to the given frame.
func branchInfo(f *lframe) (height, arity int, toLoop bool) {
	if f.kind == wasm.OpLoop {
		return f.height, 0, true
	}
	return f.height, f.arity, false
}

func (lo *lowerer) applyPatch(p patch, target int) {
	switch p.kind {
	case patchCode:
		lo.code[p.idx1].a = int32(target)
	case patchTable:
		lo.cf.brTables[p.idx1][p.idx2].pc = int32(target)
	}
}

// closeFrame processes an `end`: patches forward branches and resets the
// height to the post-block value.
func (lo *lowerer) closeFrame() {
	f := lo.top()
	end := len(lo.code)
	for _, p := range f.patches {
		lo.applyPatch(p, end)
	}
	if f.elsePatch >= 0 {
		// if without else: the condition jump lands at the end.
		lo.applyPatch(patch{kind: patchCode, idx1: f.elsePatch}, end)
	}
	lo.frames = lo.frames[:len(lo.frames)-1]
	lo.h = f.height
	lo.push(f.arity)
	if len(lo.frames) == 0 {
		// Function end: emit the implicit return.
		lo.emit(cinstr{op: iReturn, imm: uint64(f.arity)})
	}
}

func blockArity(bt byte) int {
	if bt == wasm.BlockTypeEmpty {
		return 0
	}
	return 1
}

func (lo *lowerer) step(in wasm.Instr) error {
	if !lo.dead && lo.cfg.PerInstrNops > 0 {
		for i := 0; i < lo.cfg.PerInstrNops; i++ {
			lo.emit(cinstr{op: iNop})
		}
	}
	if lo.dead {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			lo.deadDepth++
		case wasm.OpElse:
			if lo.deadDepth == 0 {
				// Revive into the else branch.
				f := lo.top()
				if f.elsePatch >= 0 {
					lo.applyPatch(patch{kind: patchCode, idx1: f.elsePatch}, len(lo.code))
					f.elsePatch = -1
				}
				f.kind = wasm.OpElse
				lo.h = f.height
				lo.dead = false
			}
		case wasm.OpEnd:
			if lo.deadDepth > 0 {
				lo.deadDepth--
			} else {
				lo.dead = false
				lo.closeFrame()
			}
		}
		return nil
	}

	switch in.Op {
	case wasm.OpNop:
		return nil
	case wasm.OpUnreachable:
		lo.emit(cinstr{op: iUnreachable})
		lo.dead = true
		return nil
	case wasm.OpBlock:
		lo.frames = append(lo.frames, lframe{
			kind: wasm.OpBlock, height: lo.h, arity: blockArity(byte(in.Imm)), elsePatch: -1,
		})
		return nil
	case wasm.OpLoop:
		lo.frames = append(lo.frames, lframe{
			kind: wasm.OpLoop, startPC: len(lo.code), height: lo.h,
			arity: blockArity(byte(in.Imm)), elsePatch: -1,
		})
		return nil
	case wasm.OpIf:
		if err := lo.pop(1); err != nil {
			return err
		}
		elsePC := lo.emit(cinstr{op: iBrIfNot, a: -1, b: int32(lo.h), imm: 0})
		lo.frames = append(lo.frames, lframe{
			kind: wasm.OpIf, height: lo.h, arity: blockArity(byte(in.Imm)), elsePatch: elsePC,
		})
		return nil
	case wasm.OpElse:
		f := lo.top()
		if f.kind != wasm.OpIf {
			return fmt.Errorf("else without if")
		}
		// Terminate the then-branch with a jump to the block end.
		brPC := lo.emit(cinstr{op: iBr, a: -1, b: int32(f.height), imm: uint64(f.arity)})
		f.patches = append(f.patches, patch{kind: patchCode, idx1: brPC})
		lo.applyPatch(patch{kind: patchCode, idx1: f.elsePatch}, len(lo.code))
		f.elsePatch = -1
		f.kind = wasm.OpElse
		lo.h = f.height
		return nil
	case wasm.OpEnd:
		f := lo.top()
		if lo.h != f.height+f.arity {
			return fmt.Errorf("height %d at end, want %d", lo.h, f.height+f.arity)
		}
		lo.h = f.height // closeFrame re-adds arity
		lo.closeFrame()
		return nil
	case wasm.OpBr:
		f, err := lo.frameAt(in.Imm)
		if err != nil {
			return err
		}
		height, arity, toLoop := branchInfo(f)
		pc := lo.emit(cinstr{op: iBr, a: int32(f.startPC), b: int32(height), imm: uint64(arity)})
		if !toLoop {
			f.patches = append(f.patches, patch{kind: patchCode, idx1: pc})
		}
		lo.dead = true
		return nil
	case wasm.OpBrIf:
		if err := lo.pop(1); err != nil {
			return err
		}
		f, err := lo.frameAt(in.Imm)
		if err != nil {
			return err
		}
		height, arity, toLoop := branchInfo(f)
		pc := lo.emit(cinstr{op: iBrIf, a: int32(f.startPC), b: int32(height), imm: uint64(arity)})
		if !toLoop {
			f.patches = append(f.patches, patch{kind: patchCode, idx1: pc})
		}
		return nil
	case wasm.OpBrTable:
		if err := lo.pop(1); err != nil {
			return err
		}
		tblIdx := len(lo.cf.brTables)
		labels := wasm.BrTargets(lo.f.BrLabels, in)
		entries := make([]brTarget, 0, len(labels)+1)
		lo.cf.brTables = append(lo.cf.brTables, entries)
		addEntry := func(label uint64) error {
			f, err := lo.frameAt(label)
			if err != nil {
				return err
			}
			height, arity, toLoop := branchInfo(f)
			e := brTarget{pc: int32(f.startPC), height: int32(height), arity: int32(arity)}
			lo.cf.brTables[tblIdx] = append(lo.cf.brTables[tblIdx], e)
			if !toLoop {
				f.patches = append(f.patches, patch{
					kind: patchTable, idx1: tblIdx, idx2: len(lo.cf.brTables[tblIdx]) - 1,
				})
			}
			return nil
		}
		for _, l := range labels {
			if err := addEntry(uint64(l)); err != nil {
				return err
			}
		}
		if err := addEntry(in.Imm); err != nil { // default target, last entry
			return err
		}
		lo.emit(cinstr{op: iBrTable, a: int32(tblIdx)})
		lo.dead = true
		return nil
	case wasm.OpReturn:
		lo.emit(cinstr{op: iReturn, imm: uint64(lo.cf.numResults)})
		lo.dead = true
		return nil
	case wasm.OpCall:
		ft, err := lo.m.FuncTypeAt(uint32(in.Imm))
		if err != nil {
			return err
		}
		if err := lo.pop(len(ft.Params)); err != nil {
			return err
		}
		lo.emitCallOverhead()
		nImp := lo.m.NumImportedFuncs()
		if int(in.Imm) < nImp {
			lo.emit(cinstr{op: iCallHost, a: int32(in.Imm), b: int32(len(ft.Results))})
		} else {
			lo.emit(cinstr{op: iCall, a: int32(int(in.Imm) - nImp)})
		}
		lo.push(len(ft.Results))
		return nil
	case wasm.OpCallIndirect:
		ft := lo.m.Types[in.Imm]
		if err := lo.pop(1 + len(ft.Params)); err != nil {
			return err
		}
		lo.emitCallOverhead()
		// A site the analysis proved monomorphic dispatches straight to
		// its only possible target; the expected-index compare replaces
		// the table/null/type check chain and needs no inline-cache slot.
		if d, ok := lo.facts.DevirtAt(lo.fnIdx, lo.idx); ok {
			lo.emit(cinstr{
				op: iCallDevirt,
				a:  int32(d.FuncIdx) - int32(lo.m.NumImportedFuncs()),
				b:  int32(d.TableIdx),
				imm: uint64(len(ft.Results)) | uint64(len(ft.Params))<<16 |
					uint64(uint32(lo.cm.canonTypes[in.Imm]))<<32,
			})
			lo.push(len(ft.Results))
			return nil
		}
		// Each call_indirect site gets a monomorphic inline-cache slot;
		// imm packs the result arity (low 16 bits) with the slot index.
		icIdx := lo.cm.numICSites
		lo.cm.numICSites++
		lo.emit(cinstr{
			op: iCallIndirect, a: lo.cm.canonTypes[in.Imm],
			b: int32(len(ft.Params)), imm: uint64(len(ft.Results)) | uint64(icIdx)<<16,
		})
		lo.push(len(ft.Results))
		return nil
	case wasm.OpDrop:
		lo.emit(cinstr{op: uint16(wasm.OpDrop)})
		return lo.pop(1)
	case wasm.OpSelect:
		lo.emit(cinstr{op: iSelect})
		return lo.pop(2)
	case wasm.OpLocalGet:
		lo.emit(cinstr{op: uint16(wasm.OpLocalGet), a: int32(in.Imm)})
		lo.push(1)
		return nil
	case wasm.OpLocalSet:
		lo.emit(cinstr{op: uint16(wasm.OpLocalSet), a: int32(in.Imm)})
		return lo.pop(1)
	case wasm.OpLocalTee:
		lo.emit(cinstr{op: uint16(wasm.OpLocalTee), a: int32(in.Imm)})
		return nil
	case wasm.OpGlobalGet:
		lo.emit(cinstr{op: iGlobalGet, a: int32(in.Imm)})
		lo.push(1)
		return nil
	case wasm.OpGlobalSet:
		lo.emit(cinstr{op: iGlobalSet, a: int32(in.Imm)})
		return lo.pop(1)
	case wasm.OpMemorySize:
		lo.emit(cinstr{op: iMemorySize})
		lo.push(1)
		return nil
	case wasm.OpMemoryGrow:
		lo.emit(cinstr{op: iMemoryGrow})
		return nil // pops 1, pushes 1
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		lo.emit(cinstr{op: iConst, imm: in.Imm})
		lo.push(1)
		return nil
	}

	if _, width, store, ok := wasm.MemOpShape(in.Op); ok {
		depth := int32(1)
		npop, npush := 1, 1
		if store {
			depth = 2
			npop, npush = 2, 0
		}
		switch lo.cfg.Bounds {
		case BoundsSoftware, BoundsMPX:
			// Statically proven accesses skip the check instruction.
			lo.cm.analysisStats.ChecksTotal++
			if lo.facts.SafeAccess(lo.fnIdx, lo.idx) {
				lo.cm.analysisStats.ChecksElided++
			} else if lo.cfg.Bounds == BoundsSoftware {
				lo.emit(cinstr{op: iBoundsCheck, a: int32(width), b: depth, imm: in.Imm})
			} else {
				lo.emit(cinstr{op: iMPXCheck, a: int32(width), b: depth, imm: in.Imm})
			}
		}
		lo.emit(cinstr{op: uint16(in.Op), imm: in.Imm})
		if err := lo.pop(npop); err != nil {
			return err
		}
		lo.push(npush)
		return nil
	}

	if sig, _, ok := wasm.NumericSig(in.Op); ok {
		lo.emit(cinstr{op: uint16(in.Op)})
		if err := lo.pop(len(sig)); err != nil {
			return err
		}
		lo.push(1)
		return nil
	}
	return fmt.Errorf("unhandled opcode %s", in.Op)
}

func (lo *lowerer) emitCallOverhead() {
	for i := 0; i < lo.cfg.CallOverheadNops; i++ {
		lo.emit(cinstr{op: iNop})
	}
}
