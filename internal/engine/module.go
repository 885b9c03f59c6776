package engine

import (
	"errors"
	"fmt"

	"sledge/internal/analysis"
	"sledge/internal/wasm"
)

// Internal opcodes. Values below 0x100 reuse the wasm.Opcode encoding for
// numeric, comparison, conversion and memory-access instructions; control
// flow, moves and the fused forms are the opcodes below.
//
// Executed code is in slot-operand register form (regalloc.go): every
// operand and result is named by a frame-relative slot, R[s] =
// stack[frame.base+s]. Slots below nLocals are the locals, the rest are the
// operand registers (the canonical home of operand-stack depth k is slot
// nLocals+k), and an instruction is free to name either kind, so one
// handler serves `x op y` whether x and y are locals, operand registers or
// one of each, and writes a local or an operand register alike. Unless
// noted, h is the destination slot and a, b the source slots:
//
//	numeric binary/unary   R[h] = R[a] op R[b]  /  R[h] = op R[a]
//	loads                  R[h] = mem[R[a] + imm]
//	stores                 mem[R[a] + imm] = R[b]
//
// regalloc.run emits this form in one walk over the wasm body;
// local.get/local.set/local.tee/drop and constants emit nothing of their
// own unless a value has to be materialised (iMov, iConst).
const (
	iUnreachable uint16 = 0x100 + iota
	iNop
	// Branches. Every instruction that carries a target pc in a — iBr,
	// iBrIf/iBrIfNot and the twenty compare-and-branch forms below — pays
	// the gas charge its edge leads to itself, so that a charge is a
	// dispatched instruction only where control falls into it. The top half
	// of imm holds the two costs: bits 32..47 what the taken edge pays, in
	// which case a is one past the iGasCharge the source branch targets;
	// bits 48..63 what falling through pays, in which case the charge that
	// followed was not emitted. Zero where the edge pays nothing (no charge
	// there, a charge something else can reach, a br_table entry, fusion
	// off, or a module whose charges do not fit 16 bits). See regalloc.go.
	//
	// iBr: a = target pc. When the result arity (imm bits 0..31) is nonzero
	// the results move from slots b.. to slots h..; the lowerer zeroes it
	// when source and destination coincide, so a branch that moves nothing
	// touches no slot.
	iBr
	// iBrIf / iBrIfNot: branch when R[b] != 0 / == 0. a = target pc, imm
	// bits 0..31 = arity, zero when nothing moves. When it is not, the
	// condition sits in its canonical slot, directly above the results: they
	// move from slots b-arity.. to slots h...
	iBrIf
	iBrIfNot
	// iBrTable: a = index into the function's brTables, b = slot of the
	// selector, h = slot one past the carried results (their source).
	iBrTable
	iReturn // results R[a..a+imm) move to the frame base; imm = arity
	// Calls take their arguments from canonical slots: h is the frame top
	// (one past the last argument, or past the table index for the indirect
	// forms), so the callee's frame starts at h - params.
	iCall         // a = defined-function index
	iCallHost     // a = host-binding index, b = result arity
	iCallIndirect // a = canonical type id, b = param count, imm = result arity | IC slot<<16
	// iCallDevirt is a statically devirtualized call_indirect: the analysis
	// proved exactly one table slot matches the site's signature. a = defined
	// callee index, b = the expected table index; imm packs result arity
	// (bits 0..15), param count (bits 16..31), and the canonical type id
	// (bits 32..63). A runtime index other than b cannot dispatch anywhere —
	// every other slot fails the CFI check — so the mismatch path only has
	// to reproduce the exact trap (OOB / null / signature).
	iCallDevirt
	iConst     // R[h] = imm
	iMov       // R[h] = R[a]
	iGlobalGet // R[h] = global[a]
	iGlobalSet // global[a] = R[b]
	iSelect    // R[h] = R[a] if R[imm] != 0 else R[b]
	// iBoundsCheck: a = access width, b = slot of the address, imm = static
	// offset.
	iBoundsCheck
	// iMPXCheck: same layout as iBoundsCheck, simulating MPX bounds
	// registers (bounds-table loads + two compares + scratch store).
	iMPXCheck
	iMemorySize // R[h] = pages
	iMemoryGrow // R[h] = grow(R[a])

	// Immediate forms, where the dispatch histogram earns one (docs/PERF.md
	// §13): the constant rides in imm instead of being moved into a slot.
	iI32AddI // R[h] = R[a] + imm (also i32.sub by a constant, and x += c)
	iI32MulI // R[h] = R[a] * imm
	// Superinstructions: an i32 multiply-by-constant or add whose result
	// the next add, or byte load, consumes (regalloc.go's pending entries).
	iI32MulAddI // R[h] = R[a]*imm + R[b], the row-major index step
	iI32Add3    // R[h] = R[a] + R[b] + R[imm]
	iI32Load8UX // R[h] = mem8u[R[a] + R[b] + imm], the add wrapping as i32
	// iBrIf<cmp>: an i32 comparison fused with the conditional branch it
	// feeds (br_if, and the inverted sense for `if` and `i32.eqz; br_if`):
	// branch to a when R[b] <cmp> R[h]. Fused only when the branch moves no
	// results, so the form carries no move.
	iBrIfEq
	iBrIfNe
	iBrIfLtS
	iBrIfLtU
	iBrIfGtS
	iBrIfGtU
	iBrIfLeS
	iBrIfLeU
	iBrIfGeS
	iBrIfGeU
	// iBrIf<cmp>I: the same against a constant: R[b] <cmp> imm — the header
	// of every `for (i = 0; i < N; ...)`.
	iBrIfEqI
	iBrIfNeI
	iBrIfLtSI
	iBrIfLtUI
	iBrIfGtSI
	iBrIfGtUI
	iBrIfLeSI
	iBrIfLeUI
	iBrIfGeSI
	iBrIfGeUI
	// iGasCharge is the amortized fuel charge at a charge point (see
	// internal/analysis.AnalyzeCost). imm holds the region's static cost.
	// The lowering places one immediately before the lowered form of each
	// anchor instruction, which is exactly where labels land, so every
	// entry into the region pays it; it has no stack effect. What reaches
	// runRegister is a charge only where control falls into one: regalloc
	// sums two adjacent charges when no label falls between them (both
	// always execute together), folds the charge a conditional
	// branch falls into, when nothing else can reach it, into that branch,
	// and retargets every branch to a charge one past it with the cost in
	// the branch word (see "Branches" above). No region moves, merges across
	// a label or splits: each path pays the same costs at the same points.
	iGasCharge
	// iOpLimit is one past the last internal opcode.
	iOpLimit
)

// cinstr is one lowered instruction, 24 bytes. top is the frame-relative
// top of the operand stack (nLocals + static operand height) before the
// instruction executes. The hot paths never read it: it is what
// Instance.sp is set from when control leaves the loop (yield, trap), and
// it occupies what was struct padding. A frame too large for 16 bits keeps
// its tops in compiledFunc.tops instead (see topAt).
type cinstr struct {
	op  uint16
	top uint16
	a   int32
	b   int32
	h   int32
	imm uint64
}

// brTarget is one resolved br_table entry: height is the destination slot
// of the moved results, and arity is zero when they are already in place.
// (A br_table nothing reaches keeps a table too, with the kept operand
// height and the label's arity as they are.)
type brTarget struct {
	pc     int32
	height int32
	arity  int32
}

// compiledFunc is a lowered function body plus execution metadata.
type compiledFunc struct {
	name        string
	typeIdx     uint32
	nParams     int
	nLocals     int // includes params
	numResults  int
	maxStack    int          // max operand-stack height beyond locals
	code        []cinstr     // TierOptimized, register form (see regalloc.go)
	naiveBody   []wasm.Instr // TierNaive
	naiveLabels []uint32     // TierNaive br_table label pool
	// naiveCharges is the TierNaive charge table: dense, indexed by
	// structured-body pc, applied at fetch. Same costs the optimized tiers
	// embed as iGasCharge, so gas is bit-identical across tiers.
	naiveCharges []uint32
	brTables     [][]brTarget
	// tops replaces cinstr.top, index for index, in the rare function whose
	// frame (locals + operand stack) does not fit 16 bits; nil otherwise.
	tops []int32
}

// topAt returns the frame-relative top of the operand stack before code[pc]
// executes. Cold: read only when a run leaves the loop.
func (f *compiledFunc) topAt(pc int) int {
	if f.tops != nil {
		return int(f.tops[pc])
	}
	return int(f.code[pc].top)
}

// Where a branch word keeps the charges its edges pay, and the largest one
// it can hold.
const (
	takenShift  = 32
	fallShift   = 48
	maxEdgeCost = 0xFFFF
)

// branchPops returns how many operands a conditional branch consumes — one
// condition, or the two sides of a fused comparison — and zero for anything
// else. Its fall-through edge leaves the frame top that much lower.
func branchPops(op uint16) int {
	switch {
	case op == iBrIf || op == iBrIfNot:
		return 1
	case op >= iBrIfEq && op <= iBrIfGeUI:
		return 2
	}
	return 0
}

// paidTop returns the frame-relative top at the charge that was just paid
// with pc next to run: the iGasCharge at pc-1 — dispatched, or skipped by
// the branch that paid it — or else the unemitted one folded into the
// conditional branch at pc-1, whose top is that of the branch's fall-through
// (regalloc folds a charge only where this holds). A charge has no stack
// effect, so that is the resume point's top. Cold: read only at a yield.
func (f *compiledFunc) paidTop(pc int) int {
	return f.topAt(pc-1) - branchPops(f.code[pc-1].op)
}

type hostBinding struct {
	module, name string
	fn           HostFunc
	ft           wasm.FuncType
}

type dataSeg struct {
	offset uint32
	bytes  []byte
}

type tableEntry struct {
	// funcIdx is an index into the module function index space
	// (imports first); -1 marks an uninitialized element.
	funcIdx int32
	// canonType is the canonicalized type id used for CFI checks.
	canonType int32
}

// CompiledModule is the output of Compile: the analog of aWsm's AoT-compiled
// shared object. It is immutable and safely shared by any number of
// concurrently executing Instances.
type CompiledModule struct {
	cfg         Config
	types       []wasm.FuncType
	canonTypes  []int32 // canonical id per type index
	funcs       []compiledFunc
	hostFuncs   []hostBinding
	numImports  int
	globalInit  []uint64
	globalTypes []wasm.GlobalType
	table       []tableEntry
	memLimits   wasm.Limits
	maxPages    uint32
	dataSegs    []dataSeg
	exports     map[string]uint32 // name -> function index space index
	startIdx    int64
	// explicitChecks selects fused in-handler software bounds checks.
	explicitChecks bool
	sourceSize     int
	lowerStats     LowerStats

	// minMemBytes/dataEnd are precomputed for the instance-recycling reset
	// path: dataEnd is one past the highest byte any data segment writes,
	// so a reset only re-zeroes [0, dirty) and replays [0, dataEnd).
	minMemBytes int
	dataEnd     uint32
	// numICSites counts call_indirect sites; each lowered site is assigned
	// a per-instance monomorphic inline-cache slot.
	numICSites int
	// certs holds the stack certificates computed from the analysis call
	// graph: defined functions whose worst-case frame depth and operand
	// stack size are statically bounded. Entry points found here skip the
	// per-call stack-growth and depth probes (see Instance.startIndex).
	certs map[int32]stackCert
	// analysisStats summarizes what the static analysis proved and what
	// the lowerer did with it; exported via /__stats.
	analysisStats AnalysisStats
	// regallocStats summarizes the regalloc pass; exported via /__stats.
	regallocStats RegallocStats
	// typicalStack/typicalFrames are the pool-retention targets: the
	// largest stack/frame reservation any certified entry point (or any
	// single frame) of this module needs. A released instance whose slabs
	// grew far beyond these — one deep recursive request, say — is shrunk
	// back on pool put instead of pinning its high-water allocation for
	// the pool's lifetime. See resetForReuse.
	typicalStack  int
	typicalFrames int
	// pool recycles Instances (linear memory, operand stack, frames) so
	// steady-state invocation allocates nothing. See pool.go.
	pool instancePool
	// snap is the post-init snapshot captured after the start function ran
	// once at compile time, or nil when the module has none. The cache may
	// drop it (DropSnapshot) as a demotion rung, so loads go through the
	// atomic pointer. See snapshot.go.
	snap snapField
}

// stackCert is a per-entry-point stack certificate: the worst-case number
// of call frames (own frame included) and operand-stack slots any call
// rooted at the function can use.
type stackCert struct {
	frames int
	values int
}

// AnalysisStats summarizes the static-analysis pipeline's results for one
// compiled module. The elision/devirt fields are all zero when analysis is
// disabled (NoAnalysis or the naive tier); the cost-analysis fields
// (ChargePoints, MaxBlockCost) are filled for every tier and configuration,
// because gas metering is part of execution semantics, not an optimization.
type AnalysisStats struct {
	// MemAccesses / SafeAccesses count live linear-memory accesses and how
	// many the analysis proved in bounds. The memory-safety pass runs only
	// for BoundsSoftware / BoundsMPX, whose lowering reads its facts; under
	// the other strategies both are 0, not computed.
	MemAccesses  int `json:"mem_accesses"`
	SafeAccesses int `json:"safe_accesses"`
	// ChecksTotal / ChecksElided count bounds-check instructions the
	// configured strategy would emit and how many were statically elided
	// (nonzero only for BoundsSoftware / BoundsMPX).
	ChecksTotal  int `json:"bounds_checks_total"`
	ChecksElided int `json:"bounds_checks_elided"`
	// IndirectSites / DevirtSites / DeadSites count call_indirect sites,
	// sites statically devirtualized, and sites whose signature matches no
	// table slot (every execution traps).
	IndirectSites int `json:"indirect_call_sites"`
	DevirtSites   int `json:"devirtualized_call_sites"`
	DeadSites     int `json:"dead_indirect_call_sites"`
	// CertifiedFuncs counts defined functions with a bounded worst-case
	// frame depth; UnboundedFuncs those in or reaching recursion.
	// MaxCertFrames is the largest certified frame depth in the module.
	CertifiedFuncs int `json:"certified_funcs"`
	UnboundedFuncs int `json:"unbounded_funcs"`
	MaxCertFrames  int `json:"max_certified_frames"`
	// ChargePoints counts the gas charge points the cost analysis placed
	// across the module; MaxBlockCost is the largest single region charge
	// (bounded by Config.MaxUncharged plus one instruction weight), i.e.
	// the module's worst-case gas between consecutive charges.
	ChargePoints int `json:"charge_points"`
	MaxBlockCost int `json:"max_block_cost"`
}

// RegallocStats summarizes the register-allocation pass for one compiled
// module. All zero for the naive tier, which never lowers.
type RegallocStats struct {
	// Enabled reports whether the module runs in register form (every
	// optimized-tier module does).
	Enabled bool `json:"enabled"`
	// Registers is the largest per-frame register file in the module:
	// locals plus the maximum static operand height of any function.
	Registers int `json:"registers"`
	// OperandsForwarded counts operands a consumer read where they already
	// were — a local named directly as a source slot, or a constant taken
	// as an immediate — instead of from a slot a local.get/const filled.
	OperandsForwarded int `json:"operands_forwarded"`
	// ResultsForwarded counts results written straight into the local the
	// following local.set/tee names.
	ResultsForwarded int `json:"results_forwarded"`
	// Materialised counts the moves that were still needed: a pending
	// local or constant copied into its canonical operand slot because its
	// consumer has no slot form for it, or a control-flow edge, call or
	// write to that local intervened. With fusion off it counts every push.
	Materialised int `json:"materialised"`
	// ChargesMerged counts gas charges summed into the one before them.
	ChargesMerged int `json:"charges_merged"`
	// ChargesAbsorbed counts the branch edges that pay a charge themselves:
	// taken edges retargeted one past the charge they led to, and charges
	// folded into the conditional branch that falls into them (those are
	// not emitted). AnalysisStats.ChargePoints still counts source regions.
	ChargesAbsorbed int `json:"charges_absorbed"`
	// BranchFused counts i32 comparisons (and i32.eqz) fused into the
	// conditional branch they feed.
	BranchFused int `json:"branch_fused"`
	// DropsEliminated counts drops deleted outright: in register form a
	// drop is pure height bookkeeping and compiles to nothing.
	DropsEliminated int `json:"drops_eliminated"`
	// Spills is always 0: the frame slab is the register file, so every
	// virtual register has a home slot and nothing ever spills. Reported
	// explicitly so the stats endpoint documents the invariant.
	Spills int `json:"spills"`
}

// LowerStats reports work done during compilation, used by the memory
// footprint and churn experiments.
type LowerStats struct {
	// Instructions is the total lowered instruction count.
	Instructions int
	// Funcs is the number of defined functions.
	Funcs int
	// ObjectBytes approximates the compiled object size in bytes.
	ObjectBytes int
}

// Config returns the configuration the module was compiled with.
func (cm *CompiledModule) Config() Config { return cm.cfg }

// Stats returns compilation statistics.
func (cm *CompiledModule) Stats() LowerStats { return cm.lowerStats }

// Analysis returns the static-analysis summary for this module.
func (cm *CompiledModule) Analysis() AnalysisStats { return cm.analysisStats }

// Regalloc returns the register-allocation summary for this module.
func (cm *CompiledModule) Regalloc() RegallocStats { return cm.regallocStats }

// SourceSize returns the size in bytes of the wasm binary this module was
// compiled from (0 when compiled from an in-memory module).
func (cm *CompiledModule) SourceSize() int { return cm.sourceSize }

// ResidentBytes is the module's reclaimable memory footprint — compiled
// code, post-init snapshot, and idle pooled instances — the quantity the
// bounded module cache charges against its budget. Retained source bytes
// are excluded: they are what makes eviction reversible and are accounted
// separately.
func (cm *CompiledModule) ResidentBytes() int64 {
	return int64(cm.lowerStats.ObjectBytes) + cm.SnapshotBytes() + cm.PooledBytes()
}

// MinMemoryBytes returns the initial linear memory size.
func (cm *CompiledModule) MinMemoryBytes() int {
	return int(cm.memLimits.Min) * wasm.PageSize
}

// Exports returns the names of exported functions.
func (cm *CompiledModule) Exports() []string {
	out := make([]string, 0, len(cm.exports))
	for name := range cm.exports {
		out = append(out, name)
	}
	return out
}

// ErrImport reports an unresolvable or unsupported import.
var ErrImport = errors.New("engine: unresolvable import")

// HostFunc implements a host (runtime) function callable from the sandbox.
// args holds the raw operand values; the return value is used only when the
// declared signature has a result. Returning ErrHostBlock parks the sandbox
// until the pending I/O completes (see Instance.ResumeHost).
type HostFunc func(inst *Instance, args []uint64) (uint64, error)

// ErrHostBlock is returned by host functions that started asynchronous I/O:
// the instance leaves Run with StatusBlocked and must be resumed with
// ResumeHost once a completion is available.
var ErrHostBlock = errors.New("engine: host function blocked on async I/O")

// HostDef declares one host function with its wasm-visible signature.
type HostDef struct {
	Func HostFunc
	Type wasm.FuncType
}

// HostRegistry maps import module/name pairs to host definitions.
type HostRegistry map[string]map[string]HostDef

// Compile validates m and lowers it into a CompiledModule, resolving
// function imports against host. This is the expensive per-module step
// (aWsm compilation + dlopen in the paper); instantiation afterwards is
// microsecond-scale.
func Compile(m *wasm.Module, host HostRegistry, cfg Config) (*CompiledModule, error) {
	cfg = cfg.withDefaults()
	if err := wasm.Validate(m); err != nil {
		return nil, err
	}

	cm := &CompiledModule{
		cfg:            cfg,
		types:          m.Types,
		exports:        make(map[string]uint32),
		startIdx:       m.Start,
		maxPages:       cfg.MaxMemoryPages,
		explicitChecks: cfg.Bounds == BoundsSoftwareFused,
	}

	// Canonicalize type indices so call_indirect CFI compares structural
	// signatures, not raw indices.
	cm.canonTypes = make([]int32, len(m.Types))
	for i, t := range m.Types {
		cm.canonTypes[i] = int32(i)
		for j := 0; j < i; j++ {
			if m.Types[j].Equal(t) {
				cm.canonTypes[i] = int32(j)
				break
			}
		}
	}

	// Resolve imports. Only function imports are supported by the engine;
	// the serverless ABI never imports tables, memories, or globals.
	for _, imp := range m.Imports {
		switch imp.Kind {
		case wasm.ExternFunc:
			mod, ok := host[imp.Module]
			var def HostDef
			if ok {
				def, ok = mod[imp.Name]
			}
			if !ok {
				return nil, fmt.Errorf("%w: %s.%s", ErrImport, imp.Module, imp.Name)
			}
			if !def.Type.Equal(m.Types[imp.TypeIdx]) {
				return nil, fmt.Errorf("%w: %s.%s: signature %s, host provides %s",
					ErrImport, imp.Module, imp.Name, m.Types[imp.TypeIdx], def.Type)
			}
			cm.hostFuncs = append(cm.hostFuncs, hostBinding{
				module: imp.Module, name: imp.Name, fn: def.Func, ft: def.Type,
			})
		default:
			return nil, fmt.Errorf("%w: %s.%s: %s imports are not supported",
				ErrImport, imp.Module, imp.Name, imp.Kind)
		}
	}
	cm.numImports = len(cm.hostFuncs)

	// Globals: evaluate constant initializers once.
	cm.globalInit = make([]uint64, len(m.Globals))
	cm.globalTypes = make([]wasm.GlobalType, len(m.Globals))
	for i, g := range m.Globals {
		cm.globalTypes[i] = g.Type
		// A global.get initializer references an imported global (the only
		// kind validation admits in const exprs), and global imports were
		// rejected above — but guard explicitly so Init.Imm is never
		// misread as a value when it is a global index.
		if g.Init.Op == wasm.OpGlobalGet {
			return nil, fmt.Errorf("%w: global %d: global.get initializers are not supported",
				ErrImport, i)
		}
		cm.globalInit[i] = g.Init.Imm
	}

	if len(m.Memories) > 0 {
		cm.memLimits = m.Memories[0]
		if cm.memLimits.HasMax && cm.memLimits.Max < cm.maxPages {
			cm.maxPages = cm.memLimits.Max
		}
		if cm.memLimits.Min > cm.maxPages {
			return nil, fmt.Errorf("engine: module min memory %d pages exceeds engine cap %d",
				cm.memLimits.Min, cm.maxPages)
		}
	}

	// Data segments, pre-resolved for single-pass instantiation. Offsets
	// must be i32.const: a global.get offset's Imm is a global index, not
	// an offset, and the imported global it references is unsupported.
	for i, seg := range m.Data {
		if seg.Offset.Op != wasm.OpI32Const {
			return nil, fmt.Errorf("%w: data segment %d: non-constant offsets are not supported",
				ErrImport, i)
		}
		off := uint32(seg.Offset.Imm)
		if uint64(off)+uint64(len(seg.Bytes)) > uint64(cm.memLimits.Min)*wasm.PageSize {
			return nil, fmt.Errorf("engine: data segment %d out of bounds", i)
		}
		cm.dataSegs = append(cm.dataSegs, dataSeg{offset: off, bytes: seg.Bytes})
		if end := off + uint32(len(seg.Bytes)); end > cm.dataEnd {
			cm.dataEnd = end
		}
	}
	cm.minMemBytes = int(cm.memLimits.Min) * wasm.PageSize

	// Table: MVP tables are immutable after element initialization, so one
	// shared table serves all instances.
	if len(m.Tables) > 0 {
		cm.table = make([]tableEntry, m.Tables[0].Min)
		for i := range cm.table {
			cm.table[i] = tableEntry{funcIdx: -1, canonType: -1}
		}
	}
	for i, seg := range m.Elems {
		if seg.Offset.Op != wasm.OpI32Const {
			return nil, fmt.Errorf("%w: element segment %d: non-constant offsets are not supported",
				ErrImport, i)
		}
		off := int(uint32(seg.Offset.Imm))
		if off+len(seg.FuncIndices) > len(cm.table) {
			return nil, fmt.Errorf("engine: element segment %d out of bounds", i)
		}
		for j, fi := range seg.FuncIndices {
			ft, err := m.FuncTypeAt(fi)
			if err != nil {
				return nil, err
			}
			canon := int32(-1)
			for ti, t := range m.Types {
				if t.Equal(ft) {
					canon = cm.canonTypes[ti]
					break
				}
			}
			cm.table[off+j] = tableEntry{funcIdx: int32(fi), canonType: canon}
		}
	}

	// Static analysis: runs between validation and lowering, in the
	// optimized tier only. The lowerer consults the facts to devirtualize
	// indirect calls and, where the strategy emits a check instruction, to
	// elide bounds checks — the memory-safety pass runs only there; the
	// certificates computed below let instantiation skip per-call stack
	// probes.
	var facts *analysis.Facts
	if cfg.Tier == TierOptimized && !cfg.NoAnalysis {
		facts = analysis.Analyze(m, analysis.Params{
			MinMemBytes:   uint64(cm.minMemBytes),
			MaxCallDepth:  cfg.MaxCallDepth,
			SkipMemSafety: !cfg.readsAccessFacts(),
		})
		cm.analysisStats.MemAccesses = facts.Report.MemAccesses
		cm.analysisStats.SafeAccesses = facts.Report.SafeAccesses
		cm.analysisStats.IndirectSites = facts.Report.IndirectSites
		cm.analysisStats.DevirtSites = facts.Report.DevirtSites
		cm.analysisStats.DeadSites = facts.Report.DeadSites
		cm.analysisStats.UnboundedFuncs = facts.Report.UnboundedFuncs
	}

	// Cost analysis runs for every tier and configuration: the charge
	// tables it computes define gas, which must be bit-identical across
	// engine configs (it feeds tenant budgets and billing-grade stats).
	costs := analysis.AnalyzeCost(m, analysis.CostParams{MaxUncharged: cfg.MaxUncharged})
	cm.analysisStats.ChargePoints = costs.Points()
	cm.analysisStats.MaxBlockCost = int(costs.MaxCharge())

	// Lower function bodies: one walk per body emits the slot-operand
	// register form, the only form runRegister executes (regalloc.go). The
	// pass and its scratch come off a pool, so a deploy allocates per
	// function only the code it keeps. The naive tier never lowers.
	var ra *regalloc
	if cfg.Tier != TierNaive {
		fuse := !cfg.NoFusion && cfg.PerInstrNops == 0
		// A branch word has 16 bits for each charge it pays: thread only
		// where every charge, and every sum of adjacent ones, is sure to fit.
		thread := fuse && cfg.MaxUncharged <= maxEdgeCost && costs.MaxCharge() <= maxEdgeCost
		ra = newRegalloc(cm, m, facts, fuse, thread)
		defer ra.retire()
	}
	cm.funcs = make([]compiledFunc, len(m.Funcs))
	for i := range m.Funcs {
		f, cf := &m.Funcs[i], &cm.funcs[i]
		ft := m.Types[f.TypeIdx]
		*cf = compiledFunc{
			name:       f.Name,
			typeIdx:    f.TypeIdx,
			nParams:    len(ft.Params),
			nLocals:    len(ft.Params) + len(f.Locals),
			numResults: len(ft.Results),
		}
		if cfg.Tier == TierNaive {
			cf.naiveBody = f.Body
			cf.naiveLabels = f.BrLabels
			cf.naiveCharges = costs.Funcs[i].Charges
			continue
		}
		if err := ra.run(cf, f, costs.Funcs[i].Charges, i); err != nil {
			return nil, fmt.Errorf("engine: lower func %d (%s): %w", i, f.Name, err)
		}
		cm.lowerStats.Instructions += len(cf.code)
		if r := cf.nLocals + cf.maxStack; r > cm.regallocStats.Registers {
			cm.regallocStats.Registers = r
		}
	}
	cm.regallocStats.Enabled = cfg.Tier == TierOptimized

	cm.buildStackCerts(facts)
	cm.computeRetention()
	cm.lowerStats.Funcs = len(cm.funcs)
	cm.lowerStats.ObjectBytes = cm.objectBytes()

	for _, exp := range m.Exports {
		if exp.Kind == wasm.ExternFunc {
			cm.exports[exp.Name] = exp.Index
		}
	}
	cm.captureSnapshot()
	return cm, nil
}

// CompileBinary decodes, validates, and compiles a wasm binary.
func CompileBinary(bin []byte, host HostRegistry, cfg Config) (*CompiledModule, error) {
	m, err := wasm.Decode(bin)
	if err != nil {
		return nil, err
	}
	cm, err := Compile(m, host, cfg)
	if err != nil {
		return nil, err
	}
	cm.sourceSize = len(bin)
	return cm, nil
}

// buildStackCerts turns the analysis call graph into stack certificates:
// for every defined function with a bounded worst-case frame depth, the
// exact operand-stack slot count a call rooted there can use. The values
// bound mirrors the VM's per-call reservation (nLocals + maxStack + 1 per
// frame) summed along the deepest call chain, so an instance started on a
// certified entry point can reserve once and skip the per-call probes.
func (cm *CompiledModule) buildStackCerts(facts *analysis.Facts) {
	if facts == nil || len(cm.funcs) == 0 {
		return
	}
	n := len(cm.funcs)
	values := make([]int, n)
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		if facts.MaxFrames[i] == analysis.Unbounded {
			done[i] = true // never certified; no values bound needed
		}
	}
	// Iterative post-order longest-path DP over the bounded (acyclic)
	// subgraph; every callee of a bounded function is itself bounded.
	type dframe struct{ node, ci int }
	var stack []dframe
	for s := 0; s < n; s++ {
		if done[s] {
			continue
		}
		stack = append(stack[:0], dframe{s, 0})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			edges := facts.Edges[fr.node]
			if fr.ci < len(edges) {
				d := edges[fr.ci]
				fr.ci++
				if !done[d] {
					stack = append(stack, dframe{d, 0})
				}
				continue
			}
			best := 0
			for _, d := range edges {
				if facts.MaxFrames[d] != analysis.Unbounded && values[d] > best {
					best = values[d]
				}
			}
			f := &cm.funcs[fr.node]
			values[fr.node] = f.nLocals + f.maxStack + 1 + best
			done[fr.node] = true
			stack = stack[:len(stack)-1]
		}
	}
	cm.certs = make(map[int32]stackCert)
	for i := 0; i < n; i++ {
		fb, ok := facts.FrameBound(i)
		if !ok {
			continue
		}
		cm.certs[int32(i)] = stackCert{frames: fb, values: values[i]}
		cm.analysisStats.CertifiedFuncs++
		if fb > cm.analysisStats.MaxCertFrames {
			cm.analysisStats.MaxCertFrames = fb
		}
	}
}

// computeRetention derives the pool-retention targets from the certificates
// and per-function frame sizes: the largest up-front reservation Start can
// make for this module. 256 values / 16 frames are the floors the instance
// allocator uses anyway, so shrinking below them would never stick.
func (cm *CompiledModule) computeRetention() {
	typ := 256
	for i := range cm.funcs {
		if r := cm.funcs[i].nLocals + cm.funcs[i].maxStack + 1; r > typ {
			typ = r
		}
	}
	tf := 16
	for _, c := range cm.certs {
		if c.values > typ {
			typ = c.values
		}
		if c.frames > tf {
			tf = c.frames
		}
	}
	cm.typicalStack = typ
	cm.typicalFrames = tf
}

// objectBytes approximates the in-memory size of the compiled object.
func (cm *CompiledModule) objectBytes() int {
	n := 0
	for i := range cm.funcs {
		n += len(cm.funcs[i].code)*24 + len(cm.funcs[i].tops)*4
		n += len(cm.funcs[i].naiveBody) * 32
		for _, bt := range cm.funcs[i].brTables {
			n += len(bt) * 12
		}
	}
	n += len(cm.table)*8 + len(cm.globalInit)*8
	for _, seg := range cm.dataSegs {
		n += len(seg.bytes)
	}
	return n
}
