// Package engine is the Sledge execution engine — the reproduction's analog
// of the aWsm ahead-of-time compiler and its runtime (§3.2 of the paper).
//
// Compile lowers a decoded, validated wasm.Module into a CompiledModule: a
// flat, branch-resolved internal instruction stream with memory accesses
// specialized for a configurable bounds-check strategy. Compilation is the
// expensive "linking and loading" step done once per module; Instantiate
// then creates a sandboxed Instance in microseconds (linear memory + context
// only), reproducing the paper's decoupling of module processing from
// function instantiation.
//
// The engine offers two compilation tiers and five bounds-check strategies
// (four that check, and BoundsNone as the unchecked baseline), mirroring the
// paper's configurable HW/SW sandboxing. Execution is a
// resumable virtual machine with deterministic fuel-based preemption, which
// stands in for the paper's SIGALRM-driven user-level scheduling.
package engine

import "fmt"

// BoundsStrategy selects how linear-memory accesses are bounds-checked,
// mirroring the paper's configurable memory-safety mechanisms (§3.2).
type BoundsStrategy int

// Bounds-check strategies.
const (
	// BoundsGuard relies on a single implicit hardware-assisted bound on
	// the backing array (the analog of the paper's 4 GiB virtual-memory
	// guard regions): no explicit compare is emitted and out-of-bounds
	// accesses fault and are converted to traps.
	BoundsGuard BoundsStrategy = iota + 1
	// BoundsSoftware emits a separate explicit bounds-check instruction
	// before every access (the paper's naive software checks).
	BoundsSoftware
	// BoundsSoftwareFused performs the explicit compare inside the memory
	// access handler itself (one dispatch, check not elided) — the scheme
	// used by LLVM-based comparator runtimes with check fusion.
	BoundsSoftwareFused
	// BoundsMPX simulates Intel MPX: each access loads a bounds descriptor
	// (base/limit) from a bounds table in memory and performs two compares
	// plus a scratch bounds-register store, reproducing MPX's documented
	// cost structure.
	BoundsMPX
	// BoundsNone emits no explicit checks at all. Like the paper's
	// measurement configuration, it exists to quantify check overhead;
	// accesses beyond the current memory still fault on the backing array
	// rather than corrupting the host.
	BoundsNone
)

// String returns the configuration name used in experiment tables.
func (b BoundsStrategy) String() string {
	switch b {
	case BoundsGuard:
		return "guard"
	case BoundsSoftware:
		return "bounds-chk"
	case BoundsSoftwareFused:
		return "bounds-chk-fused"
	case BoundsMPX:
		return "mpx"
	case BoundsNone:
		return "none"
	}
	return fmt.Sprintf("bounds(%d)", int(b))
}

// Tier selects the compilation tier.
type Tier int

// Compilation tiers.
const (
	// TierOptimized performs full AoT lowering: structured control flow is
	// flattened to pre-resolved jumps, dead code is eliminated, and memory
	// accesses are specialized. This is the aWsm-class tier.
	TierOptimized Tier = iota + 1
	// TierNaive skips lowering entirely and interprets the structured
	// instruction stream, resolving branch targets by scanning at run time
	// — the fast-compile/slow-code profile of single-pass baseline
	// compilers (the Cranelift-class comparators).
	TierNaive
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierOptimized:
		return "optimized"
	case TierNaive:
		return "naive"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Config selects engine behaviour for a compiled module.
type Config struct {
	// Bounds is the memory-safety strategy. Default: BoundsGuard.
	Bounds BoundsStrategy
	// Tier is the compilation tier. Default: TierOptimized.
	Tier Tier
	// CallOverheadNops inserts the given number of no-op dispatches at
	// every function-call boundary, modelling runtimes that cross a
	// managed-language boundary per call (the Node.js-class comparator).
	CallOverheadNops int
	// PerInstrNops inserts the given number of no-op dispatches after
	// every lowered instruction, modelling codegen that executes extra
	// bookkeeping per bytecode operation (boxing and deoptimization
	// guards in JS-engine-hosted Wasm).
	PerInstrNops int
	// NoFusion disables the optimized tier's superinstruction peephole
	// (used by the fusion ablation benchmark).
	NoFusion bool
	// NoAnalysis disables the static-analysis pipeline (check elision,
	// stack certification, indirect-call devirtualization) in the
	// optimized tier. Used by the elision ablation benchmark and the
	// differential fuzzer; the naive tier never runs analysis.
	NoAnalysis bool
	// NoBlockMeter disables basic-block fuel metering and restores the
	// per-instruction `steps--` check at every dispatch. Gas is still
	// accumulated at charge points (so reported gas stays bit-identical to
	// the block-metered engines); only the fuel-consumption granularity
	// changes. Used as the metering ablation and as the conformance oracle
	// in the differential fuzzer.
	NoBlockMeter bool
	// MaxUncharged bounds the static cost of a single charge region (see
	// internal/analysis.AnalyzeCost): straight-line runs costing more are
	// split so preemption latency at charge-point granularity stays
	// bounded. 0 uses DefaultMaxUncharged. Must match across the rungs of
	// a tiering ladder for cross-tier gas continuity (NewLadder copies it).
	MaxUncharged uint64
	// NoSnapshot disables post-init snapshotting: modules with a start
	// function replay it on every instantiation and pooled reuse instead of
	// materializing from the captured post-init image. Used by the snapshot
	// ablation benchmark and the differential fuzzer (snapshot-materialized
	// execution must stay bit-identical to the replayed path).
	NoSnapshot bool
	// MaxCallDepth bounds the sandbox call stack. Default: 512 frames.
	MaxCallDepth int
	// MaxMemoryPages caps linear memory growth regardless of module
	// limits. Default: 1024 pages (64 MiB).
	MaxMemoryPages uint32
}

// Default limits applied when Config fields are zero.
const (
	DefaultMaxCallDepth   = 512
	DefaultMaxMemoryPages = 1024
	// DefaultMaxUncharged mirrors analysis.DefaultMaxUncharged; it lives
	// here too so Config consumers need not import internal/analysis.
	DefaultMaxUncharged = 256
)

func (c Config) withDefaults() Config {
	if c.Bounds == 0 {
		c.Bounds = BoundsGuard
	}
	if c.Tier == 0 {
		c.Tier = TierOptimized
	}
	if c.MaxCallDepth == 0 {
		c.MaxCallDepth = DefaultMaxCallDepth
	}
	if c.MaxMemoryPages == 0 {
		c.MaxMemoryPages = DefaultMaxMemoryPages
	}
	if c.MaxUncharged == 0 {
		c.MaxUncharged = DefaultMaxUncharged
	}
	return c
}
