// Package analysis is the engine's static-analysis pipeline: it runs over a
// validated wasm.Module after wasm.Validate and before lowering, and produces
// per-instruction and per-function facts the AoT pre-compiler uses to remove
// dynamic safety checks whose conditions are provable at compile time.
//
// Three cooperating passes (see docs/ANALYSIS.md for the soundness argument):
//
//   - Memory safety (memsafe.go): an abstract interpretation of address
//     operands combining unsigned-interval tracking (constants, local+const
//     offsets, induction variables bounded by a dominating loop compare)
//     with available-check elimination (a second access to an address
//     expression already proven in bounds needs no new check, because linear
//     memory only grows). Accesses marked safe let the compiler skip the
//     iBoundsCheck/iMPXCheck instruction in BoundsSoftware/BoundsMPX mode.
//     Those two strategies are the facts' only reader, so the engine sets
//     Params.SkipMemSafety under BoundsGuard (the default),
//     BoundsSoftwareFused and BoundsNone, and the pass does not run there.
//
//   - Stack certification (stack.go): a call-graph pass computing the
//     worst-case frame depth of every defined function. Entry points whose
//     depth is bounded (no reachable recursion) can be certified, letting
//     the VM skip per-call stack-growth and depth probes. Functions in or
//     reaching a recursive SCC stay on the dynamic-probe path.
//
//   - CFI verification (cfi.go): checks every call_indirect site against
//     the canonical type table and statically devirtualizes monomorphic
//     sites — sites whose signature matches exactly one table slot holding
//     a defined function — replacing the inline-cache dispatch.
//
// The package depends only on internal/wasm; facts are keyed by (defined
// function index, structured body instruction index), which is exactly the
// iteration order of the engine's lowerer.
package analysis

import (
	"sort"

	"sledge/internal/wasm"
)

// Params carries the module-independent inputs of the analysis and which of
// its passes the caller will read.
type Params struct {
	// MinMemBytes is the module's minimum linear-memory size in bytes;
	// addresses proven below it are in bounds for the life of the instance
	// (linear memory never shrinks).
	MinMemBytes uint64
	// MaxCallDepth is the engine's configured frame limit; entry points are
	// only certified when their worst-case depth fits under it.
	MaxCallDepth int
	// SkipMemSafety leaves out the memory-safety pass, for a caller that
	// will not ask SafeAccess: it then reports false everywhere, and
	// Report.MemAccesses/SafeAccesses are 0. CFI and stack certification
	// run regardless.
	SkipMemSafety bool
}

// Devirt is a statically devirtualized call_indirect site: the site's type
// matches exactly one table slot, which holds a defined function.
type Devirt struct {
	// TableIdx is the single table slot whose canonical type matches.
	TableIdx uint32
	// FuncIdx is that slot's target in the module function index space.
	// It is always a defined (non-imported) function.
	FuncIdx uint32
}

// funcFacts holds per-instruction facts for one defined function, keyed by
// index into the structured Body slice.
type funcFacts struct {
	safe   []uint64     // bitset: bit i set = the access at body index i is safe
	devirt []devirtSite // ascending by instr
}

type devirtSite struct {
	instr int
	Devirt
}

// Facts is the result of Analyze.
type Facts struct {
	fns []funcFacts

	// MaxFrames[i] is the worst-case call-frame count of a call rooted at
	// defined function i, including its own frame; Unbounded when the
	// function is part of or can reach a recursive SCC.
	MaxFrames []int
	// Edges[i] lists the defined functions i can call, directly or through
	// any type-compatible table slot (deduplicated).
	Edges [][]int

	Report Report
}

// Unbounded marks a function whose worst-case frame depth is not statically
// bounded (recursion).
const Unbounded = -1

// Report summarizes what the analysis proved, for stats export.
type Report struct {
	// MemAccesses counts linear-memory accesses seen in live code; 0, not
	// computed, under Params.SkipMemSafety.
	MemAccesses int
	// SafeAccesses counts accesses proven in bounds; 0, not computed, under
	// Params.SkipMemSafety.
	SafeAccesses int
	// IndirectSites counts call_indirect sites.
	IndirectSites int
	// DevirtSites counts sites statically devirtualized.
	DevirtSites int
	// DeadSites counts call_indirect sites whose type matches no table
	// slot: every execution traps. They are left on the dynamic path so
	// the trap code stays exact, but flagged here for diagnostics.
	DeadSites int
	// UnboundedFuncs counts defined functions with Unbounded frame depth.
	UnboundedFuncs int
}

// SafeAccess reports whether the memory access at body index instr of
// defined function fn is provably in bounds.
func (f *Facts) SafeAccess(fn, instr int) bool {
	if f == nil || fn >= len(f.fns) {
		return false
	}
	safe := f.fns[fn].safe
	return instr >= 0 && instr>>6 < len(safe) && safe[instr>>6]>>(instr&63)&1 != 0
}

// DevirtAt returns the devirtualization decision for the call_indirect at
// body index instr of defined function fn.
func (f *Facts) DevirtAt(fn, instr int) (Devirt, bool) {
	if f == nil || fn >= len(f.fns) {
		return Devirt{}, false
	}
	sites := f.fns[fn].devirt
	i := sort.Search(len(sites), func(i int) bool { return sites[i].instr >= instr })
	if i == len(sites) || sites[i].instr != instr {
		return Devirt{}, false
	}
	return sites[i].Devirt, true
}

// FrameBound returns the worst-case frame depth of defined function fn and
// whether it is statically bounded.
func (f *Facts) FrameBound(fn int) (int, bool) {
	if f == nil || fn >= len(f.MaxFrames) || f.MaxFrames[fn] == Unbounded {
		return 0, false
	}
	return f.MaxFrames[fn], true
}

// safeWords is the length of f's safe-access bitset: one bit per body index.
func safeWords(f *wasm.Func) int { return (len(f.Body) + 63) / 64 }

// Analyze runs the pipeline over a validated module: every pass, unless p
// leaves the memory-safety pass out. The module must have passed
// wasm.Validate: the passes rely on its stack discipline and in-range
// indices and do not re-verify them.
func Analyze(m *wasm.Module, p Params) *Facts {
	f := &Facts{fns: make([]funcFacts, len(m.Funcs))}
	table, canon, exact := buildTable(m)
	if !p.SkipMemSafety {
		// One allocation backs every function's safe-access bitset.
		words := 0
		for i := range m.Funcs {
			words += safeWords(&m.Funcs[i])
		}
		bits := make([]uint64, words)
		w := walkerPool.Get().(*mwalker)
		for i := range m.Funcs {
			n := safeWords(&m.Funcs[i])
			f.fns[i].safe, bits = bits[:n:n], bits[n:]
			w.analyze(m, &m.Funcs[i], p.MinMemBytes, f.fns[i].safe, &f.Report)
		}
		w.retire()
	}
	for i := range m.Funcs {
		f.fns[i].devirt = analyzeCFI(m, &m.Funcs[i], table, canon, exact, &f.Report)
	}
	analyzeStack(m, table, canon, exact, f)
	return f
}
