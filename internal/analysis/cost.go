package analysis

// Static cost analysis: the deterministic-gas half of the pipeline.
//
// AnalyzeCost walks each function's structured body exactly the way the
// engine's lowerer does — same live/dead tracking, same label positions —
// and partitions the live instructions into single-entry straight-line
// *regions*. Each region is assigned a static cost: the sum of a
// tier-independent per-source-instruction weight table over the region. The
// region's entry index is a **charge point**: executing the region costs its
// whole static weight, paid once, up front, at the anchor.
//
// Because the weights are defined over *source* instructions (the
// wasm.Instr stream every tier starts from), the gas charged for a given
// execution path is a pure function of (module, path): the naive structured
// interpreter and the register-form loop both observe bit-identical gas
// for the same inputs, no matter how fusion,
// check elision, or register allocation reshaped the executed code.
//
// Region boundaries (= charge points) are placed so that:
//
//   - every branch target starts a region: loop headers (index L+1 for a
//     loop at L — the back-edge landing point in both the naive interpreter
//     and the lowered stream), else-arm entries, and post-`end` merge
//     points. A region is therefore single-entry, which is what makes the
//     up-front charge exact: control either pays the whole region at its
//     anchor or never enters it. Paths that leave a region early (a taken
//     br, a trap) overcharge by the unexecuted suffix — identically in
//     every tier, preserving determinism.
//   - every call/host-call site ends a region, so re-entry after an
//     arbitrarily long callee resumes at a fresh charge point.
//   - no region's cost exceeds MaxUncharged: longer straight-line runs are
//     split mid-block. Combined with the loop-header rule (every cycle in
//     the CFG passes a back-edge anchor of cost >= 1), this bounds the gas
//     a sandbox can execute between two consecutive charges, which is
//     exactly the engine's preemption latency at charge-point granularity.
//
// The pass depends only on internal/wasm and is deliberately run for every
// tier and configuration — unlike the elision passes, gas metering is part
// of execution semantics, not an optimization.

import "sledge/internal/wasm"

// DefaultMaxUncharged is the region-cost bound used when CostParams leaves
// MaxUncharged zero. At the default weights this is a few hundred source
// instructions — far below any scheduler quantum, so charge-granularity
// preemption is indistinguishable from per-instruction preemption at the
// millisecond scale, while straight-line code pays one charge per ~256
// weight instead of one check per dispatch.
const DefaultMaxUncharged = 256

// CostParams carries the module-independent inputs of the cost analysis.
type CostParams struct {
	// MaxUncharged bounds the static cost of a single region; 0 uses
	// DefaultMaxUncharged. Splitting never changes the gas charged along a
	// completed path (region costs are additive), only how finely fuel
	// exhaustion and preemption can interleave with it.
	MaxUncharged uint64
}

// FuncCost is the per-function result: a dense charge table indexed by
// structured-body instruction index. Charges[i] != 0 means index i anchors a
// region of that static cost; the engine charges it when control reaches i
// (the naive interpreter at fetch; the lowerer through an iGasCharge emitted
// immediately before lowering body[i], which the register pass keeps as an
// instruction where control falls into it and otherwise has the branch that
// arrives there pay — same amount, same point on the path).
type FuncCost struct {
	// Charges has len(Body) entries; most are zero.
	Charges []uint32
	// Points counts the non-zero charge anchors.
	Points int
	// Total is the sum of all charges: the function's whole-body static
	// weight (each live instruction counted once).
	Total uint64
	// MaxCharge is the largest single charge in the function.
	MaxCharge uint32
}

// CostModel is the result of AnalyzeCost.
type CostModel struct {
	// Funcs is indexed by defined-function index, like Facts.
	Funcs []FuncCost
	// MaxUncharged is the effective region bound used.
	MaxUncharged uint64
}

// Points sums the charge-point count across all functions.
func (c *CostModel) Points() int {
	n := 0
	for i := range c.Funcs {
		n += c.Funcs[i].Points
	}
	return n
}

// MaxCharge returns the largest single region cost in the module — the
// module's worst-case gas between consecutive charge points (plus one
// region of any callee, which has its own entry anchor).
func (c *CostModel) MaxCharge() uint32 {
	m := uint32(0)
	for i := range c.Funcs {
		if c.Funcs[i].MaxCharge > m {
			m = c.Funcs[i].MaxCharge
		}
	}
	return m
}

// Weight is the tier-independent gas cost of one source instruction. Every
// opcode weighs at least 1 so that any CFG cycle accumulates positive cost
// (termination of fuel accounting); memory traffic, calls, and the
// long-latency numerics weigh more, roughly tracking their interpretation
// cost so one gas-per-millisecond rate stays meaningful across workloads.
func Weight(op wasm.Opcode) uint64 {
	if _, _, store, ok := wasm.MemOpShape(op); ok {
		if store {
			return 2
		}
		return 2
	}
	switch op {
	case wasm.OpCall:
		return 4
	case wasm.OpCallIndirect:
		return 6
	case wasm.OpMemoryGrow:
		return 32
	case wasm.OpI32DivS, wasm.OpI32DivU, wasm.OpI32RemS, wasm.OpI32RemU,
		wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU:
		return 3
	case wasm.OpF32Div, wasm.OpF64Div, wasm.OpF32Sqrt, wasm.OpF64Sqrt:
		return 3
	}
	return 1
}

// AnalyzeCost computes the charge table for every defined function. The
// module must have passed wasm.Validate (the pass relies on its control
// nesting being well-formed).
func AnalyzeCost(m *wasm.Module, p CostParams) *CostModel {
	max := p.MaxUncharged
	if max == 0 {
		max = DefaultMaxUncharged
	}
	cm := &CostModel{Funcs: make([]FuncCost, len(m.Funcs)), MaxUncharged: max}
	for i := range m.Funcs {
		cm.Funcs[i] = costFunc(&m.Funcs[i], max)
	}
	return cm
}

// costFunc mirrors the lowerer's single forward pass: the same dead-code
// suppression (terminal instruction -> dead until the matching else/end) and
// the same label positions, so the anchors land exactly where the lowerer
// will emit charges and where the naive interpreter's pc can arrive.
func costFunc(f *wasm.Func, maxUncharged uint64) FuncCost {
	fc := FuncCost{Charges: make([]uint32, len(f.Body))}

	record := func(anchor int, cost uint64) {
		if cost == 0 {
			return
		}
		// A region's cost is bounded by maxUncharged plus one instruction
		// weight, far below 2^32; the cast cannot truncate.
		fc.Charges[anchor] = uint32(cost)
		fc.Points++
		fc.Total += cost
		if uint32(cost) > fc.MaxCharge {
			fc.MaxCharge = uint32(cost)
		}
	}

	// depth tracks live control nesting only to mirror the lowerer's frame
	// stack; the cost pass needs no per-frame metadata because it flushes at
	// every potential label (loop header, else arm, post-end merge).
	anchor, cost := 0, uint64(0)
	dead := false
	deadDepth := 0

	flush := func(next int) {
		record(anchor, cost)
		anchor, cost = next, 0
	}

	for i := range f.Body {
		op := f.Body[i].Op
		if dead {
			switch op {
			case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
				deadDepth++
			case wasm.OpElse:
				if deadDepth == 0 {
					// Revive into the else arm: a fresh region starts at
					// the arm's first instruction, the landing point of the
					// if's false edge.
					dead = false
					anchor, cost = i+1, 0
				}
			case wasm.OpEnd:
				if deadDepth > 0 {
					deadDepth--
				} else {
					// Revive at the merge point past the closed frame.
					dead = false
					anchor, cost = i+1, 0
				}
			}
			continue
		}

		w := Weight(op)
		// Split over-long straight-line runs before they exceed the bound.
		if cost > 0 && cost+w > maxUncharged {
			flush(i)
		}
		cost += w

		switch op {
		case wasm.OpLoop:
			// The back-edge target is i+1 in the naive interpreter
			// (pc = loop.start + 1) and the post-OpLoop code position in the
			// lowered stream; both see the region anchored there on every
			// iteration. The loop opcode itself stays in the fall-in region,
			// paid once.
			flush(i + 1)
		case wasm.OpIf, wasm.OpElse, wasm.OpBrIf, wasm.OpEnd,
			wasm.OpCall, wasm.OpCallIndirect:
			// If: the then arm starts a region (the false edge skips it).
			// Else: the then arm exits here; the else arm starts a region.
			// BrIf: fall-through resumes in a fresh region (the taken edge
			// lands on some other anchor).
			// End: the merge point joins the fall-through with any forward
			// branches to this frame; both must pay the same charge next.
			// Calls: re-entry after the callee resumes at a fresh anchor.
			flush(i + 1)
		case wasm.OpBr, wasm.OpBrTable, wasm.OpReturn, wasm.OpUnreachable:
			flush(i + 1)
			dead = true
		}
	}
	// Natural function end: whatever straight-line tail remains is paid at
	// its anchor. (The lowerer's implicit end/iReturn carries no source
	// weight — the naive interpreter never fetches past the body either.)
	if !dead {
		record(anchor, cost)
	}
	return fc
}
