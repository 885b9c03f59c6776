package engine

// Adaptive-tiering support: the two-rung compile ladder and the tier label.
//
// Registration under adaptive tiering compiles only the cheap rung — the
// optimized tier without static analysis (its expensive pass), or the naive
// tier behind a knob — so a new module can serve its first request without
// paying the analysis cost. Both optimized rungs are register form and run
// on the same loop. A background promotion controller (internal/core) later
// recompiles hot modules at the full rung and atomically swaps the
// CompiledModule.

// Ladder is the two-rung adaptive-tiering compile ladder derived from one
// engine configuration: Cheap is the registration rung, Full the promotion
// target. Both rungs share every semantic knob (bounds strategy, memory
// limits, nop injection), so a module produces bit-identical results on
// either rung; they differ only in how much compile-time work buys how much
// execution speed.
type Ladder struct {
	Cheap Config
	Full  Config
}

// NewLadder derives the ladder from the full-tier configuration. naiveStart
// selects TierNaive as the registration rung (decode+validate only, no
// lowering at all) instead of the default: the optimized tier with
// NoAnalysis set.
//
// A configuration that is already naive-tier has nothing to promote to; its
// ladder has Cheap == Full and the promotion controller leaves such modules
// alone.
func NewLadder(full Config, naiveStart bool) Ladder {
	full = full.withDefaults()
	cheap := full
	if full.Tier != TierNaive {
		if naiveStart {
			cheap.Tier = TierNaive
		} else {
			cheap.NoAnalysis = true
		}
	}
	return Ladder{Cheap: cheap, Full: full}
}

// Static reports whether the ladder has a single rung (nothing to promote).
func (l Ladder) Static() bool { return l.Cheap == l.Full }

// Tier-ladder rung labels reported by TierLabel and /__stats.
const (
	TierLabelNaive = "naive"
	TierLabelCheap = "cheap"
	TierLabelFull  = "full"
)

// Preemptible reports whether instances of this module can be suspended at
// an instruction boundary and resumed later. The naive rung's recursive
// interpreter has no reified continuation: exhausting its fuel budget traps
// instead of yielding, so a scheduler must run naive instances unpreempted
// (fuel <= 0) rather than quantum-bounded.
func (cm *CompiledModule) Preemptible() bool { return cm.cfg.Tier != TierNaive }

// TierLabel names the rung of the tier ladder this module was compiled at:
// "naive" (structured interpreter), "cheap" (register form lowered without
// static analysis), or "full" (register form with check elision,
// devirtualization and stack certificates).
func (cm *CompiledModule) TierLabel() string {
	switch {
	case cm.cfg.Tier == TierNaive:
		return TierLabelNaive
	case cm.cfg.NoAnalysis:
		return TierLabelCheap
	default:
		return TierLabelFull
	}
}
