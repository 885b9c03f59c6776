package engine

// Tier labels: which interpreter and which compile passes a module's
// installed form came from, as reported by /__stats and /__health.

// Tier labels reported by TierLabel and /__stats.
const (
	TierLabelNaive = "naive"
	TierLabelCheap = "cheap"
	TierLabelFull  = "full"
)

// Preemptible reports whether instances of this module can be suspended at
// an instruction boundary and resumed later. The naive tier's recursive
// interpreter has no reified continuation: exhausting its fuel budget traps
// instead of yielding, so a scheduler must run naive instances unpreempted
// (fuel <= 0) rather than quantum-bounded.
func (cm *CompiledModule) Preemptible() bool { return cm.cfg.Tier != TierNaive }

// TierLabel names the form this module was compiled to, read from its
// engine configuration: "naive" (structured interpreter), "cheap" (register
// form lowered without static analysis, Config.NoAnalysis), or "full"
// (register form with check elision, devirtualization and stack
// certificates).
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
