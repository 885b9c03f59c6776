package engine

// Preemptible reports whether instances of this module can be suspended at
// an instruction boundary and resumed later. The naive tier's recursive
// interpreter has no reified continuation: exhausting its fuel budget traps
// instead of yielding.
func (cm *CompiledModule) Preemptible() bool { return cm.cfg.Tier != TierNaive }

// WithDefaults returns c with each zero field set to the value Compile
// uses: the form CompiledModule.Config reports, so a configuration can be
// compared with the one a module was compiled with.
func (c Config) WithDefaults() Config { return c.withDefaults() }
