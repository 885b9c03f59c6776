package engine

// The workload suites import this package, so a test that compiles them must
// live in engine_test; these open the lowered code to it.

// InternalOps is the defined internal opcode range [lo, hi).
func InternalOps() (lo, hi uint16) { return iUnreachable, iOpLimit }

// EmittedOps adds every opcode in the module's lowered code to seen.
func (cm *CompiledModule) EmittedOps(seen map[uint16]bool) {
	for i := range cm.funcs {
		for _, ci := range cm.funcs[i].code {
			seen[ci.op] = true
		}
	}
}
