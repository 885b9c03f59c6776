package engine

import (
	"crypto/sha256"
	"encoding/binary"
)

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

// CodeHash digests the module's lowered code: every field of every
// instruction and br_table target, function by function.
func (cm *CompiledModule) CodeHash() [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range cm.funcs {
		cf := &cm.funcs[i]
		put(uint64(len(cf.code)))
		for _, ci := range cf.code {
			put(uint64(ci.op))
			put(uint64(uint32(ci.a))<<32 | uint64(uint32(ci.b)))
			put(uint64(uint32(ci.h)))
			put(ci.imm)
		}
		for _, tab := range cf.brTables {
			put(uint64(len(tab)))
			for _, bt := range tab {
				put(uint64(uint32(bt.pc))<<32 | uint64(uint32(bt.height)))
				put(uint64(uint32(bt.arity)))
			}
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
