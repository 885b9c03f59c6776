package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sledge/internal/wasm"
)

// The workload suites import this package, so a test that compiles them must
// live in engine_test; these open the lowered code to it.

// SP is the operand-stack pointer recorded when the last run left the loop.
func (in *Instance) SP() int { return in.sp }

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
// instruction and br_table target, function by function, with the frame
// shape the code runs in (locals, operand-stack bound, and the side table of
// tops a frame too big for cinstr.top keeps).
func (cm *CompiledModule) CodeHash() [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range cm.funcs {
		cf := &cm.funcs[i]
		put(uint64(cf.nLocals))
		put(uint64(cf.maxStack))
		put(uint64(len(cf.tops)))
		for _, t := range cf.tops {
			put(uint64(uint32(t)))
		}
		put(uint64(len(cf.code)))
		for _, ci := range cf.code {
			put(uint64(ci.op) | uint64(ci.top)<<16)
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

// opNames spells the internal opcodes, in module.go's order, for listings.
var opNames = [...]string{
	"unreachable", "nop", "br", "br_if", "br_if_not", "br_table", "return",
	"call", "call_host", "call_indirect", "call_devirt",
	"const", "mov", "global.get", "global.set", "select",
	"bounds_check", "mpx_check", "memory.size", "memory.grow",
	"i32.add_i", "i32.mul_i", "i32.mul_add_i", "i32.add3", "i32.load8_u_x",
	"br_if_eq", "br_if_ne", "br_if_lt_s", "br_if_lt_u", "br_if_gt_s",
	"br_if_gt_u", "br_if_le_s", "br_if_le_u", "br_if_ge_s", "br_if_ge_u",
	"br_if_eq_i", "br_if_ne_i", "br_if_lt_s_i", "br_if_lt_u_i", "br_if_gt_s_i",
	"br_if_gt_u_i", "br_if_le_s_i", "br_if_le_u_i", "br_if_ge_s_i", "br_if_ge_u_i",
	"charge",
}

// Listing renders the function named or exported as fn: its lowered code one instruction per string:
// "name h a b imm", with every charge's amount left out (the cost pass owns
// it, not this one): a branch shows the low half of imm, then "+taken" and
// "+fall" for the edges on which it pays a charge itself.
func (cm *CompiledModule) Listing(fn string) []string {
	var out []string
	exported, isExport := cm.exports[fn]
	for i := range cm.funcs {
		if cm.funcs[i].name != fn && !(isExport && int(exported) == cm.numImports+i) {
			continue
		}
		for _, ci := range cm.funcs[i].code {
			name := wasm.Opcode(ci.op).String()
			if ci.op >= iUnreachable {
				name = opNames[ci.op-iUnreachable]
			}
			if ci.op == iGasCharge {
				out = append(out, name)
				continue
			}
			imm, paid := int64(ci.imm), ""
			if op := ci.op; (op >= iBr && op <= iBrIfNot) || (op >= iBrIfEq && op <= iBrIfGeUI) {
				imm = int64(uint32(ci.imm))
				if ci.imm>>takenShift&maxEdgeCost != 0 {
					paid += " +taken"
				}
				if ci.imm>>fallShift != 0 {
					paid += " +fall"
				}
			}
			out = append(out, fmt.Sprintf("%s %d %d %d %d%s", name, ci.h, ci.a, ci.b, imm, paid))
		}
	}
	return out
}
