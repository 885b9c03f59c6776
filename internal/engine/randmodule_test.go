package engine_test

import (
	"math/rand"

	"sledge/internal/wasm"
)

// randomModule builds a valid module from seed: a helper (i32, i32) -> i32
// in a two-slot table, and one to three exported-as-main (i32) -> i32
// functions with random structured bodies over i32. The bodies reach what
// compilers seldom emit and the lowering must still get exactly right: loops
// nothing branches back to, dead code after every kind of terminal, ends
// nothing branches to that close arms which all left by a branch (so the
// code after them is live to wasm's typing but never reached), br_table
// among all of those, and values carried out of blocks, ifs and loops.
// Addresses are small constants or whatever is at hand: the modules are for
// compiling, and a run of one may trap.
func randomModule(seed int64) *wasm.Module {
	r := rand.New(rand.NewSource(seed))
	i32 := wasm.ValI32
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{
		{Params: []wasm.ValType{i32}, Results: []wasm.ValType{i32}},
		{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}},
	}
	m.Memories = []wasm.Limits{{Min: 1, Max: 2, HasMax: true}}
	m.Tables = []wasm.Limits{{Min: 2, Max: 2, HasMax: true}}
	m.Globals = []wasm.Global{{Type: wasm.GlobalType{Type: i32, Mutable: true}, Init: wasm.Instr{Op: wasm.OpI32Const}}}
	m.Elems = []wasm.ElemSegment{{Offset: wasm.Instr{Op: wasm.OpI32Const}, FuncIndices: []uint32{0, 0}}}
	m.Funcs = []wasm.Func{{TypeIdx: 1, Body: []wasm.Instr{
		{Op: wasm.OpLocalGet}, {Op: wasm.OpLocalGet, Imm: 1}, {Op: wasm.OpI32Add},
	}}}
	for n := 1 + r.Intn(3); n > 0; n-- {
		g := &bodyGen{r: r, frames: []genFrame{{op: wasm.OpBlock, arity: 1}}}
		g.run(5 + r.Intn(120))
		m.Funcs = append(m.Funcs, wasm.Func{
			TypeIdx: 0, Locals: []wasm.ValType{i32, i32}, Body: g.body, BrLabels: g.pool,
		})
	}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 1}}
	return m
}

// genFrame is one open block, loop or if of a body under construction (the
// function's own frame at the bottom).
type genFrame struct {
	op            wasm.Opcode
	arity, height int
	hasElse, dead bool
}

// bodyGen builds one function body, tracking the operand height h and the
// open frames so that every instruction it emits validates.
type bodyGen struct {
	r      *rand.Rand
	body   []wasm.Instr
	pool   []uint32
	frames []genFrame
	h      int
}

var genBinops = []wasm.Opcode{
	wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
	wasm.OpI32Shl, wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS,
	wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
}

func (g *bodyGen) emit(op wasm.Opcode, imm uint64) {
	g.body = append(g.body, wasm.Instr{Op: op, Imm: imm})
}

func (g *bodyGen) top() *genFrame { return &g.frames[len(g.frames)-1] }

// labelArity is how many values a branch to label l carries.
func (g *bodyGen) labelArity(l int) int {
	if f := g.frames[len(g.frames)-1-l]; f.op != wasm.OpLoop {
		return f.arity
	}
	return 0
}

// blockType picks an empty or an i32 result.
func (g *bodyGen) blockType() (uint64, int) {
	if g.r.Intn(2) == 0 {
		return uint64(wasm.BlockTypeEmpty), 0
	}
	return uint64(wasm.ValI32), 1
}

func (g *bodyGen) open(op wasm.Opcode) {
	bt, arity := g.blockType()
	g.emit(op, bt)
	g.frames = append(g.frames, genFrame{op: op, arity: arity, height: g.h})
}

// fit drops or pushes values until the innermost frame holds want; dead code
// takes any values it lacks from the polymorphic stack.
func (g *bodyGen) fit(want int) {
	f := g.top()
	for ; g.h > f.height+want; g.h-- {
		g.emit(wasm.OpDrop, 0)
	}
	for ; !f.dead && g.h < f.height+want; g.h++ {
		g.emit(wasm.OpI32Const, uint64(g.r.Intn(100)))
	}
}

// terminal makes the rest of the innermost frame dead.
func (g *bodyGen) terminal() {
	f := g.top()
	f.dead, g.h = true, f.height
}

func (g *bodyGen) elseArm() {
	f := g.top()
	g.fit(f.arity)
	g.emit(wasm.OpElse, 0)
	f.hasElse, f.dead, g.h = true, false, f.height
}

// close ends the innermost frame: with an end, except the function's own,
// which the body leaves implicit.
func (g *bodyGen) close() {
	if f := g.top(); f.op == wasm.OpIf && !f.hasElse && f.arity > 0 {
		g.elseArm() // an if with a result needs an else arm
	}
	f := *g.top()
	g.fit(f.arity)
	if len(g.frames) > 1 {
		g.emit(wasm.OpEnd, 0)
	}
	g.frames = g.frames[:len(g.frames)-1]
	g.h = f.height + f.arity
}

func (g *bodyGen) run(steps int) {
	r := g.r
	for i := 0; i < steps; i++ {
		f := g.top()
		if f.dead {
			switch r.Intn(7) {
			case 0, 1:
				if len(g.frames) > 1 {
					g.close()
				}
			case 2:
				g.emit(wasm.OpNop, 0)
			case 3:
				g.emit(wasm.OpI32Const, 1)
				g.emit(wasm.OpDrop, 0)
			case 4:
				g.open([]wasm.Opcode{wasm.OpBlock, wasm.OpLoop}[r.Intn(2)])
			case 5:
				if f.op == wasm.OpIf && !f.hasElse {
					g.elseArm()
				}
			case 6:
				g.emit(wasm.OpUnreachable, 0)
			}
			continue
		}
		avail, nl := g.h-f.height, len(g.frames)
		switch k := r.Intn(40); {
		case k < 5:
			g.emit(wasm.OpI32Const, uint64(uint32(r.Intn(200)-20)))
			g.h++
		case k < 11:
			g.emit(wasm.OpLocalGet, uint64(r.Intn(3)))
			g.h++
		case k < 12 && avail >= 1:
			g.emit(wasm.OpLocalSet, uint64(r.Intn(3)))
			g.h--
		case k < 13 && avail >= 1:
			g.emit(wasm.OpLocalTee, uint64(r.Intn(3)))
		case k < 14 && avail >= 1:
			g.emit(wasm.OpDrop, 0)
			g.h--
		case k < 15 && avail >= 1:
			g.emit(wasm.OpI32Eqz, 0)
		case k < 16 && avail >= 1:
			g.emit(wasm.OpI32Load, uint64(r.Intn(3)*4))
		case k < 17 && avail >= 1:
			g.emit(wasm.OpI32Load8U, uint64(r.Intn(8)))
		case k < 19 && avail >= 1:
			if l := r.Intn(nl); avail-1 >= g.labelArity(l) {
				g.emit(wasm.OpBrIf, uint64(l))
				g.h--
			}
		case k < 21 && avail >= 1:
			g.h--
			g.open(wasm.OpIf)
		case k < 24:
			g.open([]wasm.Opcode{wasm.OpBlock, wasm.OpLoop}[r.Intn(2)])
		case k < 28 && avail >= 2:
			g.emit(genBinops[r.Intn(len(genBinops))], 0)
			g.h--
		case k < 29 && avail >= 2:
			g.emit(wasm.OpI32Store, uint64(r.Intn(3)*4))
			g.h -= 2
		case k < 30 && avail >= 2:
			g.emit(wasm.OpCall, 0)
			g.h--
		case k < 31 && avail >= 3:
			if r.Intn(2) == 0 {
				g.emit(wasm.OpSelect, 0)
			} else {
				g.emit(wasm.OpCallIndirect, 1) // type 1, (i32, i32) -> i32
			}
			g.h -= 2
		case k < 32:
			if l := r.Intn(nl); avail >= g.labelArity(l) {
				g.emit(wasm.OpBr, uint64(l))
				g.terminal()
			}
		case k < 33 && avail >= 1:
			def := r.Intn(nl)
			if arity := g.labelArity(def); avail-1 >= arity {
				var labels []uint32
				for n := r.Intn(4); n > 0; n-- {
					if l := r.Intn(nl); g.labelArity(l) == arity {
						labels = append(labels, uint32(l))
					}
				}
				g.body = append(g.body, wasm.MakeBrTable(&g.pool, labels, uint32(def)))
				g.terminal()
			}
		case k < 34 && avail >= 1 && r.Intn(2) == 0:
			g.emit(wasm.OpReturn, 0)
			g.terminal()
		case k < 35 && r.Intn(3) == 0:
			g.emit(wasm.OpUnreachable, 0)
			g.terminal()
		case k < 37 && nl > 1:
			if f.op == wasm.OpIf && !f.hasElse && r.Intn(2) == 0 {
				g.elseArm()
			} else {
				g.close()
			}
		case k < 38:
			g.emit(wasm.OpNop, 0)
		case k < 39 && avail >= 1 && r.Intn(2) == 0:
			g.emit(wasm.OpGlobalSet, 0)
			g.h--
		case k < 39:
			g.emit(wasm.OpGlobalGet, 0)
			g.h++
		case avail >= 1 && r.Intn(2) == 0:
			g.emit(wasm.OpMemoryGrow, 0)
		default:
			g.emit(wasm.OpMemorySize, 0)
			g.h++
		}
	}
	for len(g.frames) > 0 {
		g.close()
	}
}
