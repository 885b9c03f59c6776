package analysis

import "sledge/internal/wasm"

// tslot mirrors the engine's table entry: the target in the module function
// index space (-1 = uninitialized) and its canonical type id.
type tslot struct {
	funcIdx int32
	canon   int32
}

// buildTable reconstructs the canonical type map and the initialized
// indirect-call table exactly as engine.Compile does, so the facts proven
// here hold for the table the VM dispatches through. exact reports whether
// the table contents are statically known; it is false when any element
// segment has a non-constant offset (global.get of an imported global —
// rejected by Compile, but a caller running the analysis standalone must
// not treat Imm as an offset when it is a global index).
func buildTable(m *wasm.Module) (table []tslot, canon []int32, exact bool) {
	canon = make([]int32, len(m.Types))
	for i, t := range m.Types {
		canon[i] = int32(i)
		for j := 0; j < i; j++ {
			if m.Types[j].Equal(t) {
				canon[i] = int32(j)
				break
			}
		}
	}

	if len(m.Tables) > 0 {
		table = make([]tslot, m.Tables[0].Min)
		for i := range table {
			table[i] = tslot{funcIdx: -1, canon: -1}
		}
	}
	for _, seg := range m.Elems {
		if seg.Offset.Op != wasm.OpI32Const {
			return nil, canon, false
		}
		off := int(uint32(seg.Offset.Imm))
		if off < 0 || off+len(seg.FuncIndices) > len(table) {
			continue // Compile rejects such modules; nothing to prove
		}
		for j, fi := range seg.FuncIndices {
			ft, err := m.FuncTypeAt(fi)
			if err != nil {
				continue
			}
			c := int32(-1)
			for ti := range m.Types {
				if m.Types[ti].Equal(ft) {
					c = canon[ti]
					break
				}
			}
			table[off+j] = tslot{funcIdx: int32(fi), canon: c}
		}
	}
	return table, canon, true
}

// analyzeCFI verifies every call_indirect site in f against the canonical
// type table and devirtualizes monomorphic sites: when exactly one table
// slot carries the site's signature and that slot holds a defined function,
// any successful dispatch must land there. The lowered form still compares
// the runtime index against the expected slot and falls back to the generic
// path on mismatch, so trap codes (OOB / null / type) stay exact. With
// exact=false the table contents are unknown: sites are counted but never
// classified dead or devirtualized.
func analyzeCFI(m *wasm.Module, f *wasm.Func, table []tslot, canon []int32, exact bool, report *Report) []devirtSite {
	var out []devirtSite
	nImports := m.NumImportedFuncs()
	for idx := range f.Body {
		in := &f.Body[idx]
		if in.Op != wasm.OpCallIndirect {
			continue
		}
		report.IndirectSites++
		if !exact {
			continue
		}
		want := canon[in.Imm]
		matches := 0
		slot, target := -1, int32(-1)
		for ti, e := range table {
			if e.funcIdx >= 0 && e.canon == want {
				matches++
				slot, target = ti, e.funcIdx
			}
		}
		if matches == 0 {
			report.DeadSites++
			continue
		}
		if matches == 1 && int(target) >= nImports {
			out = append(out, devirtSite{idx, Devirt{TableIdx: uint32(slot), FuncIdx: uint32(target)}})
			report.DevirtSites++
		}
	}
	return out
}
