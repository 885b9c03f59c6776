package analysis_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"sledge/internal/analysis"
	"sledge/internal/wasm"
	"sledge/internal/workloads/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/facts.golden from this implementation")

const (
	goldenPath = "testdata/facts.golden"
	fuzzDir    = "../engine/testdata/fuzz/FuzzDifferentialElision"
)

// corpusModules decodes and validates the shared corpus; entries either step
// rejects are left out (the pass requires a validated module). Sorted by
// name, so the golden's order is fixed.
func corpusModules(tb testing.TB) (names []string, mods map[string]*wasm.Module) {
	tb.Helper()
	mods = make(map[string]*wasm.Module)
	for name, bin := range corpus.Modules(tb, fuzzDir) {
		m, err := wasm.Decode(bin)
		if err != nil || wasm.Validate(m) != nil {
			continue
		}
		mods[name] = m
		names = append(names, name)
	}
	sort.Strings(names)
	return names, mods
}

// ownMinMem is the in-bounds horizon engine.Compile passes for m.
func ownMinMem(m *wasm.Module) uint64 {
	if len(m.Memories) == 0 {
		return 0
	}
	return uint64(m.Memories[0].Min) * wasm.PageSize
}

// writeFacts serialises everything a consumer can read out of f: per
// function the safe-access indices and devirt sites in body order, the frame
// bound and call edges, then the module report.
func writeFacts(w *bytes.Buffer, name string, minMem uint64, m *wasm.Module, f *analysis.Facts) {
	fmt.Fprintf(w, "module %s minmem=%d\n", name, minMem)
	for fn := range m.Funcs {
		fmt.Fprintf(w, " func %d safe=[", fn)
		sep := ""
		for i := range m.Funcs[fn].Body {
			if f.SafeAccess(fn, i) {
				fmt.Fprintf(w, "%s%d", sep, i)
				sep = " "
			}
		}
		w.WriteString("] devirt=[")
		sep = ""
		for i := range m.Funcs[fn].Body {
			if d, ok := f.DevirtAt(fn, i); ok {
				fmt.Fprintf(w, "%s%d:%d>%d", sep, i, d.TableIdx, d.FuncIdx)
				sep = " "
			}
		}
		fmt.Fprintf(w, "] frames=%d edges=%v\n", f.MaxFrames[fn], f.Edges[fn])
	}
	fmt.Fprintf(w, " report %+v\n", f.Report)
}

// goldenFacts runs the pass over one module at its own horizon and at zero,
// where only availability can prove anything.
func goldenFacts(w *bytes.Buffer, name string, m *wasm.Module) {
	for _, minMem := range []uint64{ownMinMem(m), 0} {
		f := analysis.Analyze(m, analysis.Params{MinMemBytes: minMem, MaxCallDepth: 512})
		writeFacts(w, name, minMem, m, f)
	}
}

// TestFactsGolden pins every fact the pass produces over the shared corpus.
// The file was generated by the map-and-clone implementation this package
// had before its state representation was rewritten; the rewrite may not
// change a byte of it.
func TestFactsGolden(t *testing.T) {
	names, mods := corpusModules(t)
	if len(names) < 40 {
		t.Fatalf("only %d corpus modules validated; the corpus did not load", len(names))
	}
	var got bytes.Buffer
	for _, name := range names {
		goldenFacts(&got, name, mods[name])
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("facts differ from %s at line %d:\n got  %s\n want %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("facts differ from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}

// TestSkipMemSafety checks that leaving the memory-safety pass out proves
// no access safe and changes no other fact: devirtualized sites, frame
// bounds, call edges and the rest of the report are the full pipeline's.
func TestSkipMemSafety(t *testing.T) {
	names, mods := corpusModules(t)
	for _, name := range names {
		m := mods[name]
		p := analysis.Params{MinMemBytes: ownMinMem(m), MaxCallDepth: 512}
		full := analysis.Analyze(m, p)
		p.SkipMemSafety = true
		skip := analysis.Analyze(m, p)
		want := full.Report
		want.MemAccesses, want.SafeAccesses = 0, 0
		if skip.Report != want {
			t.Errorf("%s: report %+v, want %+v", name, skip.Report, want)
		}
		if !reflect.DeepEqual(skip.MaxFrames, full.MaxFrames) || !reflect.DeepEqual(skip.Edges, full.Edges) {
			t.Errorf("%s: frames %v edges %v, want %v %v", name, skip.MaxFrames, skip.Edges, full.MaxFrames, full.Edges)
		}
		for fn := range m.Funcs {
			for i := range m.Funcs[fn].Body {
				if skip.SafeAccess(fn, i) {
					t.Errorf("%s: func %d instr %d proven safe with the pass left out", name, fn, i)
				}
				d, ok := skip.DevirtAt(fn, i)
				if wd, wok := full.DevirtAt(fn, i); d != wd || ok != wok {
					t.Errorf("%s: func %d instr %d devirt %v %v, want %v %v", name, fn, i, d, ok, wd, wok)
				}
			}
		}
	}
}
