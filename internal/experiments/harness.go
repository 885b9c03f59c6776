// Package experiments contains one driver per table and figure in the
// paper's evaluation (§5), plus the ablations DESIGN.md calls out. Each
// driver runs the workloads through the real runtime(s) and renders a text
// table with the same rows/series the paper reports.
//
// Every driver honours Options.Quick, which shrinks problem sizes and
// iteration counts so the full suite can run in CI; the cmd/sledge-bench
// binary runs the full-size configuration.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Options configures an experiment run.
type Options struct {
	// Quick shrinks sizes/iterations for fast runs (tests).
	Quick bool
	// Workers overrides the Sledge worker count (default GOMAXPROCS).
	Workers int
	// KernelFilter restricts fig5/table1 to the named PolyBench kernels
	// (empty = all 30).
	KernelFilter []string
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// SnapshotPath, when set, makes experiments that support it (overload)
	// write a machine-readable JSON result there.
	SnapshotPath string
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string // e.g. "fig5", "table2"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Registry maps experiment IDs to their drivers.
var Registry = map[string]func(Options) ([]*Table, error){
	"fig5":     func(o Options) ([]*Table, error) { return runFig5Table1(o) },
	"table1":   func(o Options) ([]*Table, error) { return runFig5Table1(o) },
	"fig6":     RunFig6,
	"fig7":     RunFig7,
	"fig8":     RunFig8,
	"table2":   RunTable2,
	"table3":   RunTable3,
	"memfoot":  RunMemFootprint,
	"cpubound": RunCPUBound,
	"overload": RunOverload,
	"cluster":  RunContinuum,
	"chain":    RunChain,
	"ablation": func(o Options) ([]*Table, error) {
		var out []*Table
		for _, fn := range []func(Options) ([]*Table, error){
			RunAblationBounds, RunAblationStartup,
		} {
			ts, err := fn(o)
			if err != nil {
				return out, err
			}
			out = append(out, ts...)
		}
		return out, nil
	},
}

// IDs lists experiment IDs in paper order.
func IDs() []string {
	return []string{"fig5", "table1", "fig6", "fig7", "fig8", "table2", "table3", "memfoot", "cpubound", "overload", "cluster", "chain", "ablation"}
}
