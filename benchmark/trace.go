package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Spans are recorded only from this package, around the calls
// into each layer; spans inside the runtime are ROADMAP item 1.
type spanName uint8

const (
	spanOp             spanName = iota // one workload op, the root of a request
	spanClientRequest                  // client: write request .. reply parsed
	spanCoreInvoke                     // Runtime.InvokeWithDeadline, or its exploded equivalent
	spanCoreRegister                   // RegisterWasm of the ten modules (coldstart)
	spanCoreUnregister                 // Unregister of the ten modules (coldstart)
	spanAdmit                          // admission.Controller.Admit
	spanSandboxNew                     // sandbox.New (includes engine Acquire and Start)
	spanSubmit                         // sched.Pool.Submit
	spanQueueWait                      // Submit returned .. first quantum starts
	spanEngineRun                      // first quantum starts .. sandbox done
	spanWake                           // sandbox done .. waiter resumed
	spanOutput                         // Sandbox.Output and the oracle compare
	spanRelease                        // Sandbox.Release
	spanAdmitDone                      // Ticket.Done
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "client.request", "core.invoke", "core.register", "core.unregister",
	"admission.admit", "sandbox.new", "sched.submit", "sched.queue_wait",
	"engine.run", "sched.wake", "sandbox.output", "sandbox.release", "admission.done",
}

// span is one timed interval. start and end are nanoseconds since the
// recorder's epoch; parent is the index of the span that caused this one
// (-1 for a root) and req is the index of the request's root span, shared
// by every span of that request.
type span struct {
	start, end  int64
	parent, req int32
	name        spanName
	bg          bool // on a root span: its lane is not a measured one
}

// recorder holds spans in memory preallocated before the pass starts, so
// recording costs one atomic add and one store and never allocates.
// Goroutines write disjoint slots; readers wait for every writer to finish.
type recorder struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, capacity)}
	for i := range r.spans {
		r.spans[i].parent = -1 // also faults the pages in before timing starts
	}
	return r
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// begin opens a span starting now and returns its index, or -1 when the
// buffer is full (the span is counted as dropped and end ignores it).
func (r *recorder) begin(name spanName, parent, req int32) int32 {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	s := &r.spans[i]
	s.name, s.parent, s.req = name, parent, req
	if req < 0 {
		s.req = int32(i)
	}
	s.start = r.since(time.Now())
	return int32(i)
}

func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].end = r.since(time.Now())
	}
}

// add records a finished span.
func (r *recorder) add(name spanName, parent, req int32, start, end time.Time) int32 {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, parent: parent, req: req, start: r.since(start), end: r.since(end)}
	return int32(i)
}

// recorded returns the spans written so far, and says so when the buffer
// was too small for the pass.
func (r *recorder) recorded() []span {
	if n := r.dropped.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: span buffer full, %d spans dropped: the per-layer medians cover only the first %d\n", n, len(r.spans))
	}
	return r.spans[:min(r.next.Load(), int64(len(r.spans)))]
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may stick out of the
// parent; only the union of their parts inside the parent is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, edge := int64(0), parent.start
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return parent.end - parent.start - covered
}

// childrenOf groups span indexes by parent.
func childrenOf(spans []span) map[int32][]span {
	out := make(map[int32][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// durationsUS returns the sorted durations, in microseconds, of the spans
// with the given name that keep returns true for (nil keeps all).
func durationsUS(spans []span, name spanName, keep func(span) bool) []float64 {
	var ns []int64
	for _, s := range spans {
		if s.name == name && s.end >= s.start && (keep == nil || keep(s)) {
			ns = append(ns, s.end-s.start)
		}
	}
	return micros(ns)
}

// maxTraceSpans bounds how many spans of each pass go to the trace file: a
// ping pass records about a million, and a file meant for reading does not
// need them all.
const maxTraceSpans = 50000

type traceSpan struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Request int32  `json:"request"`
}

// writeTrace writes the first spans of each pass to out/trace-<workload>.json
// beside the benchmark's sources.
func writeTrace(workload string, passes map[string][]span) error {
	file := struct {
		Workload string                 `json:"workload"`
		Note     string                 `json:"note"`
		Passes   map[string][]traceSpan `json:"passes"`
	}{
		Workload: workload,
		Note:     "start_ns/end_ns count from the pass's start; parent and request are indexes into the same pass (-1: none)",
		Passes:   make(map[string][]traceSpan),
	}
	for pass, spans := range passes {
		spans = spans[:min(len(spans), maxTraceSpans)]
		out := make([]traceSpan, len(spans))
		for i, s := range spans {
			out[i] = traceSpan{spanNames[s.name], s.start, s.end, s.parent, s.req}
		}
		file.Passes[pass] = out
	}
	b, err := json.Marshal(file)
	if err != nil {
		return err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", "trace-"+workload+".json"), b, 0o644)
}
