package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sledge/internal/abi"
	"sledge/internal/admission"
	"sledge/internal/analysis"
	"sledge/internal/core"
	"sledge/internal/engine"
	"sledge/internal/httpd"
	"sledge/internal/sandbox"
	"sledge/internal/wasm"
)

// runTraced produces the per-layer metrics. The runtime has no clock of its
// own yet, so the layers are timed from outside, in three passes:
//
//  1. HTTP pass: the paced traffic of an untraced run against an
//     httpd.Server whose handler mirrors Runtime.handle inside a
//     core.invoke span; httpd's share is the client's span minus that.
//  2. Exploded pass: the same ops with the request path performed by this
//     file through the layers' public calls, a span around each.
//  3. Direct pass: timed calls into engine, wasm, analysis and httpd alone.
//
// A paced untraced phase runs first; the gap between its median and the HTTP
// pass's is the tracing overhead.
func runTraced(sys *system, o options) (childResult, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	warm, ref, httpDur, explDur, directDur := total/10, total*2/10, total*3/10, total*2/10, total*2/10
	deadline := time.Now().Add(total + 60*time.Second)
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	var t tally

	lanes := sys.httpLanes(sys.addr, nil, deadline)
	t.add("warm-up", runPhase(lanes, phase{dur: warm}))
	refRes := runPhase(lanes, phase{dur: ref, rate: sys.w.rate, seed: o.seed})
	t.add("untraced reference", refRes)
	closeLanes(lanes)
	lat, late, sent := measuredLatencies(lanes, refRes)
	refUS := micros(lat)
	if sent > 0 {
		m["loadgen.late_share"] = float64(late) / float64(sent)
	}
	m["loadgen.latency_p999_us"] = percentile(refUS, 0.999)
	m["loadgen.latency_max_us"] = percentile(refUS, 1)
	m["loadgen.samples"] = float64(len(refUS))

	httpSpans, tracedP50, err := httpPass(sys, o, httpDur, deadline, &t, m)
	if err != nil {
		return childResult{}, err
	}
	if p50 := percentile(refUS, 0.5); p50 > 0 {
		m["trace.overhead_share"] = (tracedP50 - p50) / p50
	}

	// The exploded spans tile their root, so the root's median is their sum
	// per request; what core.invoke_us has beyond it is core's own: lookup,
	// the timeout timer, accounting, the copy of the reply.
	explSpans, explodedUS := explodedPass(sys, o, explDur, &t, m)
	m["trace.spans"] = float64(len(httpSpans) + len(explSpans))
	if inv := m["core.invoke_us"]; inv > 0 {
		m["core.self_us"] = inv - explodedUS
		m["core.budget_residual_share"] = m["core.self_us"] / inv
	}

	if err := directPass(sys, directDur, &t, m); err != nil {
		return childResult{}, err
	}

	m["core.abandoned"] = float64(sys.rt.Abandoned())
	if snap, ok := sys.rt.AdmissionStats(); ok {
		m["admission.shed"] = float64(snap.Shed())
		m["admission.queued"] = float64(snap.GrantWaits)
	}
	m["sched.fuel_quantum"] = float64(sys.rt.Pool().FuelQuantum())

	if err := writeTrace(sys.w.name, map[string][]span{"http": httpSpans, "exploded": explSpans}); err != nil {
		return childResult{}, err
	}
	return childResult{Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// recorderFor sizes a pass's span buffer from the ops the pass can make.
func recorderFor(w *workload, dur time.Duration) *recorder {
	ops := int(w.rate*dur.Seconds()*1.25) + 2000
	return newRecorder(ops * w.spansPerOp)
}

// resolveRequests gives the server-side spans, which know only their
// parent, their request's root.
func resolveRequests(spans []span) {
	for i := range spans {
		if s := &spans[i]; s.req < 0 && s.parent >= 0 {
			s.req = spans[s.parent].req
		}
	}
}

// tracedHandler mirrors Runtime.handle: path to module name, invoke, error
// to status. It records the core.invoke span under the client span named in
// the request.
type tracedHandler struct {
	rt  *core.Runtime
	rec *recorder
}

func (h *tracedHandler) handle(req *httpd.Request) httpd.Response {
	name := strings.TrimPrefix(req.Path, "/")
	start := time.Now()
	body, err := h.rt.InvokeWithDeadline(name, req.Body, 0)
	end := time.Now()
	if p, perr := strconv.Atoi(req.Header[spanHeader]); perr == nil && p >= 0 && p < len(h.rec.spans) {
		h.rec.add(spanCoreInvoke, int32(p), -1, start, end)
	}
	var rej *admission.Rejection
	switch {
	case errors.Is(err, core.ErrNoModule):
		return httpd.Response{Status: 404, Body: []byte(err.Error() + "\n")}
	case errors.As(err, &rej):
		return httpd.Response{Status: rej.Status, RetryAfter: rej.RetryAfter, Body: []byte(rej.Reason + "\n")}
	case err != nil:
		return httpd.Response{Status: 500, Body: []byte(err.Error() + "\n")}
	}
	return httpd.Response{Status: 200, Body: body}
}

// serveOn starts srv on a fresh loopback port. stop closes it and waits for
// every connection's goroutine.
func serveOn(srv *httpd.Server) (addr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		err := srv.Close()
		if serr := <-served; err == nil {
			err = serr
		}
		return err
	}, nil
}

// httpPass returns its spans and the median client latency, timed from the
// due time as in an untraced run.
func httpPass(sys *system, o options, dur time.Duration, deadline time.Time, t *tally, m map[string]float64) ([]span, float64, error) {
	rec := recorderFor(sys.w, dur)
	srv := &httpd.Server{
		Handler:      (&tracedHandler{sys.rt, rec}).handle,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		MaxConns:     1024,
	}
	addr, stop, err := serveOn(srv)
	if err != nil {
		return nil, 0, err
	}
	lanes := sys.httpLanes(addr, rec, deadline)
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	steals0 := sys.rt.Stats().Steals
	res := runPhase(lanes, phase{dur: dur, rate: sys.w.rate, seed: o.seed + 1})
	steals1 := sys.rt.Stats().Steals
	runtime.ReadMemStats(&mem1)
	t.add("HTTP pass", res)
	closeLanes(lanes)
	if err := stop(); err != nil {
		return nil, 0, err
	}

	spans := rec.recorded()
	resolveRequests(spans)
	fg := foreground(spans)
	lat, _, _ := measuredLatencies(lanes, res)
	kids := childrenOf(spans)
	var self []float64
	for i, s := range spans {
		if s.name == spanClientRequest && s.end > s.start && fg(s) {
			self = append(self, float64(selfTime(s, kids[int32(i)]))/1e3)
		}
	}
	m["httpd.self_us"] = median(self)
	m["core.invoke_us"] = percentile(durationsUS(spans, spanCoreInvoke, fg), 0.5)
	m["core.register_us"] = percentile(durationsUS(spans, spanCoreRegister, nil), 0.5)
	m["core.unregister_us"] = percentile(durationsUS(spans, spanCoreUnregister, nil), 0.5)
	if sys.w.coldModules {
		m["core.first_invoke_us"] = m["core.invoke_us"]
	}
	m["httpd.accepted"] = float64(srv.Accepted.Load())
	m["httpd.timed_out"] = float64(srv.TimedOut.Load())
	m["sched.steals"] = float64(steals1 - steals0)

	ops := 0
	for _, lr := range res.lanes {
		ops += lr.ok + lr.failed
	}
	if ops > 0 {
		m["proc.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(ops)
		m["proc.bytes_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(ops)
	}
	m["proc.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["proc.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["proc.heap_inuse_mb"] = float64(mem1.HeapInuse) / (1 << 20)
	m["isolation.long_rps"], _ = rateOf(lanes, res, false)
	return spans, percentile(micros(lat), 0.5), nil
}

// foreground reports whether a span belongs to a measured lane's request:
// runLane flags the root spans of the other lanes, so that the noisy
// tenant's spans stay out of the measured tenant's medians.
func foreground(spans []span) func(span) bool {
	return func(s span) bool { return s.req < 0 || !spans[s.req].bg }
}

// exploder performs the request path itself, with the public calls
// Runtime.run makes in the order it makes them, and a span around each. It
// has its own admission controller, configured as core.New configures the
// runtime's, because the runtime's is private.
type exploder struct {
	sys   *system
	adm   *admission.Controller
	timer *time.Timer // the request timeout, armed per request as Runtime.run arms its own
	reqs  int
	pre   uint64        // preemptions
	busy  time.Duration // first quantum .. done, summed
}

func (e *exploder) close() { e.timer.Stop() }

// requestTimeout is core.Config's default RequestTimeout.
const requestTimeout = 30 * time.Second

func (e *exploder) invoke(l *lane, module string, r *request) error {
	m, ok := e.sys.rt.Lookup(module)
	if !ok {
		return fmt.Errorf("%w: %s", core.ErrNoModule, module)
	}
	cm := m.Compiled()
	pool := e.sys.rt.Pool()

	t0 := time.Now()
	ticket, rej := e.adm.Admit("default", module, 0)
	if rej != nil {
		return rej
	}
	t1 := time.Now()
	sb, err := sandbox.New(cm, r.body, sandbox.Options{Entry: m.Entry, KV: e.sys.kv})
	if err != nil {
		ticket.Done(admission.OutcomeTrap, 0)
		return err
	}
	t2 := time.Now()
	if err := pool.Submit(sb); err != nil {
		ticket.Done(admission.OutcomeTrap, 0)
		return err
	}
	t3 := time.Now()
	e.timer.Reset(requestTimeout)
	select {
	case <-sb.Done():
		e.timer.Stop()
	case <-e.timer.C:
		if sb.Abandon() {
			ticket.Done(admission.OutcomeTimeout, requestTimeout)
			return fmt.Errorf("%s: timed out after %v", module, requestTimeout)
		}
		<-sb.Done() // it finished as the timer fired
	}
	t4 := time.Now()
	first, done, service := sb.FirstRunAt, sb.DoneAt, sb.Latency()
	e.reqs++
	e.pre += sb.Preemptions
	e.busy += done.Sub(first)
	outcome := admission.OutcomeSuccess
	if sb.State() == sandbox.StateTrapped {
		outcome, err = admission.OutcomeTrap, sb.Err
	} else if out, oerr := sb.Output(); oerr != nil {
		outcome, err = admission.OutcomeTrap, oerr
	} else if !bytes.Equal(out, r.want) {
		err = errMismatch
	}
	t5 := time.Now()
	sb.Release()
	t6 := time.Now()
	ticket.Done(outcome, service)
	t7 := time.Now()

	if rec := l.rec; rec != nil {
		// A worker may start the sandbox before Submit returns; the wait
		// for a core is then nothing, not negative.
		if first.Before(t3) {
			first = t3
		}
		root := rec.add(spanCoreInvoke, l.root, l.root, t0, t7)
		for _, s := range [...]struct {
			name       spanName
			start, end time.Time
		}{
			{spanAdmit, t0, t1}, {spanSandboxNew, t1, t2}, {spanSubmit, t2, t3},
			{spanQueueWait, t3, first}, {spanEngineRun, first, done}, {spanWake, done, t4},
			{spanOutput, t4, t5}, {spanRelease, t5, t6}, {spanAdmitDone, t6, t7},
		} {
			rec.add(s.name, root, l.root, s.start, s.end)
		}
	}
	return err
}

// explodedPass returns its spans and the median of their per-request sum.
func explodedPass(sys *system, o options, dur time.Duration, t *tally, m map[string]float64) ([]span, float64) {
	pool := sys.rt.Pool()
	adm := admission.New(admission.Config{
		Workers:         pool.Workers(),
		DefaultDeadline: requestTimeout,
		Probe:           pool.Inflight,
		QueueDepth:      pool.QueueDepth,
	})
	rec := recorderFor(sys.w, dur)
	var drivers []*exploder
	lanes := sys.newLanes(rec, func() invoker {
		e := &exploder{sys: sys, adm: adm, timer: time.NewTimer(requestTimeout)}
		drivers = append(drivers, e)
		return e
	})
	pre0 := pool.Stats().Preemptions
	res := runPhase(lanes, phase{dur: dur, rate: sys.w.rate, seed: o.seed + 2})
	t.add("exploded pass", res)
	closeLanes(lanes)

	spans := rec.recorded()
	fg := foreground(spans)
	p50 := func(name spanName) float64 { return percentile(durationsUS(spans, name, fg), 0.5) }
	m["admission.admit_ns"] = p50(spanAdmit) * 1e3
	m["admission.done_ns"] = p50(spanAdmitDone) * 1e3
	m["sandbox.new_ns"] = p50(spanSandboxNew) * 1e3
	m["sandbox.release_ns"] = p50(spanRelease) * 1e3
	m["sched.submit_ns"] = p50(spanSubmit) * 1e3
	m["sched.wake_us"] = p50(spanWake)
	m["engine.run_us"] = p50(spanEngineRun)
	wait := durationsUS(spans, spanQueueWait, fg)
	m["sched.queue_wait_us"] = percentile(wait, 0.5)
	m["sched.queue_wait_p99_us"] = percentile(wait, 0.99)
	if sys.w.coldModules {
		m["sandbox.first_new_us"] = p50(spanSandboxNew)
	}
	var reqs int
	var busy time.Duration
	for i, e := range drivers {
		reqs += e.reqs
		busy += e.busy
		if !lanes[i].measured && e.reqs > 0 {
			m["isolation.long_preemptions_per_req"] = float64(e.pre) / float64(e.reqs)
		}
	}
	if reqs > 0 {
		m["sched.preemptions_per_req"] = float64(pool.Stats().Preemptions-pre0) / float64(reqs)
	}
	m["sched.utilization"] = busy.Seconds() / (res.elapsed.Seconds() * float64(pool.Workers()))
	return spans, p50(spanCoreInvoke)
}

// timeIt runs f until budget is spent, at least lo and at most hi times, and
// returns the median duration in nanoseconds.
func timeIt(budget time.Duration, lo, hi int, f func() time.Duration) float64 {
	var ns []float64
	for start := time.Now(); len(ns) < lo || (len(ns) < hi && time.Since(start) < budget); {
		ns = append(ns, float64(f()))
	}
	return median(ns)
}

// directPass times single layers with nothing else running.
func directPass(sys *system, dur time.Duration, t *tally, m map[string]float64) error {
	hosts := abi.WASIRegistry()
	slice := dur / time.Duration(2*len(execApps)+2*len(moduleNames)+2)

	// engine, execute: each app's stock request on a pooled instance.
	var perGas []float64
	for _, app := range execApps {
		a := appByName(app)
		mod, _ := sys.rt.Lookup(app)
		cm := mod.Compiled()
		req := a.GenRequest()
		want := a.Native(req)
		var gas uint64
		var acquire, release []float64
		var runErr error
		exec := timeIt(2*slice, 2, 1000, func() time.Duration {
			t0 := time.Now()
			inst := cm.Acquire()
			t1 := time.Now()
			ctx := abi.NewContext(req)
			ctx.KV = sys.kv
			inst.HostData = ctx
			t2 := time.Now()
			_, err := inst.Invoke("main")
			d := time.Since(t2)
			t.attempted++
			out, oerr := ctx.ResolveOutput(inst)
			switch {
			case err != nil:
				runErr = err
			case oerr != nil:
				runErr = oerr
			case !bytes.Equal(out, want):
				runErr = errMismatch
			case gas != 0 && gas != inst.Gas:
				runErr = fmt.Errorf("gas %d differs from the previous run's %d", inst.Gas, gas)
			}
			gas = inst.Gas
			t3 := time.Now()
			cm.Release(inst)
			acquire = append(acquire, float64(t1.Sub(t0)))
			release = append(release, float64(time.Since(t3)))
			return d
		})
		if runErr != nil {
			t.failed++
			fmt.Fprintf(os.Stderr, "benchmark: direct pass: %s: %v\n", app, runErr)
		}
		m["engine.exec_us."+app] = exec / 1e3
		m["engine.gas."+app] = float64(gas)
		m["engine.ns_per_gas."+app] = exec / float64(gas)
		perGas = append(perGas, exec/float64(gas))
		if app == sys.w.primary {
			m["engine.acquire_ns"] = median(acquire)
			m["engine.release_ns"] = median(release)
			st := cm.Analysis()
			if st.MemAccesses > 0 {
				m["analysis.checks_elided_share"] = float64(st.SafeAccesses) / float64(st.MemAccesses)
			}
		}
	}
	m["engine.ns_per_gas_geomean"] = geomean(perGas)

	// abi: what a KiB of payload costs to read in and write out.
	echo, _ := sys.rt.Lookup("echo")
	echoNS := func(size int) float64 {
		req := make([]byte, size)
		return timeIt(slice/2, 5, 200, func() time.Duration {
			inst := echo.Compiled().Acquire()
			inst.HostData = abi.NewContext(req)
			start := time.Now()
			inst.Invoke("main")
			d := time.Since(start)
			echo.Compiled().Release(inst)
			return d
		})
	}
	m["abi.echo_ns_per_kib"] = (echoNS(65<<10) - echoNS(1<<10)) / 64

	// wasm, analysis, engine compile: the registration pipeline per module,
	// each stage on its own and then engine.Compile whole. compile_us is
	// Compile less the two stages timed alone, so that the rows add up.
	for _, name := range moduleNames {
		bin := sys.bins[name]
		mod, err := wasm.Decode(bin)
		if err != nil {
			return err
		}
		decode := timeIt(slice/2, 3, 50, func() time.Duration {
			start := time.Now()
			wasm.Decode(bin)
			return time.Since(start)
		})
		validate := timeIt(slice/4, 3, 50, func() time.Duration {
			start := time.Now()
			wasm.Validate(mod)
			return time.Since(start)
		})
		params := analysis.Params{MaxCallDepth: engine.DefaultMaxCallDepth}
		if len(mod.Memories) > 0 {
			params.MinMemBytes = uint64(mod.Memories[0].Min) * wasm.PageSize
		}
		analyze := timeIt(slice/4, 3, 50, func() time.Duration {
			start := time.Now()
			analysis.Analyze(mod, params)
			return time.Since(start)
		})
		var cm *engine.CompiledModule
		compile := timeIt(slice, 3, 50, func() time.Duration {
			fresh, _ := wasm.Decode(bin)
			start := time.Now()
			cm, err = engine.Compile(fresh, hosts, sys.rt.EngineConfig())
			return time.Since(start)
		})
		if err != nil {
			return err
		}
		m["wasm.decode_us"] += decode / 1e3
		m["wasm.validate_us"] += validate / 1e3
		m["analysis.analyze_us"] += analyze / 1e3
		m["engine.compile_us."+name] = max(compile-validate-analyze, 0) / 1e3
		m["engine.resident_bytes."+name] = float64(cm.ResidentBytes())
	}

	// httpd: parsing the workload's request from memory, and a round trip
	// to a handler that does nothing.
	wire := sys.pools[sys.w.primary][0].wire
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	var perr error
	m["httpd.parse_ns"] = timeIt(slice, 100, 20000, func() time.Duration {
		rd.Reset(wire)
		br.Reset(rd)
		start := time.Now()
		_, err := httpd.ReadRequest(br)
		if err != nil {
			perr = err
		}
		return time.Since(start)
	})
	if perr != nil {
		return perr
	}
	reply := []byte{'p'}
	addr, stop, err := serveOn(&httpd.Server{Handler: func(*httpd.Request) httpd.Response {
		return httpd.Response{Body: reply}
	}})
	if err != nil {
		return err
	}
	c := newClient(addr)
	c.setDeadline(time.Now().Add(slice + 30*time.Second))
	ping := appendRequest(nil, "null", -1, nil)
	var rerr error
	m["httpd.null_rtt_us"] = timeIt(slice, 100, 20000, func() time.Duration {
		start := time.Now()
		if err := c.roundTrip(ping, reply); err != nil {
			rerr = err
		}
		return time.Since(start)
	}) / 1e3
	c.close()
	if err := stop(); err != nil {
		return err
	}
	return rerr
}
