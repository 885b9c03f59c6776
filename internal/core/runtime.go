// Package core is the Sledge serverless runtime (the paper's primary
// contribution): a single-process, multi-tenant runtime that accepts HTTP
// requests on a listener, instantiates a light-weight Wasm sandbox per
// request, distributes sandboxes to worker cores through per-worker inboxes
// with work stealing, and schedules them preemptively for temporal
// isolation (§3.3–§3.5, §4).
//
// Module registration performs the heavyweight compile/link/load once; each
// request then pays only sandbox instantiation (µs-scale), reproducing the
// paper's decoupled function startup.
//
// When Config.Admission is set, an admission controller sits between the
// listener and the scheduler: per-tenant token buckets and weighted
// deficit-round-robin queueing, deadline-aware shedding (429/503 +
// Retry-After), per-module circuit breakers, and graceful drain — the
// overload-management half of multi-tenant temporal isolation.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/abi"
	"sledge/internal/admission"
	"sledge/internal/engine"
	"sledge/internal/httpd"
	"sledge/internal/sandbox"
	"sledge/internal/sched"
	"sledge/internal/wcc"
)

// Module is a registered function: an AoT-compiled module plus invocation
// metadata. The compiled form is held through an atomic pointer so the
// bounded cache (cache.go) can drop it and the next invoke recompile it
// while invocations are in flight: each request loads the pointer once at
// dispatch and runs that code to completion, so a dropped form's instance
// pool quiesces as its last requests finish and is then collected. All
// other fields are immutable after registration.
type Module struct {
	Name   string
	Entry  string
	Tenant string

	cm atomic.Pointer[engine.CompiledModule]
	// source retains the module's wasm binary when the bounded cache may
	// drop the compiled body and revive recompile it; nil for precompiled
	// registrations and for runtimes without a cache budget.
	source []byte

	invocations  atomic.Uint64
	failures     atomic.Uint64
	totalNanos   atomic.Int64
	gas          atomic.Uint64
	blockedNanos atomic.Int64

	// recompileMu serializes lazy recompilation of a cold-evicted module
	// (Runtime.revive): concurrent first invokes after a cache body-drop
	// must compile once, not once per request.
	recompileMu sync.Mutex
}

// ModuleStats is a per-function accounting snapshot.
type ModuleStats struct {
	Invocations uint64        `json:"invocations"`
	Failures    uint64        `json:"failures"`
	MeanLatency time.Duration `json:"mean_latency_ns"`
	// Gas is the module's cumulative deterministic execution cost
	// (static charge-point gas, identical across engine configurations),
	// the basis for per-tenant accounting.
	Gas uint64 `json:"gas"`
	// Resident reports whether the compiled body is installed; false
	// while the bounded cache has dropped it, until the next invoke
	// recompiles it.
	Resident bool `json:"resident"`
	// Analysis is what the static-analysis pipeline proved about the
	// module at registration time (check elision, devirtualization, stack
	// certification).
	Analysis engine.AnalysisStats `json:"analysis"`
	// Regalloc is the register-allocation summary for the module (register
	// file size, three-address fusions, branch fusions).
	Regalloc engine.RegallocStats `json:"regalloc"`
	// ResidentBytes is the module's reclaimable footprint (compiled code +
	// snapshot + idle pool slabs) — what the bounded cache charges against
	// its budget. 0 for a registered-but-cold module.
	ResidentBytes int64 `json:"resident_bytes"`
}

// Stats returns the module's accounting snapshot.
func (m *Module) Stats() ModuleStats {
	st := ModuleStats{
		Invocations: m.invocations.Load(),
		Failures:    m.failures.Load(),
		Gas:         m.gas.Load(),
	}
	if st.Invocations > 0 {
		st.MeanLatency = time.Duration(m.totalNanos.Load() / int64(st.Invocations))
	}
	// A registered-but-cold module has no compiled form to describe; its
	// analysis/regalloc stats return with the lazily recompiled body.
	if cm := m.Compiled(); cm != nil {
		st.Resident = true
		st.Analysis = cm.Analysis()
		st.Regalloc = cm.Regalloc()
		st.ResidentBytes = cm.ResidentBytes()
	}
	return st
}

// Compiled exposes the currently installed compiled module (for experiments
// that need direct instantiation). The pointer is loaded atomically; it is
// nil while the bounded cache holds the module cold.
func (m *Module) Compiled() *engine.CompiledModule { return m.cm.Load() }

// cost prices one request of the module at gasPerMS: its mean gas per
// completion at that rate plus its mean time blocked on I/O. Gas is a
// function of the module and its input alone, so a request's price does
// not move with the queue it waits in or the tenants it shares a core
// with. It is 0 until the first completion.
func (m *Module) cost(gasPerMS float64) time.Duration {
	n := m.invocations.Load()
	if n == 0 {
		return 0
	}
	gas := float64(m.gas.Load()) / float64(n)
	return time.Duration(gas/gasPerMS*float64(time.Millisecond)) +
		time.Duration(m.blockedNanos.Load()/int64(n))
}

// recordCompletion feeds the per-request accounting from a finished
// sandbox; it sits on the steady-state invoke path.
//
//sledge:noalloc
func (m *Module) recordCompletion(sb *sandbox.Sandbox) {
	m.totalNanos.Add(int64(sb.Latency()))
	m.gas.Add(sb.Gas())
	if d := sb.Blocked(); d > 0 {
		m.blockedNanos.Add(int64(d))
	}
	m.invocations.Add(1)
}

// DeadlineHeader is the request header carrying a per-request deadline in
// milliseconds, used by the admission controller's shed decision.
const DeadlineHeader = "x-sledge-deadline-ms"

// Config configures the runtime.
type Config struct {
	// Workers is the number of worker cores (the paper uses 15 workers +
	// 1 listener on a 16-core machine). Default: 1.
	Workers int
	// Quantum is the scheduling time slice. Default 5 ms.
	Quantum time.Duration
	// Policy selects preemptive round-robin (default) or cooperative
	// scheduling.
	Policy sched.Policy
	// Bounds is the memory-safety mechanism every module is compiled
	// with (§3.2). Default: engine.BoundsGuard, the paper's production
	// configuration.
	Bounds engine.BoundsStrategy
	// KV is the storage backend exposed to functions; nil disables it.
	KV abi.KVStore
	// RequestTimeout bounds one invocation end-to-end. Default 30 s.
	RequestTimeout time.Duration
	// MaxHandoffBytes bounds a function's sledge.output result region
	// (the pipeline zero-copy handoff declaration); an oversized
	// declaration traps the stage and surfaces as HTTP 413. 0 means
	// abi.DefaultMaxHandoffBytes (8 MiB).
	MaxHandoffBytes uint32

	// Admission, when non-nil, enables the admission controller between
	// the listener and the scheduler. Workers, DefaultDeadline, Probe,
	// QueueDepth and Cost are filled in from the runtime when unset.
	Admission *admission.Config

	// CacheBudgetBytes, when positive, bounds the registry's resident
	// module bytes — compiled code, post-init snapshots, and idle instance
	// pools — under an ARC policy with staged demotion (purge idle pool →
	// drop snapshot → drop compiled body, lazily recompiled on the next
	// invoke). 0 keeps the registry unbounded (see cache.go).
	CacheBudgetBytes int64
	// CacheScanInterval is the cache controller's scan period.
	// Default 25ms.
	CacheScanInterval time.Duration

	// HTTPReadTimeout bounds reading one request (slow-loris defense);
	// 0 defaults to RequestTimeout, negative disables. Writing one
	// response is bounded by RequestTimeout.
	HTTPReadTimeout time.Duration
	// MaxConns caps concurrent HTTP connections (0 = unlimited).
	MaxConns int
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.HTTPReadTimeout == 0 {
		c.HTTPReadTimeout = c.RequestTimeout
	} else if c.HTTPReadTimeout < 0 {
		c.HTTPReadTimeout = 0
	}
	return c
}

// Runtime is a running Sledge instance.
type Runtime struct {
	cfg  Config
	pool *sched.Pool
	adm  *admission.Controller

	// hostReg is the shared host-function registry. It is built once and
	// treated as read-only: rebuilding it per registration shows up in
	// registration-storm profiles.
	hostReg engine.HostRegistry

	// slabs is the linear-memory recycler of the modules compiled with
	// EngineConfig(), charged to this runtime's cache budget alone.
	slabs engine.Slabs

	// cache is the bounded module cache (nil when Config.CacheBudgetBytes
	// is 0): ARC eviction with staged demotion over the registry's
	// resident bytes, and the revive path's accounting for cold misses.
	cache *cacheController

	mu       sync.RWMutex
	registry map[string]*Module
	// pipelines holds registered module chains (pipeline.go), addressed
	// through the reserved "p/<name>" invocation namespace. Guarded by mu
	// alongside the registry so one lock snapshots both consistently.
	pipelines map[string]*Pipeline

	// admDefaultDeadline mirrors the admission controller's default
	// deadline so the pipeline executor can thread the same budget through
	// mid-chain shed checks when the caller passed none.
	admDefaultDeadline time.Duration

	// abandoned counts requests that timed out and left their sandbox to
	// be reaped by a worker (exposed via /__stats).
	abandoned atomic.Uint64

	// timers recycles the per-request timeout timers. Pooled timers always
	// have empty channels: a timer is only put back when its Stop() returned
	// true or its channel was just drained by a receive.
	timers sync.Pool

	server *httpd.Server
	lnMu   sync.Mutex
	ln     net.Listener
}

// New starts a runtime with an empty module registry.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:      cfg,
		registry: make(map[string]*Module),
		hostReg:  abi.WASIRegistry(),
	}
	// The quantum needs no start-up calibration: each worker learns gas
	// per millisecond from the slices it runs.
	rt.pool = sched.NewPool(sched.Config{
		Workers: cfg.Workers,
		Quantum: cfg.Quantum,
		Policy:  cfg.Policy,
	})
	if cfg.Admission != nil {
		acfg := *cfg.Admission
		if acfg.Workers == 0 {
			acfg.Workers = rt.pool.Workers()
		}
		if acfg.DefaultDeadline == 0 {
			acfg.DefaultDeadline = cfg.RequestTimeout
		}
		if acfg.Probe == nil {
			acfg.Probe = rt.pool.Inflight
		}
		if acfg.QueueDepth == nil {
			acfg.QueueDepth = rt.pool.QueueDepth
		}
		if acfg.Cost == nil {
			acfg.Cost = rt.cost
		}
		rt.admDefaultDeadline = acfg.DefaultDeadline
		rt.adm = admission.New(acfg)
	}
	if cfg.CacheBudgetBytes > 0 {
		rt.cache = newCacheController(rt, cfg.CacheBudgetBytes, cfg.CacheScanInterval)
	}
	rt.server = &httpd.Server{
		Handler:      rt.handle,
		ReadTimeout:  cfg.HTTPReadTimeout,
		WriteTimeout: cfg.RequestTimeout,
		MaxConns:     cfg.MaxConns,
	}
	return rt
}

// ErrNoModule reports an unknown function name.
var ErrNoModule = errors.New("core: no such module")

// ErrDuplicateModule reports a name collision at registration.
var ErrDuplicateModule = errors.New("core: module already registered")

// RegisterWCC compiles WCC source and registers it under name: the
// expensive path, run once at deployment.
func (rt *Runtime) RegisterWCC(name, source string, opts wcc.Options) (*Module, error) {
	res, err := wcc.Compile(source, opts)
	if err != nil {
		return nil, fmt.Errorf("core: register %s: %w", name, err)
	}
	return rt.registerBinary(name, res.Binary, "main", "")
}

// RegisterWasm registers a wasm binary under name. Modules may import the
// sledge ABI, the math module, and/or wasi_snapshot_preview1.
func (rt *Runtime) RegisterWasm(name string, bin []byte, entry string) (*Module, error) {
	return rt.registerBinary(name, bin, entry, "")
}

// registerBinary compiles bin with the runtime's engine configuration and
// registers it.
func (rt *Runtime) registerBinary(name string, bin []byte, entry, tenant string) (*Module, error) {
	cm, err := engine.CompileBinary(bin, rt.hostReg, rt.EngineConfig())
	if err != nil {
		return nil, fmt.Errorf("core: register %s: %w", name, err)
	}
	if entry == "" {
		entry = "main"
	}
	m := &Module{Name: name, Entry: entry, Tenant: tenant}
	m.cm.Store(cm)
	if rt.cache != nil {
		// The bounded cache can only evict a module's compiled body when
		// the binary survives to recompile from.
		m.source = bin
	}
	return rt.register(m)
}

// RegisterCompiled registers an already-compiled module. The runtime has no
// binary to recompile from, so the module serves the given form forever:
// the bounded cache never drops its body. The module must have been
// compiled with EngineConfig(); any other configuration is refused.
func (rt *Runtime) RegisterCompiled(name string, cm *engine.CompiledModule, entry, tenant string) (*Module, error) {
	if err := rt.checkCompiled(name, cm); err != nil {
		return nil, err
	}
	if entry == "" {
		entry = "main"
	}
	m := &Module{Name: name, Entry: entry, Tenant: tenant}
	m.cm.Store(cm)
	return rt.register(m)
}

// checkCompiled refuses a module compiled with any configuration but the
// runtime's. The pool needs block-metered code that yields: a naive-tier
// module would trap at the end of its caller slice, and a NoBlockMeter one
// would spend a quantum's gas as dispatches, about three times as long.
func (rt *Runtime) checkCompiled(name string, cm *engine.CompiledModule) error {
	got, want := cm.Config(), rt.EngineConfig()
	if got == want {
		return nil
	}
	if ours := got; ours.Slabs != nil {
		if ours.Slabs = want.Slabs; ours == want {
			// %+v would print two configs that differ only in an address.
			return fmt.Errorf("core: module %s: compiled for another runtime", name)
		}
	}
	return fmt.Errorf("core: module %s: compiled with %+v, the runtime compiles with %+v", name, got, want)
}

// register inserts a fully constructed module into the registry.
func (rt *Runtime) register(m *Module) (*Module, error) {
	if strings.HasPrefix(m.Name, PipelinePrefix) {
		return nil, fmt.Errorf("core: module %s: the %q name prefix is reserved for pipelines", m.Name, PipelinePrefix)
	}
	rt.mu.Lock()
	if _, dup := rt.registry[m.Name]; dup {
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicateModule, m.Name)
	}
	rt.registry[m.Name] = m
	rt.mu.Unlock()
	if rt.cache != nil {
		rt.cache.onRegister(m)
	}
	return m, nil
}

// Unregister removes the module registered under name and clears its
// admission breaker. In-flight invocations hold their own module reference
// and finish normally — but the module's idle instance pool is closed and
// purged immediately, so pooled instances cannot outlive the registration:
// without this, 64 idle instances per unregistered module would survive
// until the last in-flight reference happened to be collected. Their linear
// memories are cleared and handed to the runtime's slab recycler, where the
// next deployment's first instantiation finds them. It reports whether a
// module was removed.
func (rt *Runtime) Unregister(name string) bool {
	rt.mu.Lock()
	m, ok := rt.registry[name]
	if ok {
		delete(rt.registry, name)
	}
	rt.mu.Unlock()
	if !ok {
		return false
	}
	if cm := m.Compiled(); cm != nil {
		cm.ClosePool()
	}
	if rt.cache != nil {
		rt.cache.forget(name)
	}
	if rt.adm != nil {
		rt.adm.ResetModule(name)
	}
	return true
}

// Replace atomically swaps the module registered under name — the redeploy
// path for a breaker-tripped or updated function — registering it fresh if
// absent. The new deployment starts with a clean circuit and, being a new
// *Module, an unpriced one; requests still in flight on the old deployment
// record into the old module and the dropped breaker. Like
// RegisterCompiled, it refuses a module not compiled with EngineConfig().
func (rt *Runtime) Replace(name string, cm *engine.CompiledModule, entry, tenant string) (*Module, error) {
	if err := rt.checkCompiled(name, cm); err != nil {
		return nil, err
	}
	if entry == "" {
		entry = "main"
	}
	m := &Module{Name: name, Entry: entry, Tenant: tenant}
	m.cm.Store(cm)
	rt.mu.Lock()
	old := rt.registry[name]
	rt.registry[name] = m
	rt.mu.Unlock()
	if old != nil {
		// The replaced deployment is retired for good: close its pool so
		// idle instances retire now (linear memories to the slab recycler)
		// instead of with the last in-flight request.
		if ocm := old.Compiled(); ocm != nil {
			ocm.ClosePool()
		}
	}
	if rt.cache != nil {
		rt.cache.onRegister(m)
	}
	if rt.adm != nil {
		rt.adm.ResetModule(name)
	}
	return m, nil
}

// revive recompiles a registered-but-cold module — one whose compiled body
// the bounded cache evicted — with the runtime's engine configuration and
// swaps it in. The module keeps its price: same code, same gas.
func (rt *Runtime) revive(m *Module) (*engine.CompiledModule, error) {
	m.recompileMu.Lock()
	defer m.recompileMu.Unlock()
	if cm := m.Compiled(); cm != nil {
		return cm, nil // another request already revived it
	}
	if m.source == nil {
		return nil, fmt.Errorf("core: %s: module is cold and has no retained source", m.Name)
	}
	cm, err := engine.CompileBinary(m.source, rt.hostReg, rt.EngineConfig())
	if err != nil {
		return nil, fmt.Errorf("core: revive %s: %w", m.Name, err)
	}
	m.cm.Store(cm)
	if rt.cache != nil {
		rt.cache.onRevive(m)
	}
	return cm, nil
}

// cost is the runtime's price of one request for an invocation name, at
// the pool's learned gas rate (admission.Config.Cost): a module's price, or
// for "p/<name>" the sum of the pipeline's stage prices. 0 for an unknown
// name or one with no completion yet.
func (rt *Runtime) cost(name string) time.Duration {
	rate := rt.pool.GasRate()
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if pname, isPipe := splitPipelineName(name); isPipe {
		if p, ok := rt.pipelines[pname]; ok {
			return rt.chainCostLocked(p, rate)
		}
		return 0
	}
	if m, ok := rt.registry[name]; ok {
		return m.cost(rate)
	}
	return 0
}

// Lookup returns the module registered under name.
func (rt *Runtime) Lookup(name string) (*Module, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	m, ok := rt.registry[name]
	return m, ok
}

// Modules lists registered module names.
func (rt *Runtime) Modules() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.registry))
	for name := range rt.registry {
		out = append(out, name)
	}
	return out
}

// Invoke executes one request against the named function, bypassing HTTP.
// It blocks until the sandbox completes and returns the response body.
func (rt *Runtime) Invoke(name string, req []byte) ([]byte, error) {
	return rt.InvokeWithDeadline(name, req, 0)
}

// InvokeWithDeadline is Invoke with an explicit admission deadline: when
// the controller estimates the request would wait longer than deadline for
// a worker, it is shed immediately with an *admission.Rejection error
// instead of queueing. deadline <= 0 uses the controller default; without
// an admission controller it is ignored.
func (rt *Runtime) InvokeWithDeadline(name string, req []byte, deadline time.Duration) ([]byte, error) {
	if pname, isPipe := splitPipelineName(name); isPipe {
		// The reserved pipeline namespace: one name, one ticket, one
		// deadline for the whole chain (pipeline.go). Cluster routers and
		// the HTTP surface reach pipelines through this same demux, so a
		// chain routes whole — never per-stage.
		return rt.InvokePipelineWithDeadline(pname, req, deadline)
	}
	m, ok := rt.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoModule, name)
	}
	ticket, err := rt.admit(m.Tenant, m.Name, deadline)
	if err != nil {
		return nil, err
	}
	out, outcome, err := rt.run(m, req)
	if ticket != nil {
		ticket.Done(outcome, 0)
	}
	return out, err
}

// admit passes one request through the admission controller under the
// invocation name — a module's, or a pipeline's "p/<name>" — and its
// tenant: a nil ticket without a controller, and an error wrapping the
// *admission.Rejection when the request is shed.
func (rt *Runtime) admit(tenant, name string, deadline time.Duration) (*admission.Ticket, error) {
	if rt.adm == nil {
		return nil, nil
	}
	if tenant == "" {
		tenant = "default"
	}
	ticket, rej := rt.adm.Admit(tenant, name, deadline)
	if rej != nil {
		return nil, fmt.Errorf("core: %s: %w", name, rej)
	}
	return ticket, nil
}

// run executes one admitted request end-to-end: start it, wait for
// completion or timeout, and copy its reply out. It reports the admission
// outcome alongside the response.
func (rt *Runtime) run(m *Module, req []byte) (out []byte, outcome admission.Outcome, err error) {
	sb, err := rt.start(m, nil, req, -1)
	if err != nil {
		return nil, admission.OutcomeTrap, err
	}
	return rt.wait(m, sb)
}

// start instantiates a sandbox for one request of m and hands it to the
// scheduler, with affinity for one worker (negative: none), which runs its
// first slice here. Run finishes the sandbox exactly once whatever happens
// (ErrStopped included), so one wait on Done, or one Defer, covers every
// outcome. inst, when not nil, is an instance of m's compiled form acquired
// beforehand (a pipeline prefetches its next stage's) and the sandbox runs
// on it. Otherwise the compiled form is loaded exactly once, here: a
// concurrent cache eviction drops the module pointer for future requests
// while this one finishes untouched on the code it started with.
func (rt *Runtime) start(m *Module, inst *engine.Instance, req []byte, affinity int) (*sandbox.Sandbox, error) {
	var cm *engine.CompiledModule
	if inst != nil {
		cm = inst.Module()
	} else if cm = m.Compiled(); cm == nil {
		// Registered-but-cold: the bounded cache dropped the compiled body.
		// Recompile it before serving.
		var err error
		if cm, err = rt.revive(m); err != nil {
			return nil, err
		}
	}
	sb, err := sandbox.New(cm, req, sandbox.Options{
		Entry:           m.Entry,
		KV:              rt.cfg.KV,
		Tenant:          m.Tenant,
		Instance:        inst,
		MaxHandoffBytes: rt.cfg.MaxHandoffBytes,
	})
	if err != nil {
		return nil, err
	}
	rt.pool.Run(sb, affinity)
	return sb, nil
}

// wait waits for a started sandbox on Done, under the request timeout
// unless the caller's slice finished it, copies its result out and
// releases it.
func (rt *Runtime) wait(m *Module, sb *sandbox.Sandbox) (out []byte, outcome admission.Outcome, err error) {
	select {
	case <-sb.Done():
		// Finished in the caller's slice: no timer, no wake-up.
	default:
		timer := rt.takeTimer()
		done := rt.await(sb, timer)
		rt.putTimer(timer, !done)
		if !done {
			return nil, admission.OutcomeTimeout, rt.timedOut(m, nil)
		}
	}
	body, outcome, err := m.complete(sb, nil)
	if len(body) > 0 {
		// Copy out before the buffer returns to the pool.
		out = append([]byte(nil), body...)
	}
	sb.Release()
	return out, outcome, err
}

// complete accounts a finished sandbox and maps it to its result: the body
// (aliasing the sandbox, so it must be copied before Release) or the
// error, with the admission outcome. Every way of waiting — Done, the
// finisher hook of a deferred HTTP reply, and a pipeline's stage, where p
// names the chain in the error (nil for a lone request) — maps a
// completion here.
//
//sledge:noalloc
func (m *Module) complete(sb *sandbox.Sandbox, p *Pipeline) ([]byte, admission.Outcome, error) {
	m.recordCompletion(sb)
	if sb.State() == sandbox.StateTrapped {
		m.failures.Add(1)
		return nil, admission.OutcomeTrap, m.failed(p, sb.Err)
	}
	// Output, not Response: a function that declared a sledge.output
	// region gets the same reply here as it hands a pipeline consumer —
	// bit-identical results whether it runs alone or as a stage.
	body, err := sb.Output()
	if err != nil {
		m.failures.Add(1)
		return nil, admission.OutcomeTrap, m.failed(p, err)
	}
	return body, admission.OutcomeSuccess, nil
}

// failed names the module in a request's error, after the pipeline p when
// the request was one of p's stages.
func (m *Module) failed(p *Pipeline, err error) error {
	if p != nil {
		return fmt.Errorf("core: %s: stage %s: %w", p.route, m.Name, err)
	}
	return fmt.Errorf("core: %s: %w", m.Name, err)
}

// timedOut accounts a request whose timeout disowned its sandbox and
// returns its error, named as failed names it.
func (rt *Runtime) timedOut(m *Module, p *Pipeline) error {
	rt.abandoned.Add(1)
	m.failures.Add(1)
	return m.failed(p, fmt.Errorf("request timed out after %v", rt.cfg.RequestTimeout))
}

// takeTimer takes a request timer from the pool, armed for RequestTimeout.
func (rt *Runtime) takeTimer() *time.Timer {
	timer, _ := rt.timers.Get().(*time.Timer)
	if timer == nil {
		return time.NewTimer(rt.cfg.RequestTimeout)
	}
	timer.Reset(rt.cfg.RequestTimeout)
	return timer
}

// putTimer returns a request timer to the pool. fired reports that await
// consumed its token; any other timer is stopped first, and dropped if it
// fired meanwhile, since its channel holds a stale token that would poison
// the pool.
func (rt *Runtime) putTimer(timer *time.Timer, fired bool) {
	if fired || timer.Stop() {
		rt.timers.Put(timer)
	}
}

// await waits on a sandbox the pool holds, under a request timer the caller
// owns. It returns false when the timer won and the waiter disowned the
// sandbox (a worker reaps and recycles it when it next surfaces); the
// timer's token is consumed. It returns true once sb is done, with the
// timer armed — re-armed for a full RequestTimeout if it fired as sb
// finished — so a pipeline holds one timer across its stages.
func (rt *Runtime) await(sb *sandbox.Sandbox, timer *time.Timer) bool {
	select {
	case <-sb.Done():
	case <-timer.C:
		if sb.Abandon() {
			return false
		}
		// Lost the race: the sandbox finished first. Consume its
		// notification and proceed as a normal completion.
		<-sb.Done()
		timer.Reset(rt.cfg.RequestTimeout)
	}
	return true
}

// handle is the listener-core request path: demultiplex by URL, admit (or
// shed), instantiate a sandbox and run its first slice. A request that
// finishes there replies here; the rest go to a worker's inbox and, on a
// keep-alive connection, reply from wherever they finish (deferred.go).
func (rt *Runtime) handle(req *httpd.Request) httpd.Response {
	name := strings.TrimPrefix(req.Path, "/")
	if i := strings.IndexByte(name, '?'); i >= 0 {
		name = name[:i]
	}
	if name == "__stats" {
		return rt.statsResponse()
	}
	if name == "__health" {
		return rt.healthResponse()
	}
	var deadline time.Duration
	if v := req.Header[DeadlineHeader]; v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			deadline = time.Duration(ms) * time.Millisecond
		}
	}
	if _, isPipe := splitPipelineName(name); isPipe {
		return httpResponse(rt.InvokeWithDeadline(name, req.Body, deadline))
	}
	m, ok := rt.Lookup(name)
	if !ok {
		return httpResponse(nil, fmt.Errorf("%w: %s", ErrNoModule, name))
	}
	ticket, err := rt.admit(m.Tenant, m.Name, deadline)
	if err != nil {
		return httpResponse(nil, err)
	}
	var out []byte
	outcome := admission.OutcomeTrap
	sb, err := rt.start(m, nil, req.Body, -1)
	if err == nil {
		// An empty Done means the pool still holds the sandbox. One the
		// caller's slice finished (ping) replies here, as Invoke does.
		if len(sb.Done()) == 0 {
			if rep := req.Defer(); rep != nil {
				rt.callOn(rep).begin(m, sb, ticket)
				return httpd.Response{}
			}
		}
		out, outcome, err = rt.wait(m, sb)
	}
	if ticket != nil {
		ticket.Done(outcome, 0)
	}
	return httpResponse(out, err)
}

// httpResponse maps an invocation's result to its HTTP reply.
func httpResponse(body []byte, err error) httpd.Response {
	if err == nil {
		return httpd.Response{Status: 200, Body: body}
	}
	return errorResponse(err)
}

// errorResponse maps a failed invocation to its HTTP reply. It is apart
// from httpResponse because errors.As moves rej to the heap where it is
// declared: a reply that succeeds allocates nothing.
func errorResponse(err error) httpd.Response {
	var rej *admission.Rejection
	switch {
	case errors.Is(err, ErrNoModule), errors.Is(err, ErrNoPipeline):
		return httpd.Response{Status: 404, Body: []byte(err.Error() + "\n")}
	case errors.Is(err, abi.ErrHandoffTooLarge):
		// The function declared an output region over MaxHandoffBytes:
		// the produced payload is too large to hand off or reply with.
		return httpd.Response{Status: 413, Body: []byte(err.Error() + "\n")}
	case errors.As(err, &rej):
		return httpd.Response{
			Status:      rej.Status,
			RetryAfter:  rej.RetryAfter,
			ContentType: "text/plain",
			Body:        []byte(rej.Reason + "\n"),
		}
	}
	return httpd.Response{Status: 500, Body: []byte(err.Error() + "\n")}
}

// statsResponse serves GET /__stats: scheduler counters, listener
// counters, admission-control state, and the module registry as JSON, for
// operators and the experiment harness.
func (rt *Runtime) statsResponse() httpd.Response {
	st := rt.pool.Stats()
	gasLo, gasHi := rt.pool.GasPerMS()
	rate := rt.pool.GasRate()
	// One critical section for both the name list and the per-module
	// snapshots, so the two views are consistent with each other.
	rt.mu.RLock()
	modules := make([]string, 0, len(rt.registry))
	perModule := make(map[string]ModuleStats, len(rt.registry))
	costs := make(map[string]int64, len(rt.registry)+len(rt.pipelines))
	for name, m := range rt.registry {
		modules = append(modules, name)
		perModule[name] = m.Stats()
		if c := m.cost(rate); c > 0 {
			costs[name] = int64(c)
		}
	}
	var pipelines map[string]PipelineStats
	if len(rt.pipelines) > 0 {
		pipelines = make(map[string]PipelineStats, len(rt.pipelines))
		for name, p := range rt.pipelines {
			pipelines[name] = p.Stats()
			if c := rt.chainCostLocked(p, rate); c > 0 {
				costs[PipelinePrefix+name] = int64(c)
			}
		}
	}
	rt.mu.RUnlock()
	payload := struct {
		Modules     []string                 `json:"modules"`
		PerModule   map[string]ModuleStats   `json:"per_module"`
		Pipelines   map[string]PipelineStats `json:"pipelines,omitempty"`
		CostNanos   map[string]int64         `json:"cost_ns"`
		Submitted   uint64                   `json:"submitted"`
		Completed   uint64                   `json:"completed"`
		Trapped     uint64                   `json:"trapped"`
		Preemptions uint64                   `json:"preemptions"`
		Pauses      uint64                   `json:"pauses"`
		Steals      uint64                   `json:"steals"`
		Blocked     uint64                   `json:"blocked"`
		Abandoned   uint64                   `json:"abandoned"`
		Inflight    int                      `json:"inflight"`
		QueueDepth  int                      `json:"queue_depth"`
		Utilization float64                  `json:"utilization"`
		FuelQuantum int64                    `json:"fuel_quantum"`
		GasPerMS    gasRate                  `json:"gas_per_ms"`
		Server      serverStats              `json:"server"`
		Admission   *admission.Snapshot      `json:"admission,omitempty"`
		Cache       *CacheSnapshot           `json:"cache,omitempty"`
		Slabs       engine.SlabStats         `json:"slabs"`
	}{
		Modules:     modules,
		PerModule:   perModule,
		Pipelines:   pipelines,
		CostNanos:   costs,
		Submitted:   st.Submitted,
		Completed:   st.Completed,
		Trapped:     st.Trapped,
		Preemptions: st.Preemptions,
		Pauses:      st.Pauses,
		Steals:      st.Steals,
		Blocked:     st.Blocked,
		Abandoned:   rt.abandoned.Load(),
		Inflight:    rt.pool.Inflight(),
		QueueDepth:  rt.pool.QueueDepth(),
		Utilization: rt.pool.Utilization(),
		FuelQuantum: rt.pool.FuelQuantum(),
		GasPerMS:    gasRate{Min: gasLo, Max: gasHi},
		Server: serverStats{
			Accepted: rt.server.Accepted.Load(),
			Served:   rt.server.Served.Load(),
			Rejected: rt.server.Rejected.Load(),
			TimedOut: rt.server.TimedOut.Load(),
		},
		Slabs: rt.slabs.Stats(),
	}
	if rt.adm != nil {
		snap := rt.adm.Stats()
		payload.Admission = &snap
	}
	if csnap, ok := rt.CacheStats(); ok {
		payload.Cache = &csnap
	}
	body, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return httpd.Response{Status: 500, Body: []byte(err.Error())}
	}
	return httpd.Response{Status: 200, ContentType: "application/json", Body: body}
}

// gasRate is the range, over the workers, of the learned gas-per-millisecond
// rate the scheduler converts its quantum with: fuel_quantum ÷ gas_per_ms is
// how long a slice lasts on this machine right now.
type gasRate struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// serverStats is the listener-side accounting exposed via /__stats.
type serverStats struct {
	Accepted uint64 `json:"accepted"`
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
	TimedOut uint64 `json:"timed_out"`
}

// Serve runs the HTTP listener until Close.
func (rt *Runtime) Serve(ln net.Listener) error {
	rt.lnMu.Lock()
	rt.ln = ln
	rt.lnMu.Unlock()
	return rt.server.Serve(ln)
}

// ListenAndServe listens on addr and serves until Close.
func (rt *Runtime) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return rt.Serve(ln)
}

// Addr returns the bound listener address, if serving.
func (rt *Runtime) Addr() net.Addr {
	rt.lnMu.Lock()
	defer rt.lnMu.Unlock()
	if rt.ln == nil {
		return nil
	}
	return rt.ln.Addr()
}

// Stats exposes scheduler counters.
func (rt *Runtime) Stats() sched.Stats { return rt.pool.Stats() }

// AdmissionStats returns the admission controller's snapshot; ok is false
// when admission is disabled.
func (rt *Runtime) AdmissionStats() (admission.Snapshot, bool) {
	if rt.adm == nil {
		return admission.Snapshot{}, false
	}
	return rt.adm.Stats(), true
}

// Abandoned reports how many requests timed out leaving a running sandbox
// behind (reaped asynchronously by the workers).
func (rt *Runtime) Abandoned() uint64 { return rt.abandoned.Load() }

// Pool exposes the scheduler for experiments.
func (rt *Runtime) Pool() *sched.Pool { return rt.pool }

// Drain gracefully shuts the runtime down: stop admitting new requests
// (503 + Retry-After), let queued and in-flight requests finish within
// timeout, then close the listener and the worker pool. It reports whether
// everything completed before the timeout forced the remainder.
func (rt *Runtime) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	if rt.cache != nil {
		rt.cache.close()
	}
	if rt.adm != nil {
		rt.adm.StartDrain()
	}
	clean := true
	if rt.server != nil {
		clean = rt.server.Drain(time.Until(deadline))
	}
	if rt.adm != nil {
		clean = rt.adm.WaitIdle(time.Until(deadline)) && clean
	}
	clean = rt.pool.Quiesce(time.Until(deadline)) && clean
	rt.pool.Stop()
	return clean
}

// Close shuts down the listener and the worker pool immediately; use Drain
// for graceful shutdown.
func (rt *Runtime) Close() error {
	if rt.cache != nil {
		rt.cache.close()
	}
	var err error
	if rt.server != nil {
		err = rt.server.Close()
	}
	rt.pool.Stop()
	return err
}

// EngineConfig returns the one engine configuration modules are compiled
// with, defaulted as engine.CompiledModule.Config reports it, and carrying
// the runtime's slab recycler.
func (rt *Runtime) EngineConfig() engine.Config {
	return engine.Config{Bounds: rt.cfg.Bounds, Slabs: &rt.slabs}.WithDefaults()
}
