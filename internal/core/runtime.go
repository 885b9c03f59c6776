// Package core is the Sledge serverless runtime (the paper's primary
// contribution): a single-process, multi-tenant runtime that accepts HTTP
// requests on a listener, instantiates a light-weight Wasm sandbox per
// request, distributes sandboxes to worker cores over a lock-free
// work-stealing deque, and schedules them preemptively for temporal
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
// tier-promotion controller (tiering.go) can swap a hotter recompile in
// while invocations are in flight: each request loads the pointer once at
// dispatch and runs that code to completion, so the old form's instance
// pool quiesces as its last requests finish and is then collected. All
// other fields are immutable after registration.
type Module struct {
	Name   string
	Entry  string
	Tenant string

	cm atomic.Pointer[engine.CompiledModule]
	// source retains the module's wasm binary when adaptive tiering may
	// recompile it at the full rung; nil for precompiled registrations
	// (which are never promoted).
	source []byte

	invocations atomic.Uint64
	failures    atomic.Uint64
	totalNanos  atomic.Int64

	// epochInvocations/epochNanos account latency per tier epoch: they
	// reset at every compiled-module swap so seedLatency — the admission
	// controller's seed estimate — describes the installed code, never a
	// retired rung's service times.
	epochInvocations atomic.Uint64
	epochNanos       atomic.Int64

	// prof is the hotness profile read by the promotion controller; its
	// padded counters are bumped on the completion path (recordCompletion).
	prof profile

	// tier is the promotion state machine (tier* consts in tiering.go);
	// lastScanInv is controller-private scan bookkeeping.
	tier        atomic.Int32
	lastScanInv uint64

	promotions     atomic.Uint32
	recompileNanos atomic.Int64

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
	// (static charge-point gas, identical across engine tiers), the
	// compute half of the tier-promotion hotness profile and the basis
	// for per-tenant accounting.
	Gas uint64 `json:"gas"`
	// Tier labels the rung of the tier ladder the installed compiled form
	// sits on ("naive", "cheap", "full"); Promotions counts background
	// tier-up swaps and LastRecompile is the wall time of the most recent
	// one — together they let operators watch the ladder work via /__stats.
	Tier          string        `json:"tier"`
	Promotions    uint32        `json:"promotions"`
	LastRecompile time.Duration `json:"last_recompile_ns"`
	// Analysis is what the static-analysis pipeline proved about the
	// module at registration time (check elision, devirtualization, stack
	// certification); all zero when analysis was disabled.
	Analysis engine.AnalysisStats `json:"analysis"`
	// Regalloc is the register-allocation summary for the module (register
	// file size, three-address fusions, branch fusions); Enabled is false
	// only when the module runs on the naive interpreter.
	Regalloc engine.RegallocStats `json:"regalloc"`
	// ResidentBytes is the module's reclaimable footprint (compiled code +
	// snapshot + idle pool slabs) — what the bounded cache charges against
	// its budget. 0 for a registered-but-cold module.
	ResidentBytes int64 `json:"resident_bytes"`
}

// TierLabelCold names a module whose compiled body the bounded cache
// evicted: still registered, lazily recompiled on the next invoke.
const TierLabelCold = "cold"

// Stats returns the module's accounting snapshot.
func (m *Module) Stats() ModuleStats {
	st := ModuleStats{
		Invocations:   m.invocations.Load(),
		Failures:      m.failures.Load(),
		Gas:           m.prof.gas.Load(),
		Tier:          TierLabelCold,
		Promotions:    m.promotions.Load(),
		LastRecompile: time.Duration(m.recompileNanos.Load()),
	}
	// A registered-but-cold module has no compiled form to describe; its
	// analysis/regalloc stats return with the lazily recompiled body.
	if cm := m.Compiled(); cm != nil {
		st.Tier = cm.TierLabel()
		st.Analysis = cm.Analysis()
		st.Regalloc = cm.Regalloc()
		st.ResidentBytes = cm.ResidentBytes()
	}
	if st.Invocations > 0 {
		st.MeanLatency = time.Duration(m.totalNanos.Load() / int64(st.Invocations))
	}
	return st
}

// Compiled exposes the currently installed compiled module (for experiments
// that need direct instantiation). The pointer is loaded atomically; a
// concurrent tier promotion may swap in a newer form at any time.
func (m *Module) Compiled() *engine.CompiledModule { return m.cm.Load() }

// seedLatency is the mean service time of the installed tier epoch, used to
// seed the admission controller's estimator. It deliberately excludes
// samples from before the last swap: seeding a freshly promoted module with
// cheap-tier latencies would shed its traffic on stale estimates.
func (m *Module) seedLatency() time.Duration {
	n := m.epochInvocations.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(m.epochNanos.Load() / int64(n))
}

// recordCompletion feeds the per-request accounting and the tier-promotion
// hotness profile; it sits on the steady-state invoke path.
//
//sledge:noalloc
func (m *Module) recordCompletion(lat time.Duration, gas uint64) {
	m.invocations.Add(1)
	m.totalNanos.Add(int64(lat))
	m.epochInvocations.Add(1)
	m.epochNanos.Add(int64(lat))
	m.prof.invocations.Add(1)
	m.prof.gas.Add(gas)
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
	// Policy and Distribution select scheduler behaviour (ablations).
	Policy       sched.Policy
	Distribution sched.Distribution
	// Engine is the sandboxing configuration; the default uses the
	// optimized tier with guard-based memory safety, like the paper's
	// production configuration.
	Engine engine.Config
	// KV is the storage backend exposed to functions; nil disables it.
	KV abi.KVStore
	// RequestTimeout bounds one invocation end-to-end. Default 30 s.
	RequestTimeout time.Duration
	// NoRecycle disables sandbox/instance pooling on the request path
	// (the churn baseline for benchmarks).
	NoRecycle bool
	// MaxHandoffBytes bounds a function's sledge.output result region
	// (the pipeline zero-copy handoff declaration); an oversized
	// declaration traps the stage and surfaces as HTTP 413. 0 means
	// abi.DefaultMaxHandoffBytes (8 MiB).
	MaxHandoffBytes uint32

	// Admission, when non-nil, enables the admission controller between
	// the listener and the scheduler. Workers, DefaultDeadline, Probe,
	// QueueDepth and SeedEstimate are filled in from the runtime when
	// unset.
	Admission *admission.Config

	// Tiering, when non-nil, enables adaptive tiering: Register* compiles
	// only the cheap rung of the tier ladder and a background controller
	// recompiles hot modules at the full rung, atomically swapping them in
	// (see tiering.go). nil — and TieringConfig{Mode: TierStatic} — keep
	// the static behaviour: full pipeline at registration, no controller.
	Tiering *TieringConfig

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
	// 0 defaults to RequestTimeout, negative disables.
	HTTPReadTimeout time.Duration
	// HTTPWriteTimeout bounds writing one response; 0 defaults to
	// RequestTimeout, negative disables.
	HTTPWriteTimeout time.Duration
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
	if c.HTTPWriteTimeout == 0 {
		c.HTTPWriteTimeout = c.RequestTimeout
	} else if c.HTTPWriteTimeout < 0 {
		c.HTTPWriteTimeout = 0
	}
	return c
}

// Runtime is a running Sledge instance.
type Runtime struct {
	cfg  Config
	pool *sched.Pool
	adm  *admission.Controller

	// ladder/tiering are the normalized adaptive-tiering configuration;
	// the tier* fields are the promotion controller's lifecycle and
	// accounting (tiering.go).
	ladder              engine.Ladder
	tiering             TieringConfig
	tierStop            chan struct{}
	tierDone            chan struct{}
	tierStopOnce        sync.Once
	promotions          atomic.Uint64
	recompileFailures   atomic.Uint64
	recompileTotalNanos atomic.Int64

	// hostReg is the shared host-function registry. It is built once and
	// treated as read-only: rebuilding it per registration shows up in
	// registration-storm profiles.
	hostReg engine.HostRegistry

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
	if cfg.Tiering != nil {
		rt.tiering = cfg.Tiering.withDefaults()
		rt.ladder = engine.NewLadder(cfg.Engine, rt.tiering.NaiveStart)
	}
	// The quantum needs no start-up calibration for cfg.Engine: each worker
	// learns gas per millisecond from the slices it runs, whatever tier and
	// IR form the modules it is handed were compiled to.
	scfg := sched.Config{
		Workers:      cfg.Workers,
		Quantum:      cfg.Quantum,
		Policy:       cfg.Policy,
		Distribution: cfg.Distribution,
	}
	rt.pool = sched.NewPool(scfg)
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
		if acfg.SeedEstimate == nil {
			// Seed a module's first service-time estimate from its
			// registry stats, so warm modules shed accurately from the
			// first overloaded request. The seed is epoch-scoped: after a
			// tier swap it reflects only the installed code's samples.
			// Pipeline names ("p/<name>") seed with the sum of their
			// stages' epoch latencies — the whole-chain cost the single
			// chain ticket must budget for.
			acfg.SeedEstimate = func(module string) time.Duration {
				if name, isPipe := splitPipelineName(module); isPipe {
					return rt.pipelineSeed(name)
				}
				if m, ok := rt.Lookup(module); ok {
					return m.seedLatency()
				}
				return 0
			}
		}
		rt.admDefaultDeadline = acfg.DefaultDeadline
		rt.adm = admission.New(acfg)
	}
	if rt.tieringActive() && rt.tiering.Mode == TierAdaptive {
		rt.startTiering()
	}
	if cfg.CacheBudgetBytes > 0 {
		rt.cache = newCacheController(rt, cfg.CacheBudgetBytes, cfg.CacheScanInterval)
	}
	rt.server = &httpd.Server{
		Handler:      rt.handle,
		ReadTimeout:  cfg.HTTPReadTimeout,
		WriteTimeout: cfg.HTTPWriteTimeout,
		MaxConns:     cfg.MaxConns,
	}
	return rt
}

// ErrNoModule reports an unknown function name.
var ErrNoModule = errors.New("core: no such module")

// ErrDuplicateModule reports a name collision at registration.
var ErrDuplicateModule = errors.New("core: module already registered")

// RegisterWCC compiles WCC source and registers it under name. Without
// tiering this is the expensive path, run once at deployment; with adaptive
// tiering only the cheap rung is compiled here and the full pipeline runs
// in the background once the module proves hot.
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

// registerBinary compiles bin at the registration rung (the cheap tier when
// adaptive tiering is on) and registers it. Adaptive-mode modules retain
// the binary so the promotion controller can recompile them at the full
// rung.
func (rt *Runtime) registerBinary(name string, bin []byte, entry, tenant string) (*Module, error) {
	cfg := rt.cfg.Engine
	tiered := rt.tieringActive()
	if tiered {
		cfg = rt.ladder.Cheap
	}
	cm, err := engine.CompileBinary(bin, rt.hostReg, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: register %s: %w", name, err)
	}
	if entry == "" {
		entry = "main"
	}
	m := &Module{Name: name, Entry: entry, Tenant: tenant}
	m.cm.Store(cm)
	if tiered && rt.tiering.Mode == TierAdaptive {
		m.source = bin
		m.tier.Store(tierCheap)
	} else if rt.cache != nil {
		// The bounded cache can only evict a module's compiled body when
		// the binary survives to recompile from; retain it even outside
		// adaptive tiering.
		m.source = bin
	}
	return rt.register(m)
}

// RegisterCompiled registers an already-compiled module. Precompiled
// registrations bypass the tier ladder: the runtime has no binary to
// recompile, so the module serves the given form forever.
func (rt *Runtime) RegisterCompiled(name string, cm *engine.CompiledModule, entry, tenant string) (*Module, error) {
	if entry == "" {
		entry = "main"
	}
	m := &Module{Name: name, Entry: entry, Tenant: tenant}
	m.cm.Store(cm)
	return rt.register(m)
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
// admission state (breaker, service-time estimate). In-flight invocations
// hold their own module reference and finish normally — but the module's
// idle instance pool is closed and purged immediately, so pooled instances
// cannot outlive the registration: without this, 64 idle instances per
// unregistered module would survive until the last in-flight reference
// happened to be collected. Their linear memories are cleared and handed
// to the engine's slab recycler, where the next deployment's first
// instantiation finds them. It reports whether a module was removed.
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
// absent. The new deployment starts with a clean circuit and service-time
// estimate; the ResetModule generation bump also stops in-flight requests
// on the old deployment from feeding their (old-code) latencies into the
// fresh estimator when they complete.
func (rt *Runtime) Replace(name string, cm *engine.CompiledModule, entry, tenant string) (*Module, error) {
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
// the bounded cache evicted — at the tier ladder's registration rung and
// swaps it in. It reuses the tiering swap machinery: the epoch latency
// accounting resets so the admission seed describes the revived rung, the
// admission estimator's generation is bumped (stale in-flight tickets from
// before the eviction cannot re-seed it), and under adaptive tiering the
// module rejoins the ladder at tierCheap, so a revived module that proves
// hot again is re-promoted by the existing controller.
func (rt *Runtime) revive(m *Module) (*engine.CompiledModule, error) {
	m.recompileMu.Lock()
	defer m.recompileMu.Unlock()
	if cm := m.Compiled(); cm != nil {
		return cm, nil // another request already revived it
	}
	if m.source == nil {
		return nil, fmt.Errorf("core: %s: module is cold and has no retained source", m.Name)
	}
	cfg := rt.cfg.Engine
	adaptive := rt.tieringActive() && rt.tiering.Mode == TierAdaptive
	if rt.tieringActive() {
		cfg = rt.ladder.Cheap
	}
	cm, err := engine.CompileBinary(m.source, rt.hostReg, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: revive %s: %w", m.Name, err)
	}
	m.swapCompiled(cm)
	if adaptive {
		m.tier.Store(tierCheap)
	} else {
		m.tier.Store(tierIdle)
	}
	if rt.adm != nil {
		rt.adm.ResetEstimate(m.Name)
	}
	if rt.cache != nil {
		rt.cache.onRevive(m)
	}
	return cm, nil
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
	if rt.adm == nil {
		out, _, _, err := rt.run(m, req)
		return out, err
	}
	tenant := m.Tenant
	if tenant == "" {
		tenant = "default"
	}
	ticket, rej := rt.adm.Admit(tenant, m.Name, deadline)
	if rej != nil {
		return nil, fmt.Errorf("core: %s: %w", name, rej)
	}
	out, lat, outcome, err := rt.run(m, req)
	ticket.Done(outcome, lat)
	return out, err
}

// run executes one admitted request end-to-end: instantiate a sandbox,
// submit it to the scheduler, wait for completion or timeout. It reports
// the observed latency and the admission outcome alongside the response.
// The compiled form is loaded exactly once, here: a concurrent tier
// promotion swaps the module pointer for future requests while this one
// finishes untouched on the code it started with.
func (rt *Runtime) run(m *Module, req []byte) (out []byte, lat time.Duration, outcome admission.Outcome, err error) {
	cm := m.Compiled()
	if cm == nil {
		// Registered-but-cold: the bounded cache dropped the compiled body.
		// Recompile at the ladder's registration rung before serving.
		if cm, err = rt.revive(m); err != nil {
			return nil, 0, admission.OutcomeTrap, err
		}
	}
	sb, err := sandbox.New(cm, req, sandbox.Options{
		Entry:           m.Entry,
		KV:              rt.cfg.KV,
		Tenant:          m.Tenant,
		NoRecycle:       rt.cfg.NoRecycle,
		MaxHandoffBytes: rt.cfg.MaxHandoffBytes,
	})
	if err != nil {
		return nil, 0, admission.OutcomeTrap, err
	}
	if err := rt.pool.Submit(sb); err != nil {
		return nil, 0, admission.OutcomeTrap, err
	}
	timer, _ := rt.timers.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(rt.cfg.RequestTimeout)
	} else {
		timer.Reset(rt.cfg.RequestTimeout)
	}
	select {
	case <-sb.Done():
		if timer.Stop() {
			rt.timers.Put(timer)
		}
		// else: the timer fired concurrently; its channel holds a stale
		// token, so drop it rather than poison the pool.
	case <-timer.C:
		rt.timers.Put(timer) // token consumed; channel known empty
		if sb.Abandon() {
			// The sandbox is still running somewhere on the pool; a
			// worker reaps and recycles it when it next surfaces.
			rt.abandoned.Add(1)
			m.failures.Add(1)
			return nil, rt.cfg.RequestTimeout, admission.OutcomeTimeout,
				fmt.Errorf("core: %s: request timed out after %v", m.Name, rt.cfg.RequestTimeout)
		}
		// Lost the race: the sandbox finished first. Consume its
		// notification and proceed as a normal completion.
		<-sb.Done()
	}
	lat = sb.Latency()
	m.recordCompletion(lat, sb.Gas())
	if sb.State() == sandbox.StateTrapped {
		m.failures.Add(1)
		err := fmt.Errorf("core: %s: %w", m.Name, sb.Err)
		sb.Release()
		return nil, lat, admission.OutcomeTrap, err
	}
	// Output, not Response: a function that declared a sledge.output
	// region gets the same reply here as it hands a pipeline consumer —
	// bit-identical results whether it runs alone or as a stage.
	resp, oerr := sb.Output()
	if oerr != nil {
		m.failures.Add(1)
		err := fmt.Errorf("core: %s: %w", m.Name, oerr)
		sb.Release()
		return nil, lat, admission.OutcomeTrap, err
	}
	if len(resp) > 0 {
		// Copy out before the buffer returns to the pool.
		out = append([]byte(nil), resp...)
	}
	sb.Release()
	return out, lat, admission.OutcomeSuccess, nil
}

// handle is the listener-core request path: demultiplex by URL, admit (or
// shed), instantiate a sandbox, push it to the work-distribution deque, and
// reply with the function's stdout.
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
	body, err := rt.InvokeWithDeadline(name, req.Body, deadline)
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
	case err != nil:
		return httpd.Response{Status: 500, Body: []byte(err.Error() + "\n")}
	}
	return httpd.Response{Status: 200, Body: body}
}

// statsResponse serves GET /__stats: scheduler counters, listener
// counters, admission-control state, and the module registry as JSON, for
// operators and the experiment harness.
func (rt *Runtime) statsResponse() httpd.Response {
	st := rt.pool.Stats()
	gasLo, gasHi := rt.pool.GasPerMS()
	// One critical section for both the name list and the per-module
	// snapshots, so the two views are consistent with each other.
	rt.mu.RLock()
	modules := make([]string, 0, len(rt.registry))
	perModule := make(map[string]ModuleStats, len(rt.registry))
	for name, m := range rt.registry {
		modules = append(modules, name)
		perModule[name] = m.Stats()
	}
	var pipelines map[string]PipelineStats
	if len(rt.pipelines) > 0 {
		pipelines = make(map[string]PipelineStats, len(rt.pipelines))
		for name, p := range rt.pipelines {
			pipelines[name] = p.Stats()
		}
	}
	rt.mu.RUnlock()
	payload := struct {
		Modules     []string                 `json:"modules"`
		PerModule   map[string]ModuleStats   `json:"per_module"`
		Pipelines   map[string]PipelineStats `json:"pipelines,omitempty"`
		Submitted   uint64                   `json:"submitted"`
		Completed   uint64                   `json:"completed"`
		Trapped     uint64                   `json:"trapped"`
		Preemptions uint64                   `json:"preemptions"`
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
		Tiering     *TieringSnapshot         `json:"tiering,omitempty"`
		Cache       *CacheSnapshot           `json:"cache,omitempty"`
		Slabs       engine.SlabStats         `json:"slabs"`
	}{
		Modules:     modules,
		PerModule:   perModule,
		Pipelines:   pipelines,
		Submitted:   st.Submitted,
		Completed:   st.Completed,
		Trapped:     st.Trapped,
		Preemptions: st.Preemptions,
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
		Slabs: engine.SlabRecyclerStats(),
	}
	if rt.adm != nil {
		snap := rt.adm.Stats()
		payload.Admission = &snap
	}
	if tsnap, ok := rt.TieringStats(); ok {
		payload.Tiering = &tsnap
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
	rt.stopTiering()
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
	rt.stopTiering()
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

// EngineConfig returns the engine configuration modules are compiled with.
func (rt *Runtime) EngineConfig() engine.Config { return rt.cfg.Engine }
