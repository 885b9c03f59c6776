package core

// Function composition: a pipeline is a registered, ordered module chain —
// the degenerate DAG — invoked by name (POST /p/<name>, Invoke("p/<name>")).
// Co-located stages hand off through shared linear-memory buffers instead of
// HTTP self-calls: a stage declares its result region via sledge.output, the
// executor aliases that region as the next stage's Request (keeping the
// producing instance alive until the consumer finishes), and the single
// bounds-checked copy between instance memories happens inside the next
// stage's sledge.read. No serialization, no loopback hop, no per-stage
// admission. See docs/PIPELINES.md for the contract.
//
// Scheduling: the executor acquires the next stage's pooled instance while
// the current stage runs (overlapping instantiation with execution) and
// submits each continuation with affinity for the worker that ran the
// previous stage (the affinity argument of sched.Pool.Run, which runs a
// stage's first short slice on the chain's own goroutine and places the rest
// as SubmitAffine does), so the handoff buffer is consumed on
// the core whose cache just wrote it. Stealing still applies to the
// continuation, so affinity never defeats work conservation.
//
// Admission: one ticket under the reserved name "p/<name>" covers the whole
// chain, and one deadline is threaded across it. The controller prices the
// pipeline at the sum of its stages' prices. Mid-chain, each stage is shed
// against the *remaining* budget — deadline minus time already spent in
// prior stages — never the full request deadline.
//
// Gas stays deterministic: each stage is charged its static cost exactly as
// a standalone invoke would be, and the chain's gas is the sum — bit-equal
// to invoking the stages individually with the same payloads.

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sledge/internal/admission"
	"sledge/internal/engine"
	"sledge/internal/sandbox"
)

// PipelinePrefix is the reserved invocation-name prefix for pipelines: the
// HTTP surface exposes a pipeline at /p/<name>, and the same "p/<name>"
// string names it in Invoke, admission accounting, health snapshots, and
// cluster routing (a cluster routes the whole chain to one node, never
// per-stage). Module names must not start with it.
const PipelinePrefix = "p/"

// ErrNoPipeline reports an unknown pipeline name.
var ErrNoPipeline = errors.New("core: no such pipeline")

// ErrDuplicatePipeline reports a name collision at pipeline registration.
var ErrDuplicatePipeline = errors.New("core: pipeline already registered")

// ErrEmptyPipeline reports a RegisterPipeline call with no stages.
var ErrEmptyPipeline = errors.New("core: pipeline needs at least one stage")

// Pipeline is a registered module chain. Stage modules are resolved by name
// at each invocation, so Replace/Unregister of a stage behaves exactly as it
// does for direct invokes.
type Pipeline struct {
	Name string
	// Tenant attributes the whole chain's admission ticket; empty means
	// the default tenant.
	Tenant string

	stages []string

	invocations atomic.Uint64
	failures    atomic.Uint64
	sheds       atomic.Uint64
	totalNanos  atomic.Int64
	gas         atomic.Uint64

	// Handoff accounting for the N-1 intermediate boundaries: fast counts
	// sledge.output-declared regions handed to the next stage zero-copy,
	// buffered counts stages that fell back to the sledge.write Response
	// buffer (still in-memory, still no HTTP hop).
	fastHandoffs     atomic.Uint64
	bufferedHandoffs atomic.Uint64
	handoffBytes     atomic.Uint64
}

// StageNames returns the chain's module names in execution order.
func (p *Pipeline) StageNames() []string {
	out := make([]string, len(p.stages))
	copy(out, p.stages)
	return out
}

// PipelineStats is a pipeline's accounting snapshot (served in /__stats).
type PipelineStats struct {
	Stages      []string `json:"stages"`
	Invocations uint64   `json:"invocations"`
	Failures    uint64   `json:"failures"`
	// Sheds counts chains cut mid-flight because a later stage's price
	// exceeded the remaining deadline budget.
	Sheds       uint64        `json:"sheds"`
	MeanLatency time.Duration `json:"mean_latency_ns"`
	// Gas is the cumulative chain gas: the sum of each stage's static
	// charge-point cost, bit-identical to invoking the stages separately.
	Gas              uint64 `json:"gas"`
	FastHandoffs     uint64 `json:"fast_handoffs"`
	BufferedHandoffs uint64 `json:"buffered_handoffs"`
	HandoffBytes     uint64 `json:"handoff_bytes"`
}

// Stats returns the pipeline's accounting snapshot.
func (p *Pipeline) Stats() PipelineStats {
	st := PipelineStats{
		Stages:           p.StageNames(),
		Invocations:      p.invocations.Load(),
		Failures:         p.failures.Load(),
		Sheds:            p.sheds.Load(),
		Gas:              p.gas.Load(),
		FastHandoffs:     p.fastHandoffs.Load(),
		BufferedHandoffs: p.bufferedHandoffs.Load(),
		HandoffBytes:     p.handoffBytes.Load(),
	}
	if st.Invocations > 0 {
		st.MeanLatency = time.Duration(p.totalNanos.Load() / int64(st.Invocations))
	}
	return st
}

// RegisterPipeline registers an ordered module chain under name, invocable
// at POST /p/<name> and Invoke("p/<name>"). Every stage must already be
// registered; stages may repeat. The first return of a chain-long journey:
// stage 0 reads the request body, stage N-1's result is the reply.
func (rt *Runtime) RegisterPipeline(name string, stages ...string) (*Pipeline, error) {
	if name == "" {
		return nil, fmt.Errorf("core: pipeline needs a name")
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrEmptyPipeline, name)
	}
	for _, s := range stages {
		if _, ok := rt.Lookup(s); !ok {
			return nil, fmt.Errorf("core: pipeline %s: stage %w: %s", name, ErrNoModule, s)
		}
	}
	p := &Pipeline{Name: name, stages: append([]string(nil), stages...)}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.pipelines == nil {
		rt.pipelines = make(map[string]*Pipeline)
	}
	if _, dup := rt.pipelines[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicatePipeline, name)
	}
	rt.pipelines[name] = p
	return p, nil
}

// LookupPipeline returns the pipeline registered under name.
func (rt *Runtime) LookupPipeline(name string) (*Pipeline, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	p, ok := rt.pipelines[name]
	return p, ok
}

// Pipelines lists registered pipeline names.
func (rt *Runtime) Pipelines() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.pipelines))
	for name := range rt.pipelines {
		out = append(out, name)
	}
	return out
}

// InvokePipeline executes the named chain end-to-end, bypassing HTTP.
func (rt *Runtime) InvokePipeline(name string, req []byte) ([]byte, error) {
	return rt.InvokePipelineWithDeadline(name, req, 0)
}

// InvokePipelineWithDeadline is InvokePipeline with an explicit deadline:
// one admission ticket and one deadline cover the whole chain. The deadline
// gates initial admission (whole-chain estimate vs queueing delay) and then
// sheds later stages against the remaining budget as earlier stages consume
// it.
func (rt *Runtime) InvokePipelineWithDeadline(name string, req []byte, deadline time.Duration) ([]byte, error) {
	p, ok := rt.LookupPipeline(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoPipeline, name)
	}
	if rt.adm == nil {
		out, _, err := rt.runPipeline(p, req, deadline)
		return out, err
	}
	tenant := p.Tenant
	if tenant == "" {
		tenant = "default"
	}
	ticket, rej := rt.adm.Admit(tenant, PipelinePrefix+p.Name, deadline)
	if rej != nil {
		return nil, fmt.Errorf("core: %s%s: %w", PipelinePrefix, name, rej)
	}
	if deadline <= 0 {
		// The controller admitted against its default deadline; thread the
		// same budget through the mid-chain shed checks.
		deadline = rt.admDefaultDeadline
	}
	out, outcome, err := rt.runPipeline(p, req, deadline)
	ticket.Done(outcome, 0)
	return out, err
}

// stageModule resolves one stage to its module and installed compiled form,
// reviving cold modules exactly like a direct invoke.
func (rt *Runtime) stageModule(name string) (*Module, *engine.CompiledModule, error) {
	m, ok := rt.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoModule, name)
	}
	cm := m.Compiled()
	if cm == nil {
		var err error
		if cm, err = rt.revive(m); err != nil {
			return nil, nil, err
		}
	}
	return m, cm, nil
}

// handoff resolves a completed stage's result for the next stage: the
// declared output region (aliasing the stage's linear memory) or the
// Response buffer. On the steady-state path this allocates nothing — the
// slice aliases memory owned by the sandbox, which the executor keeps alive
// until the consumer finishes.
//
//sledge:noalloc
func handoff(sb *sandbox.Sandbox) ([]byte, bool, error) {
	out, err := sb.Output()
	return out, sb.OutputDeclared(), err
}

// recordHandoff accounts one intermediate stage boundary.
//
//sledge:noalloc
func (p *Pipeline) recordHandoff(declared bool, n int) {
	if declared {
		p.fastHandoffs.Add(1)
	} else {
		p.bufferedHandoffs.Add(1)
	}
	p.handoffBytes.Add(uint64(n))
}

// runPipeline executes one admitted chain: for each stage, shed against the
// remaining deadline budget, run the stage (with affinity for the previous
// stage's worker), resolve its result region, and hand it to the next stage
// as the request. The previous stage's sandbox is kept alive — not released
// to the pool — until the consumer finishes, so the aliased handoff buffer
// stays valid; at most two stages' instances are held at once, plus one
// prefetched instance for the stage after.
func (rt *Runtime) runPipeline(p *Pipeline, req []byte, deadline time.Duration) (out []byte, outcome admission.Outcome, err error) {
	start := time.Now()
	timer, _ := rt.timers.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(rt.cfg.RequestTimeout)
	} else {
		timer.Reset(rt.cfg.RequestTimeout)
	}

	input := req
	var prev *sandbox.Sandbox // completed producer of input, held for its memory
	var totalGas uint64
	affinity := int32(-1)

	// Prefetched instance for the next stage (acquired while the current
	// stage runs, consumed by the next iteration). Error paths funnel
	// through chainCleanup — a plain method call, not a defer or closure,
	// so the steady-state success path stays allocation-free.
	var nextM *Module
	var nextCM *engine.CompiledModule
	var nextInst *engine.Instance

	n := len(p.stages)
	for i := 0; i < n; i++ {
		var m *Module
		var cm *engine.CompiledModule
		var inst *engine.Instance
		if nextInst != nil {
			m, cm, inst = nextM, nextCM, nextInst
			nextInst = nil
		} else if m, cm, err = rt.stageModule(p.stages[i]); err != nil {
			rt.chainCleanup(p, timer, prev, nextCM, nextInst)
			return nil, admission.OutcomeTrap, err
		}

		// Satellite fix: shed later stages against the *remaining* budget.
		// The original deadline was fully consumed by admission's queueing
		// check; by stage i the chain has already spent time.Since(start)
		// of it, so comparing the stage's price to the full deadline would
		// happily start a stage that cannot finish in time.
		if i > 0 && deadline > 0 {
			remaining := deadline - time.Since(start)
			if est := m.cost(rt.pool.GasRate()); remaining <= 0 || est > remaining {
				if inst != nil {
					cm.Release(inst)
				}
				rt.chainCleanup(nil, timer, prev, nil, nil)
				p.sheds.Add(1)
				return nil, admission.OutcomeTimeout,
					fmt.Errorf("core: %s%s: stage %s: %w", PipelinePrefix, p.Name, m.Name,
						&admission.Rejection{
							Status:     503,
							RetryAfter: retryHint(est),
							Reason:     admission.ReasonDeadlineShed,
						})
			}
		}

		sb, serr := sandbox.New(cm, input, sandbox.Options{
			Entry:           m.Entry,
			KV:              rt.cfg.KV,
			Tenant:          m.Tenant,
			Instance:        inst,
			MaxHandoffBytes: rt.cfg.MaxHandoffBytes,
		})
		if serr != nil {
			rt.chainCleanup(p, timer, prev, nextCM, nextInst)
			return nil, admission.OutcomeTrap, serr
		}
		// Continuations chase the previous stage's worker: the handoff
		// buffer it just produced is hot in that core's cache. Stage 0, and
		// a stage whose producer finished in the caller's slice, has no
		// worker to chase and balances normally. Run finishes sb whatever
		// happens (ErrStopped included), so the wait below covers it.
		rt.pool.Run(sb, int(affinity))

		// Overlap the next stage's instance acquisition with this stage's
		// execution: by the time the stage completes, the consumer's linear
		// memory is already reset and waiting.
		if i+1 < n {
			if nm, ncm, perr := rt.stageModule(p.stages[i+1]); perr == nil {
				nextM, nextCM = nm, ncm
				nextInst = ncm.Acquire()
			}
		}

		select {
		case <-sb.Done():
		case <-timer.C:
			if sb.Abandon() {
				rt.timers.Put(timer) // token consumed; channel known empty
				rt.abandoned.Add(1)
				m.failures.Add(1)
				rt.chainCleanup(p, nil, prev, nextCM, nextInst)
				return nil, admission.OutcomeTimeout,
					fmt.Errorf("core: %s%s: stage %s: request timed out after %v",
						PipelinePrefix, p.Name, m.Name, rt.cfg.RequestTimeout)
			}
			// Lost the race: the stage finished first. The token is
			// consumed, so the timer can re-arm for the remaining stages.
			<-sb.Done()
			timer.Reset(rt.cfg.RequestTimeout)
		}

		totalGas += sb.Gas()
		m.recordCompletion(sb)
		if sb.State() == sandbox.StateTrapped {
			m.failures.Add(1)
			terr := fmt.Errorf("core: %s%s: stage %s: %w", PipelinePrefix, p.Name, m.Name, sb.Err)
			sb.Release()
			rt.chainCleanup(p, timer, prev, nextCM, nextInst)
			return nil, admission.OutcomeTrap, terr
		}

		output, declared, oerr := handoff(sb)
		if oerr != nil {
			m.failures.Add(1)
			sb.Release()
			rt.chainCleanup(p, timer, prev, nextCM, nextInst)
			return nil, admission.OutcomeTrap, fmt.Errorf("core: %s%s: stage %s: %w",
				PipelinePrefix, p.Name, m.Name, oerr)
		}
		affinity = sb.LastWorker.Load()
		if i < n-1 {
			p.recordHandoff(declared, len(output))
		}

		// The consumer of prev's memory (this stage) is done: recycle it.
		// sb itself must now survive until the *next* stage finishes
		// reading output.
		if prev != nil {
			prev.Release()
		}
		prev = sb
		input = output
	}

	if len(input) > 0 {
		// Copy the final stage's result out before its memory returns to
		// the pool.
		out = append([]byte(nil), input...)
	}
	prev.Release()
	if timer.Stop() {
		rt.timers.Put(timer)
	}
	p.invocations.Add(1)
	p.totalNanos.Add(int64(time.Since(start)))
	p.gas.Add(totalGas)
	return out, admission.OutcomeSuccess, nil
}

// chainCleanup reclaims chain resources on an error path: the prefetched
// next-stage instance, the held producer sandbox, and the pooled timer
// (nil timer means its token was already consumed and the timer returned).
// The pipeline's failure counter is bumped when p is non-nil — deadline
// sheds pass nil and account under Sheds instead.
func (rt *Runtime) chainCleanup(p *Pipeline, timer *time.Timer, prev *sandbox.Sandbox, nextCM *engine.CompiledModule, nextInst *engine.Instance) {
	if nextInst != nil {
		nextCM.Release(nextInst)
	}
	if prev != nil {
		prev.Release()
	}
	if timer != nil && timer.Stop() {
		rt.timers.Put(timer)
	}
	if p != nil {
		p.failures.Add(1)
	}
}

// retryHint floors a mid-chain shed's Retry-After at something meaningful
// when the stage's price is tiny or unknown.
func retryHint(est time.Duration) time.Duration {
	if est < time.Millisecond {
		return time.Millisecond
	}
	return est
}

// chainCostLocked prices one run of the chain at gasPerMS: the sum of its
// stages' prices. Callers hold rt.mu.
func (rt *Runtime) chainCostLocked(p *Pipeline, gasPerMS float64) time.Duration {
	var sum time.Duration
	for _, s := range p.stages {
		if m, ok := rt.registry[s]; ok {
			sum += m.cost(gasPerMS)
		}
	}
	return sum
}

// chainResidentLocked reports whether every stage of the pipeline has its
// compiled body installed. Callers hold rt.mu.
func (rt *Runtime) chainResidentLocked(p *Pipeline) bool {
	for _, s := range p.stages {
		if m, ok := rt.registry[s]; !ok || m.Compiled() == nil {
			return false
		}
	}
	return true
}

// splitPipelineName reports whether an invocation name addresses a pipeline
// and strips the reserved prefix.
func splitPipelineName(name string) (string, bool) {
	if strings.HasPrefix(name, PipelinePrefix) {
		return name[len(PipelinePrefix):], true
	}
	return "", false
}
