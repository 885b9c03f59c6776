// Package sched implements the Sledge serverless-first scheduler (§3.4,
// §4). Work distribution is per-worker: a submission goes straight into
// the least-loaded worker's lock-free inbox, every worker owns a
// batch-stealable run queue (Runq) scheduled with preemptive round-robin
// under a configurable quantum (temporal isolation), idle workers steal
// half a victim's queue in one transfer, and parked workers receive
// targeted wakeups. A sandbox that blocks on host I/O gives up its worker
// and waits on its own timer (Sandbox.AwaitIO); when the I/O is due it
// re-enters the pool through push like an arrival, so any worker resumes
// it — Go's runtime timers stand in for the paper's per-worker libuv loop.
// The paper's single global Chase–Lev deque fed by a listener core, and
// the per-worker event loop, are stated deviations (DESIGN.md,
// "Substitutions").
package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/sandbox"
)

// Policy selects the per-worker scheduling policy.
type Policy int

// Scheduling policies.
const (
	// PolicyPreemptiveRR is the paper's design: round-robin with an
	// involuntary preemption quantum.
	PolicyPreemptiveRR Policy = iota + 1
	// PolicyCooperative runs each sandbox until it completes or blocks —
	// the head-of-line-blocking strawman of §3.4.
	PolicyCooperative
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyPreemptiveRR:
		return "preemptive-rr"
	case PolicyCooperative:
		return "cooperative"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config configures a worker pool.
type Config struct {
	// Workers is the number of worker cores. Default 1.
	Workers int
	// Quantum is the preemption time slice (paper default: 5 ms). Each
	// worker converts it to deterministic fuel at the gas rate it learns
	// from the quanta it runs (see rateLearner).
	Quantum time.Duration
	// Policy selects preemptive vs cooperative scheduling.
	Policy Policy
}

// DefaultQuantum mirrors the paper's 5 ms time slice.
const DefaultQuantum = 5 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Quantum == 0 {
		c.Quantum = DefaultQuantum
	}
	if c.Policy == 0 {
		c.Policy = PolicyPreemptiveRR
	}
	return c
}

// maxLocalRunq bounds how many sandboxes a worker admits into its local
// round-robin queue before it stops pulling new requests.
const maxLocalRunq = 64

// idlePollBackstop bounds how long an idle worker sleeps before rechecking
// its work sources. With targeted wakeups it is only a backstop: the request
// path never waits on it.
const idlePollBackstop = 500 * time.Microsecond

// youngShare sets the pause rule's young bound: a lone sandbox whose
// request has burned less than fuel/youngShare gas (about 310 µs at the
// 5 ms default) is not paused for an arrival (see worker.turn). A short
// request runs well inside it (gps-ekf is about 40 k gas against 100–175 k),
// so one that arrives right behind another does not pause that one and then
// wait out the other's quantum.
const youngShare = 16

// Stats are cumulative pool counters.
type Stats struct {
	Submitted   uint64
	Completed   uint64
	Trapped     uint64
	Preemptions uint64
	// Pauses counts turns a lone sandbox gave up before the end of its
	// quantum because work arrived; the quantum goes on at its next turn,
	// so a pause is not a preemption.
	Pauses       uint64
	Steals       uint64
	StealBatches uint64
	Blocked      uint64
}

// stealBatchMax bounds one StealBatch transfer (and sizes the per-worker
// scratch buffer the batch is staged in before the CAS commits it).
const stealBatchMax = 64

// pad separates owner-hot atomics from fields read by other goroutines so
// a worker bumping its counters does not false-share a cache line with
// peers polling its published load.
type pad [64]byte

// Pool is the Sledge worker pool: N worker goroutines (the paper's pinned
// worker cores), each with a submission inbox and a run queue.
type Pool struct {
	cfg Config
	// fixedFuel, when positive, is the fuel of every slice and turns the
	// rate learner off: counted tests need slices that do not depend on
	// the clock. Set only through newPool.
	fixedFuel int64
	// idlePoll is how long an idle worker parks without a wakeup:
	// idlePollBackstop, unless a test that must be driven by wakeups alone
	// disables it. Set only through newPool.
	idlePoll time.Duration

	workers []*worker
	// resume is resumeIO, bound once so that blocking allocates nothing.
	resume func(*sandbox.Sandbox)
	// rr rotates Submit's tie-breaks and thieves' victim scans so neither
	// systematically favours low worker ids.
	rr atomic.Uint64

	// nparked counts workers with an armed parker; wakers skip the scan
	// entirely when it is zero.
	nparked atomic.Int64

	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	inflight  atomic.Int64
	submitted atomic.Uint64
	// blocked counts sandboxes parked on host I/O. Blocking is not a
	// worker event: a sandbox blocks in a worker's slice or in Run's.
	blocked atomic.Uint64
	// extTrapped counts sandboxes failed outside a worker's slice (queued
	// work failed by Stop, blocked work failed when its I/O is due); Stats
	// folds it into Trapped.
	extTrapped atomic.Uint64
	// callerCompleted and callerTrapped count sandboxes that finished in
	// the submitter's slice (Run); Stats folds them into Completed and
	// Trapped.
	callerCompleted atomic.Uint64
	callerTrapped   atomic.Uint64

	// Quiesce waiters share one broadcast channel, closed by the inflight
	// decrement that reaches zero. quiesceArmed keeps the completion hot
	// path to a single atomic load when nobody is waiting.
	quiesceMu    sync.Mutex
	quiesceCh    chan struct{}
	quiesceArmed atomic.Bool
}

// worker is one scheduling core: an owned run queue (peers steal batches
// from its head), a submission inbox, a parker, and owner-written counters
// aggregated by Stats. It holds no blocked sandbox: those wait on their own
// timers, and a due one may resume on any worker.
type worker struct {
	id   int
	pool *Pool

	runq  *Runq[sandbox.Sandbox]
	inbox inbox

	// held is the sandbox the last quantum preempted, kept off the run
	// queue until this round's arrivals are on it (see loop). While it is
	// set the worker has work its run queue does not show.
	held *sandbox.Sandbox

	// fuel is what the next slice gets: the quantum at the rate learned so
	// far (0 under the cooperative policy). Owner-only: no atomic sits on
	// the quantum path.
	rate rateLearner
	fuel int64

	// overflow holds admitted work that exceeded maxLocalRunq when an
	// inbox chain or a stolen batch was larger than the run queue's
	// remaining room. Owner-only; drains into runq as room appears.
	overflowHead *sandbox.Sandbox
	overflowTail *sandbox.Sandbox
	overflowN    int64

	// stealBuf stages a StealBatch before its CAS commits; reused across
	// steals so the steal path allocates nothing.
	stealBuf [stealBatchMax]*sandbox.Sandbox

	park *parker
	// idleTimer is reused across parks; a worker that cycles between idle
	// and running on every request must not allocate a fresh timer per
	// cycle (the zero-allocation steady-state path).
	idleTimer *time.Timer

	_ pad

	// qlen publishes runq + overflow once per loop iteration, after the
	// sandbox about to run has been popped (running counts that one), so
	// QueueDepth and Submit's least-loaded scan read local backlogs without
	// touching worker-owned structures.
	qlen atomic.Int64
	// running is 1 while the worker is mid-quantum — the per-worker shard
	// of the old global busy counter (the utilization signal).
	running atomic.Int32

	_ pad

	// Owner-written counters, aggregated on read by Pool.Stats.
	completed    atomic.Uint64
	trapped      atomic.Uint64
	preemptions  atomic.Uint64
	pauses       atomic.Uint64
	steals       atomic.Uint64
	stealBatches atomic.Uint64
	// gasPerMS publishes the learned rate (rounded) each time a sample
	// moves it.
	gasPerMS atomic.Int64
}

// NewPool starts the worker pool.
func NewPool(cfg Config) *Pool { return newPool(cfg, 0, 0) }

// newPool is NewPool with the test hooks: a fixed slice (see
// Pool.fixedFuel) and an idle poll other than idlePollBackstop (see
// Pool.idlePoll). Zero keeps the default of each.
func newPool(cfg Config, fixedFuel int64, idlePoll time.Duration) *Pool {
	cfg = cfg.withDefaults()
	if idlePoll == 0 {
		idlePoll = idlePollBackstop
	}
	p := &Pool{
		cfg:       cfg,
		fixedFuel: fixedFuel,
		idlePoll:  idlePoll,
		stopCh:    make(chan struct{}),
	}
	p.resume = p.resumeIO
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:   i,
			pool: p,
			runq: NewRunq[sandbox.Sandbox](maxLocalRunq),
			park: newParker(),
			rate: newRateLearner(),
		}
		w.gasPerMS.Store(int64(w.rate.rate))
		switch {
		case cfg.Policy != PolicyPreemptiveRR:
		case fixedFuel > 0:
			w.fuel = fixedFuel
		default:
			w.fuel = fuelFor(cfg.Quantum, w.rate.rate)
		}
		p.workers = append(p.workers, w)
	}
	for _, w := range p.workers {
		p.wg.Add(1)
		go w.loop()
	}
	return p
}

// ErrStopped reports work handed to the pool after Stop.
var ErrStopped = errors.New("sched: pool stopped")

// callerSliceGas is the gas Run spends on the submitter's goroutine before
// it hands a request to the workers: about 2.5 µs of execution, under the
// ~4 µs of CPU a handoff and its worker wake-up cost, and 1/780 of the
// smallest quantum the rate learner allows (800 k gas). A request that fits
// — ping is 15 gas — never leaves its connection; a longer one pays one
// extra yield and resume. Wasm running outside the worker set is bounded by
// the admitted requests × callerSliceGas, so temporal isolation among the
// workers' tenants is untouched.
const callerSliceGas = 1024

// Run is the request path's entry into the pool. Under the preemptive
// policy it first runs callerSliceGas of the sandbox on the calling
// goroutine; a sandbox that completes or traps there is counted and
// FinishNotify'd on the spot, with no worker, queue or wake-up involved. A
// sandbox that blocks there waits on its own timer and is pushed when its
// I/O is due, like one that blocked on a worker. What yields — and, under
// the cooperative policy, everything — is pushed to the affinity worker's
// inbox (see push; a negative affinity means none).
//
// Run always takes ownership: the sandbox finishes exactly once and its
// Done channel fires, failed with ErrStopped if the pool is stopped, so the
// caller's one wait covers every outcome.
//
//sledge:noalloc
func (p *Pool) Run(sb *sandbox.Sandbox, affinity int) {
	if !p.accept(sb) {
		return
	}
	if p.cfg.Policy != PolicyPreemptiveRR {
		p.push(sb, affinity)
		return
	}
	switch sb.RunQuantum(callerSliceGas) {
	case sandbox.StateComplete:
		p.callerCompleted.Add(1)
	case sandbox.StateTrapped:
		p.callerTrapped.Add(1)
	case sandbox.StateBlocked:
		p.blocked.Add(1)
		sb.AwaitIO(p.resume)
		return
	default: // yielded: a worker resumes it
		sb.Preemptions++
		p.push(sb, affinity)
		return
	}
	p.decInflight()
	sb.FinishNotify() // may recycle sb: last touch
}

// Submit hands a sandbox to the pool with no caller slice, placed on the
// least-loaded worker. The worker that finishes it calls FinishNotify, which
// signals Done or runs the hook handed to Defer. On ErrStopped the sandbox
// has been, or will be, failed with ErrStopped and FinishNotify'd.
func (p *Pool) Submit(sb *sandbox.Sandbox) error {
	if !p.accept(sb) {
		return ErrStopped
	}
	return p.push(sb, -1)
}

// accept counts a sandbox into the pool. A stopped pool refuses it: the
// sandbox is failed with ErrStopped and finished, so its waiter is released
// like that of one Stop failed in a queue.
//
//sledge:noalloc
func (p *Pool) accept(sb *sandbox.Sandbox) bool {
	if p.stopped.Load() {
		sb.Fail(ErrStopped)
		sb.FinishNotify()
		return false
	}
	p.submitted.Add(1)
	p.inflight.Add(1)
	return true
}

// push places a counted sandbox in a worker's inbox — the affinity
// worker's if the hint is in range, else the least loaded — and wakes a
// worker for it. Affinity is a placement hint, not a pin: idle peers still
// steal from that inbox (see worker.steal), so a continuation queued
// behind a worker stuck in a long quantum still runs.
func (p *Pool) push(sb *sandbox.Sandbox, affinity int) error {
	var w *worker
	if affinity >= 0 && affinity < len(p.workers) {
		w = p.workers[affinity]
	} else {
		w = p.pickWorker()
	}
	w.inbox.push(sb)
	if p.stopped.Load() {
		// Raced with Stop: the workers may already be gone, so fail
		// whatever the inbox holds exactly as Stop's drain would.
		p.failInbox(w)
		return ErrStopped
	}
	p.wakeWorker(w)
	return nil
}

// pickWorker returns the least-loaded worker, tie-broken by a rotating
// start index so equal-load submissions spread round-robin.
func (p *Pool) pickWorker() *worker {
	ws := p.workers
	if len(ws) == 1 {
		return ws[0]
	}
	start := int(p.rr.Add(1) % uint64(len(ws)))
	best := ws[start]
	bestLoad := best.load()
	for i := 1; i < len(ws) && bestLoad > 0; i++ {
		w := ws[(start+i)%len(ws)]
		if l := w.load(); l < bestLoad {
			best, bestLoad = w, l
		}
	}
	return best
}

// load is the worker's published backlog: queued + inbox, plus one for the
// sandbox it is running.
func (w *worker) load() int64 {
	return w.qlen.Load() + w.inbox.n.Load() + int64(w.running.Load())
}

// wakeWorker delivers a targeted wakeup to w, falling back to any parked
// peer (which can steal the work) when w is already awake.
func (p *Pool) wakeWorker(w *worker) {
	if w.park.wake(&p.nparked) {
		return
	}
	if p.nparked.Load() > 0 {
		p.wakeAny(w.id + 1)
	}
}

// wakeAny wakes one parked worker, scanning from start.
func (p *Pool) wakeAny(start int) {
	if p.nparked.Load() == 0 {
		return
	}
	n := len(p.workers)
	for i := 0; i < n; i++ {
		if p.workers[(start+i)%n].park.wake(&p.nparked) {
			return
		}
	}
}

// Stats returns a snapshot of the pool counters, aggregating the
// per-worker shards.
func (p *Pool) Stats() Stats {
	st := Stats{
		Submitted: p.submitted.Load(),
		Completed: p.callerCompleted.Load(),
		Trapped:   p.extTrapped.Load() + p.callerTrapped.Load(),
		Blocked:   p.blocked.Load(),
	}
	for _, w := range p.workers {
		st.Completed += w.completed.Load()
		st.Trapped += w.trapped.Load()
		st.Preemptions += w.preemptions.Load()
		st.Pauses += w.pauses.Load()
		st.Steals += w.steals.Load()
		st.StealBatches += w.stealBatches.Load()
	}
	return st
}

// Inflight reports sandboxes submitted but not yet finished.
func (p *Pool) Inflight() int { return int(p.inflight.Load()) }

// Workers reports the worker-core count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Busy reports workers currently executing a sandbox quantum, summed from
// the per-worker running flags (no shared counter on the quantum path).
func (p *Pool) Busy() int {
	n := 0
	for _, w := range p.workers {
		n += int(w.running.Load())
	}
	return n
}

// Utilization reports the fraction of workers mid-quantum, in [0, 1].
func (p *Pool) Utilization() float64 {
	return float64(p.Busy()) / float64(p.cfg.Workers)
}

// QueueDepth approximates sandboxes waiting for a core: each worker's
// published local backlog plus its inbox. A sandbox that is mid-quantum or
// blocked on I/O is not waiting and is not counted. It is lock-free —
// every term is an atomic published by its owner — so the admission hot
// path can call it per request. The per-worker figures are refreshed once per scheduling
// iteration, so the value is a load signal, not an exact count.
func (p *Pool) QueueDepth() int {
	var depth int64
	for _, w := range p.workers {
		depth += w.qlen.Load() + w.inbox.n.Load()
	}
	if depth < 0 {
		depth = 0
	}
	return int(depth)
}

// FuelQuantum reports the fuel a slice gets right now — the quantum at
// GasRate — and 0 in cooperative mode.
func (p *Pool) FuelQuantum() int64 {
	if p.cfg.Policy != PolicyPreemptiveRR {
		return 0
	}
	if p.fixedFuel > 0 {
		return p.fixedFuel
	}
	return fuelFor(p.cfg.Quantum, p.GasRate())
}

// GasRate reports the workers' learned gas-per-millisecond rate, averaged
// over them: the rate the quantum is converted at, and the runtime's price
// of a request's gas.
func (p *Pool) GasRate() float64 {
	var sum float64
	for _, w := range p.workers {
		sum += float64(w.gasPerMS.Load())
	}
	return sum / float64(len(p.workers))
}

// GasPerMS reports the lowest and the highest gas-per-millisecond rate the
// workers currently convert the quantum with (the seed until a worker's
// first sample).
func (p *Pool) GasPerMS() (lo, hi int64) {
	for i, w := range p.workers {
		r := w.gasPerMS.Load()
		if i == 0 || r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return lo, hi
}

// Quiesce waits until no sandboxes are in flight or the timeout passes.
// The wait is event-driven: the completion that takes inflight to zero
// closes a broadcast channel, so a draining runtime does not burn a core
// polling.
func (p *Pool) Quiesce(timeout time.Duration) bool {
	if p.inflight.Load() == 0 {
		return true
	}
	p.quiesceMu.Lock()
	if p.quiesceCh == nil {
		p.quiesceCh = make(chan struct{})
		p.quiesceArmed.Store(true)
	}
	ch := p.quiesceCh
	p.quiesceMu.Unlock()
	if p.inflight.Load() == 0 {
		// The last completion raced arming; its notification may already
		// have passed, so don't wait for one.
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
		return p.inflight.Load() == 0
	}
}

// decInflight retires one in-flight sandbox, waking Quiesce waiters when
// the count reaches zero. The common case pays one extra atomic load.
func (p *Pool) decInflight() {
	if p.inflight.Add(-1) != 0 || !p.quiesceArmed.Load() {
		return
	}
	p.quiesceMu.Lock()
	if p.quiesceCh != nil && p.inflight.Load() == 0 {
		close(p.quiesceCh)
		p.quiesceCh = nil
		p.quiesceArmed.Store(false)
	}
	p.quiesceMu.Unlock()
}

// Stop shuts the pool down. In-flight sandboxes finish their current
// quantum; queued sandboxes are failed so waiters are released. A sandbox
// blocked on I/O is failed with ErrStopped when its timer fires, and the
// I/O's effect does not run.
func (p *Pool) Stop() {
	if !p.stopped.CompareAndSwap(false, true) {
		return
	}
	close(p.stopCh)
	p.wg.Wait()
	// Fail anything left queued. Workers drained their local state on
	// exit; this sweeps any submission that raced shutdown.
	for _, w := range p.workers {
		p.failInbox(w)
		for {
			sb, ok := w.runq.Pop()
			if !ok {
				break
			}
			p.fail(sb, ErrStopped)
		}
	}
}

// failInbox drains a worker's inbox and fails everything in it.
func (p *Pool) failInbox(w *worker) {
	chain := w.inbox.takeAll()
	for chain != nil {
		next := chain.SchedNext
		chain.SchedNext = nil
		p.fail(chain, ErrStopped)
		chain = next
	}
}

// fail finishes a sandbox outside a worker's slice with err.
func (p *Pool) fail(sb *sandbox.Sandbox, err error) {
	sb.Fail(err)
	p.extTrapped.Add(1)
	p.decInflight()
	sb.FinishNotify() // may recycle sb: last touch
}

// resumeIO is every blocked sandbox's way back, run on its I/O timer's
// goroutine once the I/O is due. The completion is work for any worker:
// push places it on the least-loaded one with a targeted wake-up, as it
// would an arrival. A stopped pool or an abandoned sandbox fails it here
// instead, without running the I/O's effect or spending a slice on it.
func (p *Pool) resumeIO(sb *sandbox.Sandbox) {
	var err error
	switch {
	case p.stopped.Load():
		err = ErrStopped
	case sb.Abandoned():
		err = sandbox.ErrAbandoned
	default:
		err = sb.CompletePending()
	}
	if err != nil {
		p.fail(sb, err)
		return
	}
	p.push(sb, -1)
}

// ---- worker ----

func (w *worker) loop() {
	p := w.pool
	defer p.wg.Done()
	for {
		if p.stopped.Load() {
			w.drainStop()
			return
		}
		w.admit()
		if w.held != nil {
			// Arrival-first: the sandbox the last quantum preempted goes
			// to the tail behind everything this round made runnable, and
			// so ahead of everything that arrives later. An arrival waits
			// for the quantum it landed in, not for the next one as well.
			w.runq.Push(w.held)
			w.held = nil
		}
		sb, ok := w.runq.Pop()
		w.qlen.Store(int64(w.runq.Len()) + w.overflowN)
		if !ok {
			w.idleWait()
			continue
		}
		if w.runq.Len() > 0 && p.nparked.Load() > 0 {
			// Surplus behind this sandbox that an idle peer could steal.
			p.wakeAny(w.id + 1)
		}
		if sb.Abandoned() {
			// The waiter timed out; don't spend another quantum on it.
			sb.Fail(sandbox.ErrAbandoned)
			w.trapped.Add(1)
			p.decInflight()
			sb.FinishNotify() // recycles sb: last touch
			continue
		}
		sb.LastWorker.Store(int32(w.id))
		w.running.Store(1)
		st := w.turn(sb)
		w.running.Store(0)
		switch st {
		case sandbox.StateRunnable:
			if sb.SchedFuel > 0 {
				w.pauses.Add(1)
			} else {
				sb.Preemptions++
				w.preemptions.Add(1)
			}
			w.held = sb
		case sandbox.StateBlocked:
			p.blocked.Add(1)
			sb.AwaitIO(p.resume) // hands sb over: last touch
		case sandbox.StateComplete:
			w.completed.Add(1)
			p.decInflight()
			sb.FinishNotify() // may recycle sb: last touch
		case sandbox.StateTrapped:
			w.trapped.Add(1)
			p.decInflight()
			sb.FinishNotify() // may recycle sb: last touch
		}
	}
}

// turn runs sb for what is left of its quantum: all of the worker's fuel,
// or the part a pause left it (sb.SchedFuel). With other work queued the
// turn is one run, as the arrival would not run next anyway. A lone
// sandbox first runs unpolled until its request has burned fuel/youngShare
// gas in all, then runs the rest in one RunQuantumUntil that stops for the
// worker's inbox: an arrival ends it within one engine piece
// (engine.PollGas), and the sandbox is paused with the rest of its quantum
// in sb.SchedFuel and goes through held like a preempted one, so the
// arrival runs next. A stream of arrivals cannot stall it, as it always
// runs a piece first, and its quantum ends at the same gas as with no
// arrivals: each run's budget is the quantum's gas still unspent. On
// return sb.SchedFuel is non-zero only if the turn ended in a pause. The
// rate learner sees the whole turn as one slice.
//
//sledge:noalloc
func (w *worker) turn(sb *sandbox.Sandbox) sandbox.State {
	left := sb.SchedFuel
	sb.SchedFuel = 0
	if w.fuel == 0 { // cooperative
		return sb.RunQuantum(0)
	}
	if left == 0 {
		left = w.fuel
	}
	var stop *atomic.Int64
	if w.runq.Len() == 0 && w.overflowN == 0 {
		stop = &w.inbox.n
	}
	var gas uint64
	var d time.Duration
	st := sandbox.StateRunnable
	if young := uint64(w.fuel / youngShare); stop != nil && sb.Gas() < young {
		// Fuel is gas, so this one run reaches the young bound or ends
		// the quantum.
		budget := min(int64(young-sb.Gas()), left)
		var rest int64
		st, rest = sb.RunQuantumUntil(budget, nil)
		gas, d = sb.LastSlice()
		left -= budget - rest
	}
	if st == sandbox.StateRunnable && left > 0 {
		st, left = sb.RunQuantumUntil(left, stop)
		g, dd := sb.LastSlice()
		gas, d = gas+g, d+dd
		if st == sandbox.StateRunnable && left > 0 {
			sb.SchedFuel = left
		}
	}
	// Before the caller's switch: a finished sandbox may be recycled there.
	if p := w.pool; p.fixedFuel == 0 && w.rate.observe(gas, d, w.fuel) {
		w.fuel = fuelFor(p.cfg.Quantum, w.rate.rate)
		w.gasPerMS.Store(int64(w.rate.rate))
	}
	return st
}

// admit pulls new requests from the inbox into the local round-robin
// queue, bounded by maxLocalRunq, and steals when that leaves it with
// nothing to run. The paper integrates request dequeueing into the
// scheduling loop so newly arrived short functions immediately share the
// core with long-running sandboxes (temporal isolation across admission):
// the loop calls it while the sandbox it just preempted is still off the
// queue (w.held), so an arrival runs ahead of that sandbox's next quantum.
// The held sandbox keeps its slot in the maxLocalRunq bound, and a worker
// holding one has work and does not steal.
func (w *worker) admit() {
	room := maxLocalRunq - w.runq.Len()
	if w.held != nil {
		room--
	}
	if room <= 0 {
		return
	}
	w.drainInbox(room)
	if w.runq.Len() == 0 && w.held == nil {
		w.steal()
	}
}

// drainInbox moves up to room sandboxes from the overflow chain and the
// inbox into the run queue; anything beyond room waits on the overflow
// chain (it is already admitted, just not yet queued).
func (w *worker) drainInbox(room int) {
	for room > 0 && w.overflowHead != nil {
		sb := w.overflowHead
		w.overflowHead = sb.SchedNext
		if w.overflowHead == nil {
			w.overflowTail = nil
		}
		sb.SchedNext = nil
		w.overflowN--
		w.runq.Push(sb)
		room--
	}
	if w.inbox.n.Load() == 0 {
		return
	}
	chain := w.inbox.takeAll()
	for chain != nil {
		next := chain.SchedNext
		chain.SchedNext = nil
		if room > 0 {
			w.runq.Push(chain)
			room--
		} else {
			w.overflowAppend(chain)
		}
		chain = next
	}
}

func (w *worker) overflowAppend(sb *sandbox.Sandbox) {
	sb.SchedNext = nil
	if w.overflowTail == nil {
		w.overflowHead, w.overflowTail = sb, sb
	} else {
		w.overflowTail.SchedNext = sb
		w.overflowTail = sb
	}
	w.overflowN++
}

// steal finds a victim and moves work here: first half of a peer's run
// queue in one batched transfer, then — if every run queue is empty — a
// busy peer's whole unadmitted inbox, so queued submissions never wait for
// their worker to surface from a long quantum.
func (w *worker) steal() {
	p := w.pool
	n := len(p.workers)
	if n == 1 {
		return
	}
	max := maxLocalRunq - w.runq.Len()
	if max > stealBatchMax {
		max = stealBatchMax
	}
	if max <= 0 {
		return
	}
	start := int(p.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == w {
			continue
		}
		if k := v.runq.StealBatch(w.stealBuf[:], max); k > 0 {
			for j := 0; j < k; j++ {
				w.runq.Push(w.stealBuf[j])
				w.stealBuf[j] = nil
			}
			w.steals.Add(uint64(k))
			w.stealBatches.Add(1)
			return
		}
	}
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == w || v.inbox.len() == 0 {
			continue
		}
		chain := v.inbox.takeAll()
		if chain == nil {
			continue
		}
		k := uint64(0)
		for chain != nil {
			next := chain.SchedNext
			chain.SchedNext = nil
			if w.runq.Len() < maxLocalRunq {
				w.runq.Push(chain)
			} else {
				w.overflowAppend(chain)
			}
			chain = next
			k++
		}
		w.steals.Add(k)
		w.stealBatches.Add(1)
		return
	}
}

// readyWork is the post-arm re-check: every source that could hold or
// produce work for this worker — its own queues, a stop, and any
// peer's run queue or inbox it could steal from. Called with the parker
// armed, it closes the lost-wakeup window — either this check observes work
// published before the wake attempt, or the waker observes the armed parker
// and delivers a token.
func (w *worker) readyWork() bool {
	p := w.pool
	if w.inbox.n.Load() > 0 || w.runq.Len() > 0 || w.overflowN > 0 {
		return true
	}
	if p.stopped.Load() {
		return true
	}
	for _, v := range p.workers {
		if v != w && (v.runq.Len() > 0 || v.inbox.n.Load() > 0) {
			return true
		}
	}
	return false
}

// idleWait parks the worker until new work may be available: a targeted
// wake token or the backstop poll. A due I/O completion is an arrival, so
// its push delivers the token.
func (w *worker) idleWait() {
	p := w.pool
	w.park.arm(&p.nparked)
	if w.readyWork() {
		w.park.disarm(&p.nparked)
		return
	}
	if w.idleTimer == nil {
		w.idleTimer = time.NewTimer(p.idlePoll)
	} else {
		w.idleTimer.Reset(p.idlePoll)
	}
	w.park.wait(&p.nparked, w.idleTimer, p.stopCh)
	// Quiesce the timer for the next Reset. This goroutine is the only
	// receiver, so a non-blocking drain after a failed Stop is race-free.
	if !w.idleTimer.Stop() {
		select {
		case <-w.idleTimer.C:
		default:
		}
	}
}

// drainStop abandons local work so shutdown is bounded even when a sandbox
// would never finish (cooperative CPU hogs).
func (w *worker) drainStop() {
	p := w.pool
	if w.held != nil {
		p.fail(w.held, ErrStopped)
		w.held = nil
	}
	for {
		sb, ok := w.runq.Pop()
		if !ok {
			break
		}
		p.fail(sb, ErrStopped)
	}
	for w.overflowHead != nil {
		sb := w.overflowHead
		w.overflowHead = sb.SchedNext
		sb.SchedNext = nil
		p.fail(sb, ErrStopped)
	}
	w.overflowTail = nil
	w.overflowN = 0
	p.failInbox(w)
	w.qlen.Store(0)
}
