// Package sandbox implements the Sledge function sandbox lifecycle (§3.2,
// §4 of the paper): a sandbox is one instantiation of an AoT-compiled module
// bound to one request, with its own linear memory and execution context.
//
// Creation is deliberately minimal — module linking/loading happened at
// registry load time — so sandbox startup is microsecond-scale, which is
// what the paper's churn experiment (Table 3) measures.
package sandbox

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
)

// State is the sandbox lifecycle state.
type State int32

// Lifecycle states.
const (
	StateRunnable State = iota + 1
	StateRunning
	StateBlocked
	StateComplete
	StateTrapped
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateComplete:
		return "complete"
	case StateTrapped:
		return "trapped"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

var idCounter atomic.Uint64

// Ownership handoff states (Sandbox.rel). A pooled sandbox has two parties
// racing at the end of its life: the worker that finishes it and the waiter
// that may have timed out. Whoever loses the CAS on rel takes the recycling
// action; the winner's side is already gone. A waiter that handed the
// completion to a finisher hook (Defer) moves the sandbox to relDeferred,
// and the finisher that wins relDeferred → relFinished runs the hook
// instead of signalling Done.
const (
	relLive      = int32(iota) // running; no completion observed yet
	relAbandoned               // waiter timed out; worker recycles on finish
	relFinished                // worker finished; waiter reads then releases
	relDeferred                // running; the finisher runs the waiter's hook
)

// Sandbox is one in-flight function invocation.
type Sandbox struct {
	// ID is unique per process.
	ID uint64
	// Module is the registered function name, for accounting.
	Module string
	// Tenant identifies the owning tenant for multi-tenant accounting.
	Tenant string

	inst *engine.Instance
	// ctx is embedded by value so the zero-allocation path does not pay a
	// per-request abi.Context allocation.
	ctx abi.Context

	state atomic.Int32

	// rel is the completion-ownership state machine; see the rel* consts.
	rel atomic.Int32

	// done is signalled (once) by FinishNotify unless a waiter handed the
	// completion to a finisher hook (Defer); Invoke-style waiters select on
	// it.
	done chan struct{}

	// finisher is the hook a waiter handed the completion to (Defer). It
	// is read only by the FinishNotify that wins relDeferred → relFinished.
	finisher func(*Sandbox)

	// Err records the trap or start failure for completed sandboxes.
	Err error

	// pending is the in-flight async host operation while blocked.
	pending *abi.Pending

	// ioTimer fires when the pending operation is due and hands the
	// sandbox to resume (see AwaitIO). It is created on the shell's first
	// block and re-armed after that, so it stays with the recycled shell.
	ioTimer *time.Timer
	resume  func(*Sandbox)

	// SchedNext links sandboxes into the scheduler's intrusive per-worker
	// inbox (a lock-free LIFO chain). It is owned by internal/sched from
	// Submit until the worker dequeues the sandbox; nothing else may touch
	// it. Intrusive linking keeps the submit path allocation-free.
	SchedNext *Sandbox

	// SchedFuel is the fuel left of the quantum a scheduler paused the
	// sandbox in, for its next turn to spend; 0 means that turn starts a
	// fresh quantum. Owned by internal/sched like SchedNext.
	SchedFuel int64

	// LastWorker records the scheduler worker that last ran the sandbox
	// (-1 before the first quantum). The worker stamps it at quantum
	// start; a pipeline executor reads it after completion to submit the
	// chain's next stage with affinity for the same worker's cache-hot
	// queue. Atomic so observers (tests, stats) may also sample it while
	// the sandbox runs.
	LastWorker atomic.Int32

	exitCode int32

	// Accounting timestamps.
	CreatedAt  time.Time
	FirstRunAt time.Time
	DoneAt     time.Time

	// sliceStart, sliceEnd and sliceGas describe the most recent quantum:
	// when it began, when it ended in a yield or a completion (zero after
	// one that blocked or trapped), and the gas it burned. The first
	// quantum starts at FirstRunAt and a completing one ends at DoneAt —
	// the same clock reads — so a request that finishes inside its first
	// quantum pays nothing for them; a resumed or preempted slice pays one
	// read per end. See LastSlice.
	sliceStart time.Time
	sliceEnd   time.Time
	sliceGas   uint64

	// blockedFor sums the Wait of every host operation the sandbox blocked
	// on. See Blocked.
	blockedFor time.Duration

	// Preemptions counts the quanta, and the submitter's first slice,
	// that ended with the sandbox still runnable. The scheduler keeps it:
	// a RunQuantum that yields may end only part of a quantum.
	Preemptions uint64
}

// sbPool recycles Sandbox shells (the struct, its embedded context, and its
// done channel); linear memories are recycled per-module by the engine.
var sbPool = sync.Pool{
	New: func() any { return &Sandbox{done: make(chan struct{}, 1)} },
}

// Options configures sandbox creation.
type Options struct {
	// Entry is the exported function to run; defaults to "main".
	Entry string
	// KV is the storage backend exposed through the ABI.
	KV abi.KVStore
	// RandSeed seeds the sandbox's deterministic sledge.rand.
	RandSeed uint32
	// Tenant labels the sandbox for multi-tenant accounting.
	Tenant string
	// Instance, if non-nil, is a pre-acquired pooled instance of the same
	// module: the pipeline executor acquires the next stage's instance
	// while the current stage runs and hands it in here. Ownership
	// transfers to the sandbox (released back to the pool on failure).
	Instance *engine.Instance
	// MaxHandoffBytes bounds a sledge.output declaration; 0 means
	// abi.DefaultMaxHandoffBytes.
	MaxHandoffBytes uint32
}

// New instantiates a sandbox for one request. This is the fast path: in the
// steady state it allocates nothing — the sandbox shell comes from a
// sync.Pool and the engine instance (linear memory, operand stack) from the
// module's recycling pool.
func New(cm *engine.CompiledModule, req []byte, opts Options) (*Sandbox, error) {
	entry := opts.Entry
	if entry == "" {
		entry = "main"
	}
	sb := sbPool.Get().(*Sandbox)
	if opts.Instance != nil {
		sb.inst = opts.Instance
	} else {
		sb.inst = cm.Acquire()
	}
	sb.ctx.Reset(req)
	sb.ctx.MaxHandoffBytes = opts.MaxHandoffBytes
	sb.ID = idCounter.Add(1)
	sb.Module = entry
	sb.Tenant = opts.Tenant
	sb.Err = nil
	sb.finisher = nil
	sb.pending = nil
	sb.SchedNext = nil
	sb.SchedFuel = 0
	sb.exitCode = 0
	sb.LastWorker.Store(-1)
	sb.CreatedAt = time.Now()
	sb.FirstRunAt = time.Time{}
	sb.DoneAt = time.Time{}
	sb.blockedFor = 0
	sb.Preemptions = 0
	sb.rel.Store(relLive)
	select {
	case <-sb.done:
	default:
	}

	sb.ctx.KV = opts.KV
	if opts.RandSeed != 0 {
		sb.ctx.SetRandSeed(opts.RandSeed)
	}
	sb.inst.HostData = &sb.ctx
	if err := sb.inst.Start(entry); err != nil {
		inst := sb.inst
		sb.inst = nil
		cm.Release(inst)
		sbPool.Put(sb)
		return nil, fmt.Errorf("sandbox: %w", err)
	}
	sb.state.Store(int32(StateRunnable))
	return sb, nil
}

// State returns the current lifecycle state.
func (sb *Sandbox) State() State { return State(sb.state.Load()) }

// Response returns the accumulated response body.
func (sb *Sandbox) Response() []byte { return sb.ctx.Response }

// Output returns the completed sandbox's result: the sledge.output-declared
// region of its linear memory when one was set (aliasing the instance — the
// caller must hold off Release until done with the slice), otherwise the
// accumulated Response buffer. This is the value a pipeline hands to the
// next stage and the HTTP path serves.
//
//sledge:noalloc
func (sb *Sandbox) Output() ([]byte, error) {
	return sb.ctx.ResolveOutput(sb.inst)
}

// OutputDeclared reports whether the function declared a result region via
// sledge.output (the zero-copy handoff kind, for accounting).
func (sb *Sandbox) OutputDeclared() bool { return sb.ctx.OutputSet }

// ExitCode returns the entry function's return value after completion.
func (sb *Sandbox) ExitCode() (int32, error) {
	if sb.State() != StateComplete {
		return 0, engine.ErrNotDone
	}
	return sb.exitCode, nil
}

// Gas reports the deterministic execution cost consumed so far: static
// charge-point gas, bit-identical for the same request across engine
// tiers and configurations. Used for tenant accounting and billing-grade
// stats.
func (sb *Sandbox) Gas() uint64 { return sb.inst.Gas }

// ErrNotRunnable reports a RunQuantum call in the wrong state.
var ErrNotRunnable = errors.New("sandbox: not runnable")

// RunQuantum resumes the sandbox for at most fuel (fuel <= 0 runs
// unpreempted): RunQuantumUntil(fuel, nil).
func (sb *Sandbox) RunQuantum(fuel int64) State {
	st, _ := sb.RunQuantumUntil(fuel, nil)
	return st
}

// errBlockedNoPending fails a sandbox whose host call blocked without
// registering a completion.
var errBlockedNoPending = errors.New("sandbox: blocked host call without pending completion")

// RunQuantumUntil resumes the sandbox for at most fuel (fuel <= 0 runs
// unpreempted) and returns the resulting state. A positive *stop ends the
// run early, within engine.Instance.RunUntil's piece; left is the fuel not
// spent, in the engine's unit, when the sandbox is runnable again: positive
// after such an early end, <= 0 when the fuel ran out. The call takes one
// pair of clock reads however many pieces it runs. Completion and trap are
// published by the caller's FinishNotify, not here.
//
//sledge:noalloc
func (sb *Sandbox) RunQuantumUntil(fuel int64, stop *atomic.Int64) (State, int64) {
	if State(sb.state.Load()) != StateRunnable {
		return sb.State(), 0
	}
	sb.sliceStart = time.Now()
	if sb.FirstRunAt.IsZero() {
		sb.FirstRunAt = sb.sliceStart
	}
	sb.sliceEnd = time.Time{}
	gas0 := sb.inst.Gas
	sb.state.Store(int32(StateRunning))
	st, left, err := sb.inst.RunUntil(fuel, stop)
	sb.sliceGas = sb.inst.Gas - gas0
	switch st {
	case engine.StatusDone:
		if v, rerr := sb.inst.Result(); rerr == nil {
			sb.exitCode = int32(uint32(v))
		}
		sb.DoneAt = time.Now()
		sb.sliceEnd = sb.DoneAt
		sb.state.Store(int32(StateComplete))
	case engine.StatusYielded:
		sb.sliceEnd = time.Now()
		sb.state.Store(int32(StateRunnable))
	case engine.StatusBlocked:
		sb.pending = sb.ctx.TakePending()
		if sb.pending == nil {
			// Host blocked without registering a completion: fail
			// closed rather than leaking the sandbox.
			sb.Err = errBlockedNoPending
			sb.DoneAt = time.Now()
			sb.state.Store(int32(StateTrapped))
			return sb.State(), left
		}
		sb.blockedFor += sb.pending.Wait
		sb.state.Store(int32(StateBlocked))
	case engine.StatusTrapped:
		if abi.IsCleanExit(err) {
			// WASI proc_exit(0) is a successful completion.
			sb.DoneAt = time.Now()
			sb.state.Store(int32(StateComplete))
			break
		}
		sb.Err = err
		sb.DoneAt = time.Now()
		sb.state.Store(int32(StateTrapped))
	}
	return sb.State(), left
}

// ErrAbandoned reports a sandbox whose waiter timed out before completion.
var ErrAbandoned = errors.New("sandbox: abandoned by waiter")

// Done returns a channel that receives one value when the sandbox finishes
// (complete, trapped, or failed) and FinishNotify runs.
func (sb *Sandbox) Done() <-chan struct{} { return sb.done }

// Abandon is called by a timed-out waiter to disown the sandbox. It returns
// true if the waiter won the race (the worker will recycle the sandbox when
// it eventually finishes, and a deferred hook never runs) and false if the
// sandbox already finished (the waiter must consume Done and release as
// usual, or the hook is replying).
func (sb *Sandbox) Abandon() bool {
	return sb.rel.CompareAndSwap(relLive, relAbandoned) ||
		sb.rel.CompareAndSwap(relDeferred, relAbandoned)
}

// Defer hands the sandbox's completion to finish: the FinishNotify that
// ends a sandbox a worker or an I/O timer holds calls finish(sb) there,
// as its last touch of sb, instead of signalling Done. finish must not
// block, and whoever it hands sb on to releases it. Defer reports false
// when the sandbox has already finished: the waiter then consumes Done as
// usual. A sandbox Abandon wins after Defer never runs the hook.
func (sb *Sandbox) Defer(finish func(*Sandbox)) bool {
	sb.finisher = finish
	return sb.rel.CompareAndSwap(relLive, relDeferred)
}

// Abandoned reports whether a waiter has disowned the sandbox. The scheduler
// checks this before spending a quantum on it.
func (sb *Sandbox) Abandoned() bool { return sb.rel.Load() == relAbandoned }

// FinishNotify publishes the sandbox's completion to its waiter: it
// signals Done, or runs the hook the waiter handed over with Defer. The
// scheduler calls it exactly once, after all other touches of the sandbox —
// for an abandoned sandbox this recycles it, after which the worker must not
// use sb again.
//
//sledge:noalloc
func (sb *Sandbox) FinishNotify() {
	if sb.rel.CompareAndSwap(relLive, relFinished) {
		select {
		case sb.done <- struct{}{}:
		default:
		}
		return
	}
	if sb.rel.CompareAndSwap(relDeferred, relFinished) {
		sb.finisher(sb) // hands sb over: last touch
		return
	}
	if sb.rel.Load() == relAbandoned {
		sb.Release()
	}
}

// Release returns the sandbox's engine instance to its module pool and the
// shell to the sandbox pool. Callers must be done with the response buffer:
// the memory handed back here is reused (and re-zeroed) for future requests.
// It is a no-op for a sandbox still running or already released.
func (sb *Sandbox) Release() {
	if sb.inst == nil {
		return
	}
	if s := State(sb.state.Load()); s != StateComplete && s != StateTrapped {
		return
	}
	inst := sb.inst
	sb.inst = nil
	sb.finisher = nil
	sb.pending = nil
	sb.resume = nil
	sb.Err = nil
	sb.ctx.Reset(nil)
	select {
	case <-sb.done:
	default:
	}
	inst.Module().Release(inst)
	sbPool.Put(sb)
}

// AwaitIO parks a blocked sandbox on its own timer: once the pending
// operation's Wait has passed, resume gets the sandbox on the timer's
// goroutine. Whoever owned the sandbox hands it over here and must not
// touch it again. The first call creates the timer and every call arms it,
// so in the steady state blocking allocates nothing new.
func (sb *Sandbox) AwaitIO(resume func(*Sandbox)) {
	sb.resume = resume
	if sb.ioTimer == nil {
		// Created unarmed: the field must be set before the timer can fire
		// and the sandbox run, and block, somewhere else.
		sb.ioTimer = time.AfterFunc(math.MaxInt64, sb.ioDue)
	}
	sb.ioTimer.Reset(sb.pending.Wait)
}

func (sb *Sandbox) ioDue() { sb.resume(sb) }

// CompletePending finishes the blocked I/O (invoking its deferred effect)
// and makes the sandbox runnable again. The scheduler calls it once the
// pending operation is due.
func (sb *Sandbox) CompletePending() error {
	if State(sb.state.Load()) != StateBlocked || sb.pending == nil {
		return errors.New("sandbox: no pending I/O")
	}
	val := sb.pending.Complete()
	sb.pending = nil
	if err := sb.inst.ResumeHost(val); err != nil {
		return err
	}
	sb.state.Store(int32(StateRunnable))
	return nil
}

// LastSlice reports the gas the most recent quantum burned and the wall time
// it took, for a quantum that ended in a yield or in completion; after one
// that blocked or trapped (whose span is not all execution) it reports zero
// gas. Only the goroutine that called RunQuantumUntil may call it, and only
// before FinishNotify.
func (sb *Sandbox) LastSlice() (gas uint64, d time.Duration) {
	if sb.sliceEnd.IsZero() {
		return 0, 0
	}
	return sb.sliceGas, sb.sliceEnd.Sub(sb.sliceStart)
}

// Blocked reports how long the sandbox has spent blocked on host I/O: the
// sum of the operations' own Wait, not of how long the scheduler took to
// resume it, so it does not move with the tenants beside it. Only the
// goroutine that waited on Done may call it.
func (sb *Sandbox) Blocked() time.Duration { return sb.blockedFor }

// Latency returns the end-to-end sandbox latency (creation to completion).
func (sb *Sandbox) Latency() time.Duration {
	if sb.DoneAt.IsZero() {
		return 0
	}
	return sb.DoneAt.Sub(sb.CreatedAt)
}

// Fail force-completes the sandbox with an error (used by the scheduler
// when a blocked completion cannot be delivered, a waiter is gone or the
// pool stopped). The caller's FinishNotify then releases the waiter, and
// the instance is aborted so that Release recycles it.
func (sb *Sandbox) Fail(err error) {
	if s := State(sb.state.Load()); s == StateComplete || s == StateTrapped {
		return
	}
	sb.inst.Abort()
	sb.Err = err
	sb.DoneAt = time.Now()
	sb.state.Store(int32(StateTrapped))
}
