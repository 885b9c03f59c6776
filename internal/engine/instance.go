package engine

import (
	"errors"
	"fmt"

	"sledge/internal/wasm"
)

// Status reports why Run returned.
type Status int

// Run statuses.
const (
	// StatusDone: the entry function returned; results are available.
	StatusDone Status = iota + 1
	// StatusYielded: the fuel quantum was exhausted; call Run again to
	// continue. This is the engine-level preemption point the scheduler
	// uses for round-robin temporal isolation.
	StatusYielded
	// StatusBlocked: a host function started asynchronous I/O; call
	// ResumeHost with the completion value, then Run.
	StatusBlocked
	// StatusTrapped: the sandbox violated its isolation contract and was
	// terminated; the error carries the *Trap.
	StatusTrapped
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusYielded:
		return "yielded"
	case StatusBlocked:
		return "blocked"
	case StatusTrapped:
		return "trapped"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

type frame struct {
	fn   *compiledFunc
	pc   int32
	base int32
}

// Instance is a sandbox: one instantiation of a CompiledModule with its own
// linear memory, globals, and execution context. Creation is deliberately
// minimal — allocate memory, copy data segments and globals — reproducing
// the paper's µs-scale function startup. An Instance is not safe for
// concurrent use; the scheduler owns it.
type Instance struct {
	mod     *CompiledModule
	mem     []byte
	globals []uint64
	table   []tableEntry // shared, read-only

	stack  []uint64
	frames []frame
	sp     int

	status     Status
	started    bool
	trap       *Trap
	entryArity int
	// certified is true when the current entry point carries a stack
	// certificate: the whole call tree's frame depth and operand-stack
	// usage were bounded statically and reserved up front in startIndex,
	// so the VM skips the per-call growth and depth probes.
	certified bool
	// pendingHostArity is the result arity of the blocked host call
	// (-1 when not blocked).
	pendingHostArity int

	// Simulated MPX bounds descriptor: [base, limit) of the current
	// linear memory, plus a scratch "bounds register" slot.
	mpxBounds  [2]uint64
	mpxScratch uint64

	// memDirty is one past the highest linear-memory byte that may differ
	// from the instance's baseline — the post-replay data-segment image, or
	// the post-init snapshot for snapshot-materialized instances. Stores,
	// host writes, and data-segment replay all bump it; the recycling reset
	// restores only [0, memDirty).
	memDirty uint64

	// snap is the post-init baseline this instance was materialized from
	// (nil for the classic zero+replay path). The reset diffs against this
	// exact image even if the module drops its snapshot concurrently; such
	// instances are torn down instead of pooled (see Release).
	snap *Snapshot

	// ic holds per-call_indirect-site monomorphic inline caches. The table
	// is immutable after instantiation, so entries stay valid across
	// recycling and never need resetting.
	ic []icEntry

	// HostData carries the embedder's per-sandbox context (the serverless
	// ABI attaches request/response state here).
	HostData any

	// Gas is the deterministic execution-cost counter, accumulated across
	// all Run calls at the static charge points the cost analysis placed
	// (see internal/analysis.AnalyzeCost). For a given module, the value is
	// a pure function of the source execution path: bit-identical across
	// tiers, bounds strategies, regalloc/fusion ablations, and metering
	// modes. It feeds tiering hotness, per-tenant budgets, and /__stats.
	Gas uint64
}

// ErrNoExport reports a missing exported function.
var ErrNoExport = errors.New("engine: no such exported function")

// ErrNotDone reports result access before completion.
var ErrNotDone = errors.New("engine: instance has not completed")

// ErrAlreadyStarted reports a second Start on the same instance.
var ErrAlreadyStarted = errors.New("engine: instance already started")

// Instantiate creates a new sandbox for the module. This is the fast path
// the paper decouples from compilation: its cost is one zeroed linear
// memory plus data-segment and global copies — or, when the module carries
// a post-init snapshot, a single copy of the snapshot image, which also
// buys out the start function's execution (Start credits its recorded gas
// instead of replaying it). The memory comes from the slab recycler when a
// retired module left one of the right size (already all-zero, so neither
// the allocator nor the collector is involved), else from make.
func (cm *CompiledModule) Instantiate() *Instance {
	in := &Instance{
		mod:              cm,
		table:            cm.table,
		status:           StatusYielded,
		pendingHostArity: -1,
	}
	if snap := cm.snap.Load(); snap != nil {
		in.snap = snap
		in.mem = takeSlab(snap.memLen)
		copy(in.mem, snap.image)
		// memDirty tracks divergence from the baseline, and this instance's
		// baseline IS the snapshot: nothing differs yet.
		in.memDirty = 0
		if len(snap.globals) > 0 {
			in.globals = make([]uint64, len(snap.globals))
			copy(in.globals, snap.globals)
		}
		if cm.numICSites > 0 {
			in.ic = make([]icEntry, cm.numICSites)
			for i := range in.ic {
				in.ic[i].key = -1
			}
		}
		in.mpxBounds = [2]uint64{0, uint64(len(in.mem))}
		return in
	}
	if cm.minMemBytes > 0 {
		in.mem = takeSlab(cm.minMemBytes)
		for _, seg := range cm.dataSegs {
			copy(in.mem[seg.offset:], seg.bytes)
		}
	}
	in.memDirty = uint64(cm.dataEnd)
	if len(cm.globalInit) > 0 {
		in.globals = make([]uint64, len(cm.globalInit))
		copy(in.globals, cm.globalInit)
	}
	if cm.numICSites > 0 {
		in.ic = make([]icEntry, cm.numICSites)
		for i := range in.ic {
			in.ic[i].key = -1
		}
	}
	in.mpxBounds = [2]uint64{0, uint64(len(in.mem))}
	return in
}

// icEntry is one monomorphic inline cache for a call_indirect site: key is
// the last table index dispatched through the site, callee the resolved
// defined function. A hit skips the table bounds, null, and CFI type checks
// — all implied by the immutable table entry that populated the cache.
type icEntry struct {
	key    int32
	callee *compiledFunc
}

// Module returns the compiled module this instance was created from.
func (in *Instance) Module() *CompiledModule { return in.mod }

// Status returns the current run status.
func (in *Instance) Status() Status { return in.status }

// TrapError returns the trap that terminated the instance, if any.
func (in *Instance) TrapError() *Trap { return in.trap }

// Memory exposes the linear memory for host functions. The slice aliases
// the live memory and is invalidated by memory.grow. The caller may write
// anywhere through it, so the whole memory is conservatively marked dirty
// for the recycling reset; hot-path host code should use MemRange instead.
func (in *Instance) Memory() []byte {
	if n := uint64(len(in.mem)); n > in.memDirty {
		in.memDirty = n
	}
	return in.mem
}

// MemRange returns memory[off:off+n] after bounds checking, for host
// functions implementing the serverless ABI.
func (in *Instance) MemRange(off, n uint32) ([]byte, error) {
	end := uint64(off) + uint64(n)
	if end > uint64(len(in.mem)) {
		return nil, newTrap(TrapMemOutOfBounds)
	}
	// The caller may write through the returned slice (sledge.read,
	// kv_get); account it against the recycling reset's dirty prefix.
	if end > in.memDirty {
		in.memDirty = end
	}
	return in.mem[off:end:end], nil
}

// MemRangeRO is MemRange for read-only consumers: same bounds check, same
// aliasing slice, but no dirty-prefix accounting. Pipeline handoff resolves
// a completed stage's declared output region with it — the guest's own
// stores already dirtied the region, and widening memDirty here would
// inflate the recycling reset for regions the host merely read.
func (in *Instance) MemRangeRO(off, n uint32) ([]byte, error) {
	end := uint64(off) + uint64(n)
	if end > uint64(len(in.mem)) {
		return nil, newTrap(TrapMemOutOfBounds)
	}
	return in.mem[off:end:end], nil
}

// Start prepares the instance to execute the exported function under the
// given name. Arguments are raw value bits matching the signature. The
// module's start function, if any, runs to completion first.
func (in *Instance) Start(name string, args ...uint64) error {
	if in.started {
		return ErrAlreadyStarted
	}
	if in.mod.startIdx >= 0 {
		if in.snap != nil {
			// Materialized from the post-init snapshot: the start function's
			// effects are already in memory/globals. Credit its recorded gas
			// so metering stays bit-identical to the replayed path.
			in.Gas += in.snap.gas
		} else if err := in.runStartFunction(); err != nil {
			return err
		}
	}
	idx, ok := in.mod.exports[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoExport, name)
	}
	return in.startIndex(idx, args)
}

func (in *Instance) startIndex(idx uint32, args []uint64) error {
	nImp := in.mod.numImports
	if int(idx) < nImp {
		return fmt.Errorf("engine: cannot start imported function %d", idx)
	}
	fn := &in.mod.funcs[int(idx)-nImp]
	ft := in.mod.types[fn.typeIdx]
	if len(args) != len(ft.Params) {
		return fmt.Errorf("engine: %d arguments for signature %s", len(args), ft)
	}
	in.entryArity = fn.numResults
	// A stack certificate bounds the whole call tree rooted here; reserve
	// the worst case once and let the VM skip per-call probes. The depth
	// bound must fit under the configured limit, otherwise the sandbox
	// could legitimately exceed MaxCallDepth and must keep the probes to
	// trap.
	if cert, ok := in.mod.certs[int32(idx)-int32(nImp)]; ok && cert.frames <= in.mod.cfg.MaxCallDepth {
		in.certified = true
		in.ensureStack(cert.values)
		if cap(in.frames) < cert.frames {
			in.frames = make([]frame, 0, cert.frames)
		}
	} else {
		in.certified = false
		in.ensureStack(fn.nLocals + fn.maxStack + 1)
	}
	copy(in.stack, args)
	for i := len(args); i < fn.nLocals; i++ {
		in.stack[i] = 0
	}
	in.sp = fn.nLocals
	in.frames = append(in.frames[:0], frame{fn: fn, pc: 0, base: 0})
	in.started = true
	in.status = StatusYielded
	return nil
}

func (in *Instance) runStartFunction() error {
	// The start function runs eagerly and unpreempted, as part of
	// instantiation (module environment setup).
	st, err := in.startFunction(0)
	if err != nil {
		return err
	}
	if st != StatusDone {
		return fmt.Errorf("engine: start function did not complete (%s)", st)
	}
	return nil
}

// startFunction executes the module's start function with the given fuel
// budget (<= 0 runs unpreempted). The compile-time snapshot probe uses a
// finite budget so Compile never executes unbounded guest code; the
// per-request path uses 0 and treats any non-Done status as an error.
func (in *Instance) startFunction(fuel int64) (Status, error) {
	nImp := in.mod.numImports
	if int(in.mod.startIdx) < nImp {
		return StatusTrapped, fmt.Errorf("engine: start function is an import")
	}
	fn := &in.mod.funcs[int(in.mod.startIdx)-nImp]
	in.certified = false
	in.ensureStack(fn.nLocals + fn.maxStack + 1)
	for i := 0; i < fn.nLocals; i++ {
		in.stack[i] = 0
	}
	in.sp = fn.nLocals
	in.frames = append(in.frames[:0], frame{fn: fn, pc: 0, base: 0})
	st, err := in.run(fuel)
	if err != nil {
		return st, err
	}
	if st == StatusDone {
		in.status = StatusYielded
	}
	return st, nil
}

// Run executes until completion, fuel exhaustion, a blocking host call, or a
// trap. fuel <= 0 runs without preemption.
func (in *Instance) Run(fuel int64) (Status, error) {
	if !in.started {
		return StatusTrapped, errors.New("engine: Run before Start")
	}
	switch in.status {
	case StatusDone:
		return StatusDone, nil
	case StatusTrapped:
		return StatusTrapped, in.trap
	case StatusBlocked:
		return StatusBlocked, nil
	}
	return in.run(fuel)
}

// ResumeHost delivers the completion value of a blocked host call and makes
// the instance runnable again.
func (in *Instance) ResumeHost(val uint64) error {
	if in.status != StatusBlocked {
		return fmt.Errorf("engine: ResumeHost in status %s", in.status)
	}
	if in.pendingHostArity > 0 {
		in.ensureStack(in.sp + 1)
		in.stack[in.sp] = val
		in.sp++
	}
	in.pendingHostArity = -1
	in.status = StatusYielded
	return nil
}

// Result returns the entry function's result value once StatusDone.
func (in *Instance) Result() (uint64, error) {
	if in.status != StatusDone {
		return 0, ErrNotDone
	}
	if in.entryArity == 0 {
		return 0, nil
	}
	return in.stack[0], nil
}

// Invoke is the convenience path: Start + Run to completion without
// preemption, returning the single result value (0 for void functions).
func (in *Instance) Invoke(name string, args ...uint64) (uint64, error) {
	if err := in.Start(name, args...); err != nil {
		return 0, err
	}
	st, err := in.Run(0)
	if err != nil {
		return 0, err
	}
	if st != StatusDone {
		return 0, fmt.Errorf("engine: Invoke ended with status %s", st)
	}
	return in.Result()
}

func (in *Instance) ensureStack(n int) {
	if n <= len(in.stack) {
		return
	}
	size := len(in.stack) * 2
	if size < n {
		size = n
	}
	if size < 256 {
		size = 256
	}
	ns := make([]uint64, size)
	copy(ns, in.stack)
	in.stack = ns
}

// GlobalValue returns the raw bits of global i (module-defined index space),
// for tests and the ABI layer.
func (in *Instance) GlobalValue(i int) (uint64, error) {
	if i < 0 || i >= len(in.globals) {
		return 0, fmt.Errorf("engine: global %d out of range", i)
	}
	return in.globals[i], nil
}

// growMemory implements memory.grow, returning the previous size in pages
// or -1 on failure.
func (in *Instance) growMemory(delta uint32) int32 {
	oldPages := uint32(len(in.mem) / wasm.PageSize)
	if delta == 0 {
		return int32(oldPages)
	}
	newPages := uint64(oldPages) + uint64(delta)
	if newPages > uint64(in.mod.maxPages) {
		return -1
	}
	newBytes := int(newPages) * wasm.PageSize
	if newBytes <= cap(in.mem) {
		// Recycled instances keep grown capacity across resets; the reset
		// zeroed the dirty prefix, so re-exposed bytes are already zero.
		in.mem = in.mem[:newBytes]
	} else {
		nm := takeSlab(newBytes)
		copy(nm, in.mem)
		// The outgrown slab retires to the recycler. The interpreter loops
		// keep the store watermark in a local until they exit, so memDirty
		// is stale here: the whole visible length counts as written.
		retireSlab(in.mem, uint64(len(in.mem)))
		in.mem = nm
	}
	in.mpxBounds[1] = uint64(len(in.mem))
	return int32(oldPages)
}

// Teardown releases the sandbox's memory eagerly. The paper measures
// sandbox teardown as part of churn; in Go this drops the references to the
// collector. It deliberately bypasses the slab recycler: Teardown is the
// NoRecycle path, the no-reuse baseline the recycling numbers are measured
// against.
func (in *Instance) Teardown() {
	in.mem = nil
	in.stack = nil
	in.frames = nil
	in.globals = nil
	in.ic = nil
	in.memDirty = 0
	in.status = StatusTrapped
	in.trap = &Trap{Code: TrapUnreachable, Detail: "instance torn down"}
}
