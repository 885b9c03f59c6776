package engine

import (
	"sync"
	"sync/atomic"
)

// Instance recycling (the zero-allocation request path).
//
// The paper's µs-scale sandbox startup comes from decoupling heavyweight
// module processing from per-request instantiation; this file removes the
// remaining per-request cost on the Go side — the linear-memory, operand
// stack, and frame allocations — by recycling Instances per CompiledModule.
//
// Hygiene contract: an Instance handed out by Acquire is indistinguishable
// from a freshly instantiated one. Release re-zeroes the dirty prefix of
// linear memory ([0, memDirty), tracked by every store handler, host write,
// and data-segment replay), replays data segments and globals, and clears
// the operand stack, so no bytes authored by one tenant are ever observable
// by the next. The call_indirect inline caches survive recycling on purpose:
// they are derived from the immutable table, not from tenant state.
//
// The pool dies with its module (ClosePool). What outlives it is the linear
// memory alone, handed to the cross-module slab recycler in slab.go under
// the stronger form of the same contract: all-zero over its full capacity.

// maxFreeInstances bounds the per-module explicit free list. Overflow goes
// to a sync.Pool, which the GC may reclaim under memory pressure.
const maxFreeInstances = 64

// Per-element sizes for the pool's footprint gauge (sizeof frame and
// icEntry on 64-bit: pointer + two/one 32-bit fields, padded).
const (
	frameBytes   = 16
	icEntryBytes = 16
)

// instancePool recycles Instances for one CompiledModule: a small bounded
// LIFO for the steady state plus a sync.Pool overflow tier.
type instancePool struct {
	mu   sync.Mutex
	free []*Instance
	// sp is the overflow tier, behind an atomic pointer so PurgeIdle can
	// swap the whole pool out without racing concurrent Put/Get — or a
	// concurrent purge: the cache controller's demotion rung and
	// Unregister/ClosePool may both purge the same module at once.
	sp atomic.Pointer[sync.Pool]
	// closed stops the pool from accepting or handing out instances:
	// Unregister (and full cache eviction) must not let idle instances
	// outlive the module. Acquire falls back to Instantiate; Release does
	// not reset the instance, it only donates its linear memory to the slab
	// recycler (slab.go) and leaves the rest to the collector. Atomic so
	// Release can test it before paying for a reset; the free-list push
	// re-tests it under mu, which ClosePool takes after setting it.
	closed atomic.Bool
	// freeBytes is the retained footprint of the instances on the free
	// list, maintained on every put/take so the cache controller can read
	// it without walking the list.
	freeBytes int64
}

// overflow returns the current overflow sync.Pool, lazily creating it. The
// pool-miss callers tolerate a purge swapping the pool under them: a Put
// into a just-retired pool only makes that instance garbage.
func (p *instancePool) overflow() *sync.Pool {
	for {
		if sp := p.sp.Load(); sp != nil {
			return sp
		}
		sp := new(sync.Pool)
		if p.sp.CompareAndSwap(nil, sp) {
			return sp
		}
	}
}

// Acquire returns a reset, ready-to-Start Instance, reusing a recycled one
// when available. Pair with Release on the completion path; an Instance that
// is never released is simply collected by the GC, exactly like one from
// Instantiate.
//
// For snapshotted modules this is the warm-start fast path: the recycled
// instance was reset against the post-init image (resetFromSnapshot) and
// Start will credit the recorded start-function gas instead of replaying
// it. The noalloc directive keeps that materialize path allocation-free by
// construction; the only allocating exit is the pool-miss fallback to
// Instantiate, the documented cold path.
//
//sledge:noalloc
func (cm *CompiledModule) Acquire() *Instance {
	p := &cm.pool
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		in := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.freeBytes -= in.footprintBytes()
		p.mu.Unlock()
		return in
	}
	p.mu.Unlock()
	if !p.closed.Load() {
		if v := p.overflow().Get(); v != nil {
			return v.(*Instance)
		}
	}
	return cm.Instantiate()
}

// Release resets in and returns it to the module's pool. It is a no-op for
// instances of other modules and for instances still runnable or blocked
// (releasing live state would let a scheduled sandbox be handed to a second
// owner). On a closed pool nothing is reset: the instance is finished for
// good, so its linear memory is cleared to its dirty extent and donated to
// the slab recycler.
//
//sledge:noalloc
func (cm *CompiledModule) Release(in *Instance) {
	if in == nil || in.mod != cm {
		return
	}
	if in.started && (in.status == StatusYielded || in.status == StatusBlocked) {
		return
	}
	p := &cm.pool
	if p.closed.Load() {
		in.donateSlab() //sledge:coldpath
		return
	}
	if in.snap != cm.snap.Load() {
		// The instance's baseline no longer matches the module's (the cache
		// dropped the snapshot, or a stale pre-drop instance drained). Let
		// the GC reclaim it so the snapshot bytes actually retire; pooling
		// it would pin the old image and hand out a mixed baseline.
		return
	}
	in.resetForReuse()
	p.mu.Lock()
	closed := p.closed.Load()
	if !closed && len(p.free) < maxFreeInstances {
		// Amortized: the free list grows to its 64-entry cap once and then
		// stays allocated for the module's lifetime.
		p.free = append(p.free, in) //sledge:coldpath
		p.freeBytes += in.footprintBytes()
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	if closed {
		// ClosePool ran between the test above and the push.
		in.donateSlab() //sledge:coldpath
		return
	}
	p.overflow().Put(in)
}

// PooledInstances reports how many instances sit in the bounded free list
// (diagnostics and tests).
func (cm *CompiledModule) PooledInstances() int {
	cm.pool.mu.Lock()
	defer cm.pool.mu.Unlock()
	return len(cm.pool.free)
}

// PooledBytes reports the retained footprint of the idle free list — the
// cache controller's per-module gauge for the first demotion rung.
func (cm *CompiledModule) PooledBytes() int64 {
	cm.pool.mu.Lock()
	defer cm.pool.mu.Unlock()
	return cm.pool.freeBytes
}

// PurgeIdle drops every idle instance from the pool (free list and
// sync.Pool overflow) to the collector and returns the bytes released from
// the bounded free list. In-flight instances are unaffected; the pool keeps
// working. This is the cache's first, cheapest demotion rung, taken to free
// memory — so nothing is donated to the slab recycler here.
func (cm *CompiledModule) PurgeIdle() int64 {
	p := &cm.pool
	p.mu.Lock()
	released := p.freeBytes
	for i := range p.free {
		p.free[i] = nil
	}
	p.free = p.free[:0]
	p.freeBytes = 0
	p.mu.Unlock()
	// Retire the overflow tier wholesale; outstanding Put/Get against the
	// old pool are harmless (the old instances just become garbage) and the
	// atomic store keeps concurrent purges off each other's toes.
	p.sp.Store(nil)
	return released
}

// ClosePool marks the pool closed and purges it: Acquire stops handing out
// recycled instances and Release stops pooling. Called by Unregister,
// Replace, a tier swap and full cache eviction, so idle instances cannot
// outlive the module they belong to. The linear memories — of the idle
// instances now, of in-flight ones at their Release — are cleared to their
// dirty extent and donated to the slab recycler for the next module's first
// instantiation; everything else goes to the collector.
func (cm *CompiledModule) ClosePool() {
	p := &cm.pool
	p.closed.Store(true)
	p.mu.Lock()
	idle := p.free
	p.free, p.freeBytes = nil, 0
	p.mu.Unlock()
	p.sp.Store(nil)
	for _, in := range idle {
		in.donateSlab()
	}
}

// footprintBytes is the instance's retained slab footprint: linear memory
// capacity plus operand stack, frames, inline caches, and globals. Used
// for the pool's idle-bytes gauge; called with the pool lock held or on an
// owned instance.
//
//sledge:noalloc
func (in *Instance) footprintBytes() int64 {
	return int64(cap(in.mem)) +
		8*int64(cap(in.stack)) +
		int64(cap(in.frames))*int64(frameBytes) +
		int64(len(in.ic))*int64(icEntryBytes) +
		8*int64(len(in.globals))
}

// resetForReuse restores the instance to its post-Instantiate state without
// allocating (unless a Teardown dropped the buffers). This is the
// multi-tenant isolation boundary: zero the dirty memory prefix over the
// full retained capacity, replay data segments and globals, clear the
// operand stack.
//
//sledge:noalloc
func (in *Instance) resetForReuse() {
	cm := in.mod
	if in.snap != nil {
		in.resetFromSnapshot()
	} else {
		if cap(in.mem) < cm.minMemBytes {
			// Torn down (or never had memory): start from a fresh zeroed
			// allocation; nothing stale can survive.
			in.mem = make([]byte, cm.minMemBytes) //sledge:coldpath
		} else {
			full := in.mem[:cap(in.mem)]
			d := in.memDirty
			if d > uint64(len(full)) {
				d = uint64(len(full))
			}
			clear(full[:d])
			in.mem = full[:cm.minMemBytes]
		}
		for _, seg := range cm.dataSegs {
			copy(in.mem[seg.offset:], seg.bytes)
		}
		in.memDirty = uint64(cm.dataEnd)

		if len(in.globals) != len(cm.globalInit) {
			in.globals = make([]uint64, len(cm.globalInit)) //sledge:coldpath
		}
		copy(in.globals, cm.globalInit)
	}

	if cm.numICSites > 0 && len(in.ic) != cm.numICSites {
		in.ic = make([]icEntry, cm.numICSites) //sledge:coldpath
		for i := range in.ic {
			in.ic[i].key = -1
		}
	}

	// The operand stack is never readable by wasm before being written
	// (locals are zeroed at Start, operand slots are write-before-read by
	// validation), but clear it anyway: the hygiene guarantee is "no bytes
	// leak", not "no reachable bytes leak". Slabs that grew far beyond the
	// module's certified/typical reservation (one deep recursive request,
	// say) are shrunk instead of retained: 64 pooled instances each pinning
	// a high-water stack is a real leak, and the fresh smaller allocation
	// is both cheaper to clear and zeroed by construction. The 4× hysteresis
	// keeps the steady-state put path allocation-free.
	if len(in.stack) > 4*cm.typicalStack {
		in.stack = make([]uint64, cm.typicalStack) //sledge:coldpath
	} else {
		clear(in.stack)
	}
	if cap(in.frames) > 4*cm.typicalFrames {
		in.frames = make([]frame, 0, cm.typicalFrames) //sledge:coldpath
	} else {
		in.frames = in.frames[:0]
	}
	in.sp = 0
	in.table = cm.table

	in.status = StatusYielded
	in.started = false
	in.trap = nil
	in.entryArity = 0
	in.pendingHostArity = -1
	in.mpxBounds = [2]uint64{0, uint64(len(in.mem))}
	in.mpxScratch = 0
	in.HostData = nil
	in.Gas = 0
}

// resetFromSnapshot is the snapshot-diff form of the memory/global reset:
// instead of zeroing the dirty prefix and replaying data segments (then
// paying the start function again at Start), it copies the post-init
// snapshot image back over only the bytes that may have diverged from it —
// the same memDirty watermark, reinterpreted as "differs from baseline".
// Bytes above the watermark still hold the baseline (image below its
// trimmed length, zeros above — grow-exposed bytes were zero and every
// write bumps the watermark), so the steady-state reset cost is
// proportional to what the request actually touched, strictly cheaper than
// zero + replay + start.
//
//sledge:noalloc
func (in *Instance) resetFromSnapshot() {
	snap := in.snap
	if cap(in.mem) < snap.memLen {
		// Torn down (or never had memory): re-materialize from scratch.
		in.mem = make([]byte, snap.memLen) //sledge:coldpath
		copy(in.mem, snap.image)
	} else {
		full := in.mem[:cap(in.mem)]
		d := in.memDirty
		if d > uint64(len(full)) {
			d = uint64(len(full))
		}
		n := uint64(len(snap.image))
		if n > d {
			n = d
		}
		copy(full[:n], snap.image)
		clear(full[n:d])
		in.mem = full[:snap.memLen]
	}
	in.memDirty = 0

	if len(in.globals) != len(snap.globals) {
		in.globals = make([]uint64, len(snap.globals)) //sledge:coldpath
	}
	copy(in.globals, snap.globals)
}
