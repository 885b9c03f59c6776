package engine

import (
	"sync"

	"sledge/internal/wasm"
)

// Linear-memory slab recycling across modules (the cold path's allocator).
//
// Instantiation is "allocate linear memory + a context", and on a runtime
// that deploys and retires functions continuously that one allocation is
// most of a cold start: a multi-MiB slab the Go allocator must zero and the
// collector must later mark, sweep and scavenge, for a module that may be
// unregistered milliseconds after its first request. The per-module
// instance pool (pool.go) cannot help — it dies with its module — so retired
// slabs are filed with the recycler in the module's Config.Slabs — one per
// Runtime — and the next first instantiation of any module sharing it with
// the same memory size takes one instead of calling make.
//
// Invariant: every slab held by a recycler is all-zero over its full
// capacity. The donor establishes it (Instance.donateSlab), clearing only
// what its baseline or its last request could have written — the same
// dirty-watermark argument as the per-module recycling reset, extended to
// reuse across modules and tenants. A taker may therefore treat a recycled
// slab exactly like fresh make output.
//
// The recycler is an explicit bounded free list, not a sync.Pool. A Pool
// has no bound, keeps a victim generation per P, cannot be charged to the
// module cache's budget or shed on demand, and is emptied by the very
// collector the recycler exists to relieve: measured on the coldstart
// workload it gives back part of the CPU gain and raises peak RSS above
// the no-recycler baseline (docs/PERF.md §10). Both operations are
// cold-path only; Acquire/Release on an open pool with room never reach
// them.

// slabBound caps the bytes one recycler holds. A donation that would
// exceed it is dropped to the collector.
const slabBound = 64 << 20

// Slabs is a bounded free list of retired, all-zero linear memories; the
// zero value is empty and ready for use. A nil *Slabs recycles nothing:
// take calls make and retire drops.
type Slabs struct {
	mu sync.Mutex
	// free files slabs by exact capacity in Wasm pages, LIFO.
	free map[int][][]byte
	held int64

	hits, misses, donated, dropped uint64
}

// slabTakeHook, when set, sees every recycled slab over its full capacity
// before it is handed out. Tests install an all-zero assertion.
var slabTakeHook func(full []byte)

// SlabStats is the recycler block of /__stats.
type SlabStats struct {
	HeldBytes        int64  `json:"held_bytes"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Donated          uint64 `json:"donated"`
	DroppedOverBound uint64 `json:"dropped_over_bound"`
}

// take returns n zeroed bytes: a recycled slab of exactly that capacity
// when one is filed, otherwise a fresh allocation.
func (r *Slabs) take(n int) []byte {
	if n == 0 {
		return nil
	}
	if r == nil {
		return make([]byte, n)
	}
	pages := n / wasm.PageSize
	r.mu.Lock()
	list := r.free[pages]
	if len(list) == 0 || n%wasm.PageSize != 0 {
		r.misses++
		r.mu.Unlock()
		return make([]byte, n)
	}
	s := list[len(list)-1]
	list[len(list)-1] = nil
	r.free[pages] = list[:len(list)-1]
	r.held -= int64(n)
	r.hits++
	r.mu.Unlock()
	if slabTakeHook != nil {
		slabTakeHook(s)
	}
	return s
}

// give files s with the recycler. The caller guarantees s is all-zero over
// its full capacity and holds no other reference to it. Slabs that are not
// a whole number of pages, or that would push the recycler past slabBound,
// are dropped to the collector.
func (r *Slabs) give(s []byte) {
	n := cap(s)
	if n == 0 || n%wasm.PageSize != 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held+int64(n) > slabBound {
		r.dropped++
		return
	}
	if r.free == nil {
		r.free = map[int][][]byte{}
	}
	pages := n / wasm.PageSize
	r.free[pages] = append(r.free[pages], s[:n])
	r.held += int64(n)
	r.donated++
}

// Stats snapshots the recycler's gauge and counters. The module cache
// counts HeldBytes as resident against its budget.
func (r *Slabs) Stats() SlabStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SlabStats{
		HeldBytes:        r.held,
		Hits:             r.hits,
		Misses:           r.misses,
		Donated:          r.donated,
		DroppedOverBound: r.dropped,
	}
}

// Shed drops recycled slabs to the collector until at least need bytes are
// released or the recycler is empty, and returns the bytes released. The
// module cache calls it before demoting any module: an idle slab is the
// cheapest resident state to give up.
func (r *Slabs) Shed(need int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	released := int64(0)
	for pages, list := range r.free {
		for len(list) > 0 && released < need {
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			released += int64(pages) * wasm.PageSize
		}
		r.free[pages] = list
	}
	r.held -= released
	return released
}

// retire clears the first dirty bytes of a slab nobody references any more
// and files it with the recycler. dirty must cover every byte of the slab
// that can be non-zero. A nil recycler drops it uncleared.
func (r *Slabs) retire(full []byte, dirty uint64) {
	if r == nil {
		return
	}
	full = full[:cap(full)]
	if dirty > uint64(len(full)) {
		dirty = uint64(len(full))
	}
	clear(full[:dirty])
	r.give(full)
}

// donateSlab retires the instance's linear memory into the recycler. Only
// bytes that can be non-zero are cleared: the baseline's extent (the
// data-segment image, or the snapshot image for snapshot-materialized
// instances) and everything up to the store watermark — which Memory()
// raises to the whole length. Bytes between the watermark and the slab's
// capacity are zero already: a fresh slab is zero, every reset clears the
// dirty prefix over the full capacity, and memory.grow only ever exposes
// such bytes. The instance must be between runs and must not run again.
func (in *Instance) donateSlab() {
	mem := in.mem
	in.mem = nil
	in.mod.cfg.Slabs.retire(mem, max(in.memDirty, in.baselineExtent()))
}

// baselineExtent is one past the last byte the instance's baseline can hold
// non-zero: bytes at or above it are zero unless a store dirtied them.
func (in *Instance) baselineExtent() uint64 {
	if in.snap != nil {
		return uint64(len(in.snap.image))
	}
	return uint64(in.mod.dataEnd)
}
