package core

// Bounded module cache: the density half of the fleet-economics layer.
//
// A 10k-tenant registry never stops growing without it — compiled bodies,
// post-init snapshots, and idle instance pools all live for the module's
// lifetime, so fleet RSS is proportional to how many functions were *ever*
// registered, not how many are warm. The cache bounds the resident set
// under Config.CacheBudgetBytes with an ARC (adaptive replacement) policy
// over per-module resident bytes, and reclaims in demotion rungs so a
// module sheds its cheapest-to-rebuild state first:
//
//	rung 0: shed the runtime's recycled linear-memory slabs (no module
//	        pays: the next cold start allocates instead)
//	rung 1: purge idle pooled instances   (rebuilt by the next Acquire)
//	rung 2: drop the post-init snapshot   (re-captured on recompile)
//	rung 3: drop the compiled body        ("registered-but-cold": the next
//	        invoke lazily recompiles it; see Runtime.revive)
//
// ARC keeps two resident lists — T1 (seen recently) and T2 (seen at least
// twice) — plus ghost lists B1/B2 remembering recently evicted modules. A
// cold invoke that hits a ghost adapts the target split p between recency
// and frequency by the ghost's recorded size, so the policy adapts between
// scan-resistant (storm of one-shot registrations) and frequency-favouring
// (stable Zipf hot set) regimes.
//
// The policy self-tunes p in bytes rather than entry counts because module
// footprints span three orders of magnitude (a toy module vs a
// register-allocated app with a 256 KiB snapshot).
//
// The invoke hot path pays nothing for any of this: recency/frequency
// signals are read from the per-module invocation counters the completion
// path already maintains (Module.invocations), sampled by a background
// controller at scan granularity. List surgery, byte accounting, and
// eviction all happen on the controller goroutine (plus the registration
// and cold-miss slow paths), never on the request path — steady-state
// Invoke stays 0 allocs/op with the cache enabled by construction.

import (
	"container/list"
	"sync"
	"time"
)

// cacheWhere is a cache entry's list membership.
type cacheWhere int8

const (
	cacheNone cacheWhere = iota
	cacheT1              // resident, seen recently
	cacheT2              // resident, seen at least twice
	cacheB1              // ghost of a T1 eviction (registered-but-cold)
	cacheB2              // ghost of a T2 eviction (registered-but-cold)
)

// cacheEntry is the controller's per-module state. All fields are guarded
// by cacheController.mu except the snapshots of hot-path counters the scan
// reads through the Module itself.
type cacheEntry struct {
	m     *Module
	elem  *list.Element // element within the list `where` names
	where cacheWhere
	// seenInv is the module's invocation count at the last scan; a delta
	// against it is the "was touched" signal driving T1→T2 promotion and
	// MRU moves.
	seenInv uint64
	// bytes is the resident footprint measured at the last scan (0 for
	// ghosts); ghostBytes is what rung-3 eviction released, the δ a ghost
	// hit adapts p by.
	bytes      int64
	ghostBytes int64
	// rung is the demotion progress: 0 = fully resident, 1 = idle pool
	// purged, 2 = snapshot dropped. Rung 3 (body dropped) is represented
	// by ghost membership. Any touch resets it to 0 — the module is warm
	// again and must be demoted from the top.
	rung int8
	// pinned marks modules that can never go cold (no retained source:
	// precompiled registrations). They bottom out at rung 2.
	pinned bool
}

// CacheSnapshot is the cache block of /__stats: budget, resident gauges,
// the ARC split, and the eviction/recompile counters the fleet-economics
// experiment asserts on.
type CacheSnapshot struct {
	BudgetBytes      int64  `json:"budget_bytes"`
	ResidentBytes    int64  `json:"resident_bytes"`
	ResidentModules  int    `json:"resident_modules"`
	ColdModules      int    `json:"cold_modules"`
	T1Bytes          int64  `json:"t1_bytes"`
	T2Bytes          int64  `json:"t2_bytes"`
	SlabBytes        int64  `json:"slab_bytes"`
	TargetT1Bytes    int64  `json:"target_t1_bytes"`
	PurgedIdle       uint64 `json:"evictions_idle_pool"`
	DroppedSnapshots uint64 `json:"evictions_snapshot"`
	DroppedBodies    uint64 `json:"evictions_body"`
	GhostHits        uint64 `json:"ghost_hits"`
	ColdRecompiles   uint64 `json:"cold_recompiles"`
	EvictedBytes     int64  `json:"evicted_bytes_total"`
}

// cacheController owns the ARC state and the background reclaim loop.
type cacheController struct {
	rt     *Runtime
	budget int64

	mu      sync.Mutex
	entries map[string]*cacheEntry
	t1, t2  *list.List // *cacheEntry, front = MRU
	b1, b2  *list.List
	t1Bytes int64
	t2Bytes int64
	p       int64 // adaptive target for t1Bytes

	purgedIdle       uint64
	droppedSnapshots uint64
	droppedBodies    uint64
	ghostHits        uint64
	coldRecompiles   uint64
	evictedBytes     int64

	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newCacheController(rt *Runtime, budget int64, interval time.Duration) *cacheController {
	c := &cacheController{
		rt:      rt,
		budget:  budget,
		entries: make(map[string]*cacheEntry),
		t1:      list.New(),
		t2:      list.New(),
		b1:      list.New(),
		b2:      list.New(),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	go c.loop(interval)
	return c
}

func (c *cacheController) close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// poke asks the controller for an early scan (registration burst, cold
// revive): best-effort, never blocks.
func (c *cacheController) poke() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

func (c *cacheController) loop(interval time.Duration) {
	defer close(c.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		case <-c.kick:
		}
		c.scan()
	}
}

// resident is what the budget is held against: the modules' measured
// footprints plus the retired linear memories the runtime's slab recycler
// retains for the next cold start. Caller holds mu.
func (c *cacheController) resident() int64 {
	return c.t1Bytes + c.t2Bytes + c.rt.slabs.Stats().HeldBytes
}

// onRegister admits a freshly registered module into T1 (ARC: first
// sighting is recency, not frequency).
func (c *cacheController) onRegister(m *Module) {
	c.mu.Lock()
	if old, ok := c.entries[m.Name]; ok {
		// Replace path: the old registration's history dies with it.
		c.remove(old)
	}
	e := &cacheEntry{m: m, seenInv: m.invocations.Load(), pinned: m.source == nil}
	if cm := m.Compiled(); cm != nil {
		e.bytes = cm.ResidentBytes()
	}
	e.where = cacheT1
	e.elem = c.t1.PushFront(e)
	c.t1Bytes += e.bytes
	c.entries[m.Name] = e
	over := c.resident() > c.budget
	c.mu.Unlock()
	if over {
		c.poke()
	}
}

// forget drops a module's cache state entirely (Unregister).
func (c *cacheController) forget(name string) {
	c.mu.Lock()
	if e, ok := c.entries[name]; ok {
		c.remove(e)
		delete(c.entries, name)
	}
	c.mu.Unlock()
}

// remove unlinks an entry from whatever list holds it. Caller holds mu.
func (c *cacheController) remove(e *cacheEntry) {
	if e.elem == nil {
		return
	}
	switch e.where {
	case cacheT1:
		c.t1.Remove(e.elem)
		c.t1Bytes -= e.bytes
	case cacheT2:
		c.t2.Remove(e.elem)
		c.t2Bytes -= e.bytes
	case cacheB1:
		c.b1.Remove(e.elem)
	case cacheB2:
		c.b2.Remove(e.elem)
	}
	e.elem = nil
	e.where = cacheNone
}

// onRevive records a cold miss that just recompiled (Runtime.revive): a
// ghost hit adapts the ARC split by the ghost's recorded size, and the
// module re-enters the resident set in T2 — a cold miss on a known module
// is a frequency signal, exactly ARC's case II/III.
func (c *cacheController) onRevive(m *Module) {
	c.mu.Lock()
	e, ok := c.entries[m.Name]
	if !ok {
		e = &cacheEntry{m: m, pinned: m.source == nil}
		c.entries[m.Name] = e
	}
	switch e.where {
	case cacheB1:
		c.p = min(c.budget, c.p+max(e.ghostBytes, 1))
		c.ghostHits++
	case cacheB2:
		c.p = max(0, c.p-max(e.ghostBytes, 1))
		c.ghostHits++
	}
	c.remove(e)
	c.coldRecompiles++
	e.rung = 0
	e.seenInv = m.invocations.Load()
	if cm := m.Compiled(); cm != nil {
		e.bytes = cm.ResidentBytes()
	}
	e.where = cacheT2
	e.elem = c.t2.PushFront(e)
	c.t2Bytes += e.bytes
	over := c.resident() > c.budget
	c.mu.Unlock()
	if over {
		c.poke()
	}
}

// scan is one controller pass: refresh recency/frequency from the hot-path
// counters, re-measure resident bytes, then evict until under budget.
func (c *cacheController) scan() {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Refresh phase. Touched T1 entries promote to T2 (second sighting);
	// touched T2 entries move to MRU. Byte gauges are re-measured here so
	// pool growth between scans is charged against the budget.
	for _, e := range c.entries {
		if e.where != cacheT1 && e.where != cacheT2 {
			continue
		}
		inv := e.m.invocations.Load()
		touched := inv != e.seenInv
		e.seenInv = inv
		cm := e.m.Compiled()
		var bytes int64
		if cm != nil {
			bytes = cm.ResidentBytes()
		}
		delta := bytes - e.bytes
		e.bytes = bytes
		if e.where == cacheT1 {
			c.t1Bytes += delta
		} else {
			c.t2Bytes += delta
		}
		if touched {
			e.rung = 0 // warm again: demote from the top next time
			if e.where == cacheT1 {
				c.t1.Remove(e.elem)
				c.t1Bytes -= e.bytes
				e.where = cacheT2
				e.elem = c.t2.PushFront(e)
				c.t2Bytes += e.bytes
			} else {
				c.t2.MoveToFront(e.elem)
			}
		}
	}

	// Reclaim phase: shed recycled slabs, then demote LRU victims rung by
	// rung, until resident bytes fit the budget. Slabs go first, and again
	// whenever a rung-3 eviction has just donated more: giving one up costs
	// a future cold start an allocation, no module anything. A victim that
	// released something but is still the right choice gets picked again
	// next iteration and escalates.
	guard := 4 * (c.t1.Len() + c.t2.Len())
	for {
		over := c.resident() - c.budget
		if over <= 0 {
			break
		}
		if shed := c.rt.slabs.Shed(over); shed > 0 {
			c.evictedBytes += shed
			continue
		}
		if guard == 0 {
			break
		}
		guard--
		e := c.victim()
		if e == nil {
			break // everything left is pinned and fully demoted
		}
		if !c.demote(e) {
			// Nothing releasable at any rung: exclude it from this pass by
			// treating it as recently used.
			if e.where == cacheT1 {
				c.t1.MoveToFront(e.elem)
			} else if e.where == cacheT2 {
				c.t2.MoveToFront(e.elem)
			}
		}
	}

	// Ghost trimming: history is bounded like ARC's directory — each ghost
	// list may remember at most as many modules as are resident, plus a
	// floor so small fleets keep useful history.
	limit := c.t1.Len() + c.t2.Len() + 64
	for c.b1.Len() > limit {
		ge := c.b1.Back().Value.(*cacheEntry)
		c.remove(ge)
	}
	for c.b2.Len() > limit {
		ge := c.b2.Back().Value.(*cacheEntry)
		c.remove(ge)
	}
}

// victim picks the next demotion target per ARC's REPLACE rule: evict from
// T1 while it exceeds the adaptive target p, else from T2. Fully demoted
// pinned entries are skipped.
func (c *cacheController) victim() *cacheEntry {
	pick := func(l *list.List) *cacheEntry {
		for el := l.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			if e.pinned && e.rung >= 2 {
				continue // nothing left to take
			}
			return e
		}
		return nil
	}
	var first, second *list.List
	if c.t1Bytes > c.p && c.t1.Len() > 0 {
		first, second = c.t1, c.t2
	} else {
		first, second = c.t2, c.t1
	}
	if e := pick(first); e != nil {
		return e
	}
	return pick(second)
}

// demote applies the victim's next rung and reports whether any bytes were
// released. Caller holds mu.
func (c *cacheController) demote(e *cacheEntry) bool {
	cm := e.m.Compiled()
	if cm == nil {
		// Lost a race with a concurrent demotion/revive; drop from the
		// resident lists, the next scan re-files it.
		c.remove(e)
		return true
	}
	released := int64(0)
	switch e.rung {
	case 0:
		released = cm.PurgeIdle()
		if released > 0 {
			c.purgedIdle++
		}
		e.rung = 1
	case 1:
		before := cm.SnapshotBytes()
		if cm.DropSnapshot() {
			c.droppedSnapshots++
			released = before
		}
		e.rung = 2
	default:
		if e.pinned {
			return false
		}
		c.dropBody(e)
		released = e.bytes
	}
	if released > 0 {
		c.evictedBytes += released
		// Keep the gauges honest without a full re-measure.
		nb := e.bytes - released
		if nb < 0 {
			nb = 0
		}
		delta := e.bytes - nb
		e.bytes = nb
		if e.where == cacheT1 {
			c.t1Bytes -= delta
		} else if e.where == cacheT2 {
			c.t2Bytes -= delta
		}
	}
	return released > 0
}

// dropBody is rung 3: move the module to registered-but-cold. In-flight
// invocations hold the compiled pointer they loaded at dispatch and finish
// on it; ClosePool makes their Release donate the linear memory to the slab
// recycler instead of re-pooling — the reclaim loop sheds it from there
// while the budget is still exceeded.
func (c *cacheController) dropBody(e *cacheEntry) {
	if old := e.m.cm.Swap(nil); old != nil {
		old.ClosePool()
	}
	c.droppedBodies++
	// Resident → ghost: T1 evictions are remembered in B1, T2 in B2.
	from := e.where
	c.remove(e)
	e.ghostBytes = max(e.bytes, 1)
	if from == cacheT1 {
		e.where = cacheB1
		e.elem = c.b1.PushFront(e)
	} else {
		e.where = cacheB2
		e.elem = c.b2.PushFront(e)
	}
}

// Stats snapshots the cache gauges for /__stats.
func (c *cacheController) Stats() CacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	slab := c.rt.slabs.Stats().HeldBytes
	return CacheSnapshot{
		BudgetBytes:      c.budget,
		ResidentBytes:    c.t1Bytes + c.t2Bytes + slab,
		SlabBytes:        slab,
		ResidentModules:  c.t1.Len() + c.t2.Len(),
		ColdModules:      c.b1.Len() + c.b2.Len(),
		T1Bytes:          c.t1Bytes,
		T2Bytes:          c.t2Bytes,
		TargetT1Bytes:    c.p,
		PurgedIdle:       c.purgedIdle,
		DroppedSnapshots: c.droppedSnapshots,
		DroppedBodies:    c.droppedBodies,
		GhostHits:        c.ghostHits,
		ColdRecompiles:   c.coldRecompiles,
		EvictedBytes:     c.evictedBytes,
	}
}

// CacheStats returns the bounded-module-cache snapshot; ok is false when
// no cache budget is configured.
func (rt *Runtime) CacheStats() (CacheSnapshot, bool) {
	if rt.cache == nil {
		return CacheSnapshot{}, false
	}
	return rt.cache.Stats(), true
}
