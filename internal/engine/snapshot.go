package engine

// Post-init memory snapshots: the warm-start half of the fleet-economics
// layer.
//
// A module with a start function pays that function's full execution on
// every instantiation (and, with instance recycling, on every reset —
// resetForReuse restores the data-segment image and Start replays the
// start function). For init-heavy modules (table builders, arena setup,
// model unpacking) that cost dominates first-invoke latency and dwarfs the
// µs-scale instantiation the paper advertises.
//
// The snapshot fix: run the start function exactly once, at compile time,
// in a throwaway probe instance, and capture the post-init state — linear
// memory (trailing zeros trimmed), globals, and the gas the start function
// charged — into an immutable Snapshot hung off the CompiledModule. Every
// later Instantiate materializes from the snapshot (one copy, no start
// replay) and the recycling reset generalizes the dirty-prefix zeroing
// into a snapshot-diff restore: only bytes that may differ from the
// snapshot image (the same memDirty watermark) are rewritten. Gas stays
// bit-identical to the replayed path because Start credits the recorded
// start-function gas before the entry function runs.
//
// Safety: a snapshot is only taken when the capture is provably
// canonical — the start function's call graph cannot reach a host
// function (host calls could observe per-request context or block), the
// probe runs to completion under a finite fuel budget, and it neither
// traps nor yields. Anything else falls back to the classic replay path,
// which reproduces traps and host interactions exactly as before. MVP
// tables are immutable after element initialization in this engine, so
// table state needs no capture; the shared table and the per-instance
// inline caches derived from it stay valid across both paths.

import (
	"sync/atomic"

	"sledge/internal/wasm"
)

// snapshotProbeFuel bounds the compile-time probe run. A start function
// that cannot finish inside this budget (or that the naive tier traps on
// fuel exhaustion for) is not snapshotted; per-request replay keeps its
// exact semantics. The bound exists so Compile never executes unbounded
// guest code — important for fuzzed and hostile modules, where an
// infinite-loop start section must cost Compile milliseconds, not seconds.
const snapshotProbeFuel = int64(1) << 26

// Snapshot is the immutable post-init state of a module whose start
// function ran once: the memory image (trailing zeros trimmed), the
// post-init memory length, the global values, and the gas the start
// function charged. It is shared read-only by every instance materialized
// from it.
type Snapshot struct {
	// image is the post-init linear memory prefix up to the last non-zero
	// byte; bytes beyond it are zero in the post-init state.
	image []byte
	// memLen is the post-init linear memory length in bytes (>= minMemBytes
	// when the start function grew memory).
	memLen int
	// globals holds the post-init global values (same length as globalInit).
	globals []uint64
	// gas is the deterministic cost the start function charged; Start
	// credits it so snapshot-materialized runs report gas bit-identical to
	// the replayed path.
	gas uint64
}

// Bytes reports the snapshot's resident size for the cache accounting.
func (s *Snapshot) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(len(s.image) + 8*len(s.globals))
}

// MemLen returns the post-init linear memory length in bytes.
func (s *Snapshot) MemLen() int { return s.memLen }

// Gas returns the gas the start function charged during capture.
func (s *Snapshot) Gas() uint64 { return s.gas }

// Snapshot returns the module's post-init snapshot, or nil when the module
// has none (no start function, NoSnapshot config, host-reaching or
// non-terminating start, or a cache demotion dropped it).
func (cm *CompiledModule) Snapshot() *Snapshot { return cm.snap.Load() }

// SnapshotBytes reports the resident size of the module's snapshot (0 when
// none), for /__stats gauges and the cache budget.
func (cm *CompiledModule) SnapshotBytes() int64 { return cm.snap.Load().Bytes() }

// DropSnapshot releases the module's snapshot — the cache's second
// demotion rung. New instantiations fall back to data-segment replay plus
// start-function execution. Instances materialized from the dropped
// snapshot stay self-consistent (they carry their own baseline reference)
// but are torn down instead of pooled on Release, so the snapshot bytes
// actually retire once in-flight requests finish. It reports whether a
// snapshot was dropped.
func (cm *CompiledModule) DropSnapshot() bool {
	return cm.snap.Swap(nil) != nil
}

// captureSnapshot runs the start function once in a probe instance and
// installs the post-init snapshot. Called at the end of Compile, before
// any caller-visible instance exists, so every instance of a snapshotted
// module shares the same baseline.
func (cm *CompiledModule) captureSnapshot() {
	if cm.cfg.NoSnapshot || cm.startIdx < 0 {
		return
	}
	if !cm.startHostFree() {
		return
	}
	in := cm.Instantiate() // cm.snap is still nil: classic zero+replay path
	// The probe never runs again: its memory goes to the recycler, where the
	// module's first instantiation, of the same post-init size, finds it.
	defer in.donateSlab()
	st, err := in.startFunction(snapshotProbeFuel)
	if err != nil || st != StatusDone {
		// Trap, fuel exhaustion, or a blocked probe: fall back to replay,
		// which reproduces the exact behaviour per request.
		return
	}
	end := len(in.mem)
	for end > 0 && in.mem[end-1] == 0 {
		end--
	}
	snap := &Snapshot{
		image:  append([]byte(nil), in.mem[:end]...),
		memLen: len(in.mem),
		gas:    in.Gas,
	}
	if len(in.globals) > 0 {
		snap.globals = append([]uint64(nil), in.globals...)
	}
	cm.snap.Store(snap)
}

// startHostFree reports whether the start function's call graph provably
// cannot reach a host function. Host calls during capture would bake
// per-request context into the snapshot (or block on I/O), so any module
// whose start can reach one is never snapshotted. The walk is conservative:
// a call_indirect site assumes every table-resident function is reachable,
// and bails outright if the table holds any imported function.
func (cm *CompiledModule) startHostFree() bool {
	nImp := cm.numImports
	if int(cm.startIdx) < nImp {
		return false // start is itself an import
	}
	tableHasImport := false
	for _, te := range cm.table {
		if te.funcIdx >= 0 && int(te.funcIdx) < nImp {
			tableHasImport = true
			break
		}
	}
	seen := make([]bool, len(cm.funcs))
	stack := make([]int, 0, 8)
	push := func(def int) {
		if def >= 0 && def < len(cm.funcs) && !seen[def] {
			seen[def] = true
			stack = append(stack, def)
		}
	}
	// addTable models a call_indirect: any table-resident defined function
	// may be the callee. Returns false when the table can dispatch to a
	// host function.
	addTable := func() bool {
		if tableHasImport {
			return false
		}
		for _, te := range cm.table {
			if te.funcIdx >= 0 {
				push(int(te.funcIdx) - nImp)
			}
		}
		return true
	}
	push(int(cm.startIdx) - nImp)
	for len(stack) > 0 {
		fi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f := &cm.funcs[fi]
		if cm.cfg.Tier == TierNaive {
			for _, ins := range f.naiveBody {
				switch ins.Op {
				case wasm.OpCall:
					if int(ins.Imm) < nImp {
						return false
					}
					push(int(ins.Imm) - nImp)
				case wasm.OpCallIndirect:
					if !addTable() {
						return false
					}
				}
			}
			continue
		}
		for _, ci := range f.code {
			switch ci.op {
			case iCallHost:
				return false
			case iCall, iCallDevirt:
				// a is the defined-function index for both forms.
				push(int(ci.a))
			case iCallIndirect:
				if !addTable() {
					return false
				}
			}
		}
	}
	return true
}

// snapField is the atomic snapshot slot embedded in CompiledModule. A
// dedicated named type keeps module.go's struct literal readable.
type snapField = atomic.Pointer[Snapshot]
