package sched

import "sync/atomic"

// Runq is a per-worker run queue in the style of the Go runtime's per-P
// queue: a growable power-of-two ring with monotonically increasing head
// and tail counters. Exactly one owner (the worker) pushes at the tail;
// the owner pops FIFO from the head; any peer may steal a batch from the
// head.
//
// The protocol differs from the Chase–Lev deque in one deliberate way: the
// owner's pop also goes through a CAS on head. In
// Chase–Lev the owner consumes bottom-side elements without touching top,
// which is what makes multi-element stealing unsound there — a thief that
// reads k elements and then CASes top can race an owner that silently
// consumed part of that range from the other end. Here every consumer
// (owner and thieves alike) reserves slots by CASing head, so a thief may
// read a whole range [h, h+n) first and commit it with a single CAS: if
// any other consumer took any of those slots, head moved and the CAS
// fails. The counters are never masked, so there is no ABA.
//
// Growth is owner-only, like Chase–Lev: the owner copies live slots by
// absolute index into a bigger ring and swaps the array pointer. A thief
// holding the old array still reads correct values for any range its CAS
// can commit, because the copy preserves index→value and the owner only
// writes fresh slots into the new array.
type Runq[T any] struct {
	head  atomic.Int64
	tail  atomic.Int64
	array atomic.Pointer[ring[T]]
}

type ring[T any] struct {
	mask int64
	buf  []atomic.Pointer[T]
}

func newRing[T any](size int64) *ring[T] {
	return &ring[T]{mask: size - 1, buf: make([]atomic.Pointer[T], size)}
}

// NewRunq returns an empty run queue with the given initial capacity
// (rounded up to a power of two, minimum 8).
func NewRunq[T any](capacity int) *Runq[T] {
	size := int64(8)
	for size < int64(capacity) {
		size *= 2
	}
	q := &Runq[T]{}
	q.array.Store(newRing[T](size))
	return q
}

// Push appends x at the tail. Only the owner may call it.
func (q *Runq[T]) Push(x *T) {
	t := q.tail.Load()
	h := q.head.Load()
	a := q.array.Load()
	if t-h >= int64(len(a.buf)) {
		a = q.grow(a, h, t)
	}
	a.buf[t&a.mask].Store(x)
	q.tail.Store(t + 1)
}

func (q *Runq[T]) grow(old *ring[T], h, t int64) *ring[T] {
	bigger := newRing[T](int64(len(old.buf)) * 2)
	for i := h; i < t; i++ {
		bigger.buf[i&bigger.mask].Store(old.buf[i&old.mask].Load())
	}
	q.array.Store(bigger)
	return bigger
}

// Pop removes the oldest element (FIFO — the round-robin order). Only the
// owner calls it, but it still reserves the slot with a CAS so that it
// composes with concurrent batched stealing.
func (q *Runq[T]) Pop() (*T, bool) {
	for {
		h := q.head.Load()
		t := q.tail.Load()
		if h >= t {
			return nil, false
		}
		a := q.array.Load()
		x := a.buf[h&a.mask].Load()
		if q.head.CompareAndSwap(h, h+1) {
			return x, true
		}
	}
}

// stealAttempts bounds StealBatch's CAS retries: a failed CAS means some
// other consumer made progress on this queue, so giving up (and letting the
// caller pick another victim or re-loop) beats spinning against the owner.
const stealAttempts = 4

// StealBatch moves up to max elements — at most half the victim's queue,
// rounded up — into dst. Safe from any goroutine. It reads the candidate
// range first and commits it with a single CAS on head, so either the whole
// batch transfers or none of it does; no element is lost or duplicated. dst
// must have room for max elements. It returns the number stolen.
func (q *Runq[T]) StealBatch(dst []*T, max int) int {
	for attempt := 0; attempt < stealAttempts; attempt++ {
		h := q.head.Load()
		t := q.tail.Load()
		n := t - h
		if n <= 0 {
			return 0
		}
		n = n - n/2 // half, rounded up
		if n > int64(max) {
			n = int64(max)
		}
		a := q.array.Load()
		for i := int64(0); i < n; i++ {
			dst[i] = a.buf[(h+i)&a.mask].Load()
		}
		if q.head.CompareAndSwap(h, h+n) {
			return int(n)
		}
	}
	return 0
}

// Len reports the number of queued elements (approximate under
// concurrency, exact when quiescent).
func (q *Runq[T]) Len() int {
	n := q.tail.Load() - q.head.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
