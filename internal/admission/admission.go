// Package admission is Sledge's admission-control and overload-management
// subsystem: it sits between the HTTP listener and the scheduler and
// decides, per request, whether to dispatch now, queue, or shed.
//
// Under offered load beyond capacity an unguarded runtime collapses: every
// request is dispatched, workers thrash across an unbounded run queue, and
// all tenants' p99 explodes together. The controller keeps goodput near
// capacity and admitted-request latency bounded with four mechanisms:
//
//   - Per-tenant token buckets (rate + burst) reject sustained overage with
//     429 + Retry-After before it reaches the queue.
//   - A weighted deficit-round-robin (DRR) admit queue grants scheduler
//     slots across backlogged tenants in proportion to their weights, so a
//     hot tenant cannot starve a well-behaved one. A request costs the
//     runtime's price of its module (Config.Cost: gas at the learned rate),
//     making the shares CPU-proportional.
//   - Global in-flight and queue-depth bounds plus deadline-aware shedding:
//     a request whose estimated queueing delay already exceeds its deadline
//     is rejected immediately with 503 + Retry-After instead of timing out
//     after consuming a worker.
//   - A per-module circuit breaker (closed → open → half-open) stops a
//     crashing function from burning sandbox instantiations.
//
// Graceful drain (StartDrain/WaitIdle) stops admitting, lets queued and
// in-flight requests finish, and then the runtime can close.
package admission

import (
	"fmt"
	"sync"
	"time"
)

// Outcome classifies a finished request for the breaker.
type Outcome int

// Outcomes.
const (
	// OutcomeSuccess is a normal completion.
	OutcomeSuccess Outcome = iota
	// OutcomeTrap is a function failure (wasm trap / abort).
	OutcomeTrap
	// OutcomeTimeout is a request that exceeded the runtime's request
	// timeout (an overload signal, not a function defect).
	OutcomeTimeout
)

// TenantConfig overrides per-tenant admission parameters.
type TenantConfig struct {
	// Weight is the DRR share (default 1). A weight-2 tenant receives
	// twice the capacity of a weight-1 tenant under contention.
	Weight int
	// Rate overrides Config.TenantRate for this tenant (requests/sec;
	// 0 inherits, negative disables the bucket).
	Rate float64
	// Burst overrides Config.TenantBurst.
	Burst float64
}

// Config configures a Controller.
type Config struct {
	// MaxInflight bounds concurrently dispatched requests. Default
	// 2×Workers.
	MaxInflight int
	// MaxQueue bounds the total admit queue. Default 256.
	MaxQueue int
	// MaxQueuePerTenant bounds one tenant's queue. Default MaxQueue.
	MaxQueuePerTenant int
	// Workers is the capacity hint used to convert queue length into an
	// estimated queueing delay. Default 1.
	Workers int
	// DefaultDeadline is the shed horizon for requests that carry none.
	// Default 30s.
	DefaultDeadline time.Duration
	// TenantRate is the default token-bucket rate (requests/sec) applied
	// to every tenant; 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the default bucket capacity. Default max(1, TenantRate).
	TenantBurst float64
	// Tenants holds per-tenant overrides keyed by tenant name.
	Tenants map[string]TenantConfig
	// DefaultEstimate prices a request that Cost has no price for (no
	// Cost, or a module with no completion yet). Default 1ms.
	DefaultEstimate time.Duration
	// Breaker configures the per-module circuit breakers.
	Breaker BreakerConfig
	// Probe, if set, reports scheduler load (sandboxes in flight) used in
	// queueing-delay estimates; nil falls back to the controller's own
	// in-flight count.
	Probe func() (inflight int)
	// QueueDepth, if set, reports sandboxes queued in the scheduler but
	// not yet started. It refines queueing-delay estimates: released
	// requests still waiting for a core are backlog ahead of a new
	// arrival even when the in-flight count alone looks absorbable.
	QueueDepth func() int
	// Cost, if set, prices one request for module: its expected service
	// time, or 0 when it has none yet. The controller keeps no estimate of
	// its own and calls Cost, under its mutex, only for a queue, shed or
	// DRR decision — never on the free-slot fast path.
	Cost func(module string) time.Duration
}

// drrQuantum is the deficit added per round per unit weight, in the same
// units as a request's price: the paper's 5 ms scheduling quantum.
const drrQuantum = 5 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxQueuePerTenant <= 0 {
		c.MaxQueuePerTenant = c.MaxQueue
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = c.TenantRate
	}
	if c.DefaultEstimate <= 0 {
		c.DefaultEstimate = time.Millisecond
	}
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// Reason classifies a refused admission. The constants below are the
// controller's own shed causes; federated callers (internal/cluster) define
// additional Reason values for cluster-level sheds.
type Reason string

// Controller rejection reasons.
const (
	// ReasonRateLimited is a per-tenant token-bucket rejection (HTTP 429).
	ReasonRateLimited Reason = "rate-limited"
	// ReasonQueueFull is a global or per-tenant admit-queue bound rejection.
	ReasonQueueFull Reason = "queue-full"
	// ReasonDeadlineShed is a deadline-aware shed: the estimated queue wait
	// (or the actual wait, for queued requests) exceeded the deadline.
	ReasonDeadlineShed Reason = "deadline-shed"
	// ReasonBreakerOpen is a circuit-breaker rejection.
	ReasonBreakerOpen Reason = "breaker-open"
	// ReasonDraining is a graceful-shutdown rejection.
	ReasonDraining Reason = "draining"
)

// Rejection is a refused admission. It implements error so non-HTTP
// callers can surface it; the HTTP layer maps it to a status line.
type Rejection struct {
	// Status is the HTTP status to reply with: 429 for rate-limit
	// rejections, 503 for overload/breaker/drain rejections.
	Status int
	// RetryAfter is the client back-off hint. Every rejection carries a
	// positive hint: cooldown remainder for breaker sheds, the estimated
	// queue-drain time for overload sheds, floored so offloading clients
	// (and the cluster router) always have a usable back-off.
	RetryAfter time.Duration
	// Reason is the shed cause.
	Reason Reason
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("admission: %s (HTTP %d, retry after %v)", r.Reason, r.Status, r.RetryAfter)
}

// Offloadable reports whether a different node could plausibly serve the
// request this rejection shed. Queue, deadline, breaker, and drain sheds all
// describe node-local saturation or failure — a peer with capacity can still
// serve the request. Rate-limit rejections are tenant policy: offloading one
// to a peer would let a tenant launder traffic past its contracted rate by
// overflowing from node to node.
func (r *Rejection) Offloadable() bool {
	return r.Reason != ReasonRateLimited
}

// waiter is one queued admission request.
type waiter struct {
	tenant  *tenantState
	cost    int64 // price in nanos, the DRR charge
	ch      chan struct{}
	granted bool
}

// tenantState is one tenant's bucket, queue, and DRR bookkeeping.
type tenantState struct {
	name    string
	weight  int
	bucket  *bucket
	q       []*waiter
	deficit int64
	active  bool // member of the DRR active ring
	topped  bool // deficit already topped up for the current visit

	admitted uint64
	shed     uint64
}

// Controller is the admission controller. One instance guards one runtime.
type Controller struct {
	cfg Config
	now func() time.Time

	mu       sync.Mutex
	draining bool
	inflight int
	queued   int
	tenants  map[string]*tenantState
	ring     []*tenantState // DRR active ring; head is the current tenant
	breakers map[string]*breaker

	admitted   uint64
	shedRate   uint64 // 429: token bucket
	shedQueue  uint64 // 503: queue bounds
	shedDead   uint64 // 503: deadline-aware shed (incl. queue-wait expiry)
	shedBreak  uint64 // 503: breaker open
	shedDrain  uint64 // 503: draining
	grantWaits uint64 // requests that queued before being granted
}

// New builds a Controller.
func New(cfg Config) *Controller {
	return newWithClock(cfg, time.Now)
}

// newWithClock injects a deterministic clock for tests.
func newWithClock(cfg Config, now func() time.Time) *Controller {
	return &Controller{
		cfg:      cfg.withDefaults(),
		now:      now,
		tenants:  make(map[string]*tenantState),
		breakers: make(map[string]*breaker),
	}
}

// Ticket is a granted admission; exactly one Done call returns the slot.
type Ticket struct {
	c *Controller
	// brk is the breaker the request was admitted under. ResetModule drops
	// a module's breaker from the map, so a ticket that outlives its
	// deployment records into the orphan and cannot trip the new one.
	brk  *breaker
	done bool
}

// Done returns the slot and advances the breaker. serviceTime is ignored —
// prices come from Config.Cost — and stays in the signature for existing
// callers.
func (t *Ticket) Done(outcome Outcome, serviceTime time.Duration) {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	c.inflight--
	t.brk.record(outcome, c.now())
	c.dispatchLocked()
}

// Admit asks to dispatch one request for module on behalf of tenant. It
// returns immediately when a slot is free (or the request is rejected),
// and otherwise blocks in the DRR admit queue until granted or until the
// request's deadline budget for queueing expires. deadline <= 0 uses
// Config.DefaultDeadline.
func (c *Controller) Admit(tenant, module string, deadline time.Duration) (*Ticket, *Rejection) {
	if deadline <= 0 {
		deadline = c.cfg.DefaultDeadline
	}
	c.mu.Lock()
	now := c.now()
	if c.draining {
		c.shedDrain++
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: time.Second, Reason: ReasonDraining}
	}
	ts := c.tenantFor(tenant, now)
	// If allow claims the half-open probe slot, every rejection below must
	// hand it back (releaseProbe) — otherwise no Ticket ever reaches
	// record() and the breaker stays probe-locked, rejecting forever.
	brk := c.breakerFor(module)
	ok, probe, retry := brk.allow(now)
	if !ok {
		if retry <= 0 {
			// The cooldown boundary can round the remainder to zero; the
			// hint must stay positive so clients actually back off.
			retry = c.cfg.Breaker.Cooldown
		}
		c.shedBreak++
		ts.shed++
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: retry, Reason: ReasonBreakerOpen}
	}
	// The 503 overload checks run before the bucket debit so a shed
	// request does not also consume rate tokens (which would turn into
	// spurious 429s for a within-rate tenant once the queue clears).
	if c.queued >= c.cfg.MaxQueue || len(ts.q) >= c.cfg.MaxQueuePerTenant {
		brk.releaseProbe(probe)
		c.shedQueue++
		ts.shed++
		wait := c.retryHintLocked(c.priceLocked(module))
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: wait, Reason: ReasonQueueFull}
	}
	// Deadline-aware shed: if the queue ahead of us already implies more
	// waiting than the deadline allows, fail fast instead of timing out
	// after consuming a slot. With nothing ahead there is nothing to price.
	var price int64
	if ahead := c.aheadLocked(); ahead > 0 {
		price = c.priceLocked(module)
		if wait := c.waitLocked(ahead, price); wait > deadline {
			brk.releaseProbe(probe)
			c.shedDead++
			ts.shed++
			c.mu.Unlock()
			return nil, &Rejection{Status: 503, RetryAfter: wait, Reason: ReasonDeadlineShed}
		}
	}
	if !ts.bucket.take(now) {
		brk.releaseProbe(probe)
		c.shedRate++
		ts.shed++
		retry := ts.bucket.nextToken(now)
		c.mu.Unlock()
		return nil, &Rejection{Status: 429, RetryAfter: retry, Reason: ReasonRateLimited}
	}
	// Fast path: free slot and nobody queued ahead.
	if c.inflight < c.cfg.MaxInflight && c.queued == 0 {
		c.inflight++
		c.admitted++
		ts.admitted++
		c.mu.Unlock()
		return &Ticket{c: c, brk: brk}, nil
	}
	// Queue under DRR and wait for a grant.
	if price == 0 {
		price = c.priceLocked(module)
	}
	w := &waiter{tenant: ts, cost: price}
	w.ch = make(chan struct{})
	ts.q = append(ts.q, w)
	if !ts.active {
		ts.active = true
		c.ring = append(c.ring, ts)
	}
	c.queued++
	c.grantWaits++
	c.dispatchLocked()
	c.mu.Unlock()

	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-w.ch:
		return &Ticket{c: c, brk: brk}, nil
	case <-timer.C:
		c.mu.Lock()
		if w.granted {
			// The grant raced the timer; honor it.
			c.mu.Unlock()
			return &Ticket{c: c, brk: brk}, nil
		}
		c.removeWaiterLocked(w)
		brk.releaseProbe(probe)
		c.shedDead++
		ts.shed++
		wait := c.retryHintLocked(w.cost)
		c.mu.Unlock()
		return nil, &Rejection{Status: 503, RetryAfter: wait, Reason: ReasonDeadlineShed}
	}
}

// retryHintLocked derives a Retry-After hint for an overload shed: the
// estimated queue-drain wait, floored at one request's price share so the
// hint never goes to zero. A zero hint would suppress the
// Retry-After header entirely and give an offloading router no back-off
// signal — a per-tenant queue bound, for example, can trip while the global
// queue (and hence the modeled delay) is empty.
func (c *Controller) retryHintLocked(price int64) time.Duration {
	wait := c.waitLocked(c.aheadLocked(), price)
	if floor := time.Duration(price / int64(c.cfg.Workers)); wait < floor {
		wait = floor
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// tenantFor lazily creates tenant state.
func (c *Controller) tenantFor(name string, now time.Time) *tenantState {
	ts, ok := c.tenants[name]
	if ok {
		return ts
	}
	tc := c.cfg.Tenants[name]
	weight := tc.Weight
	if weight <= 0 {
		weight = 1
	}
	rate, burst := c.cfg.TenantRate, c.cfg.TenantBurst
	if tc.Rate != 0 {
		rate = tc.Rate
	}
	if tc.Burst != 0 {
		burst = tc.Burst
	}
	ts = &tenantState{name: name, weight: weight, bucket: newBucket(rate, burst, now)}
	c.tenants[name] = ts
	return ts
}

func (c *Controller) breakerFor(module string) *breaker {
	b, ok := c.breakers[module]
	if !ok {
		b = newBreaker(c.cfg.Breaker)
		c.breakers[module] = b
	}
	return b
}

// priceLocked is one request's price for module in nanos: Config.Cost, or
// DefaultEstimate when that has no price.
func (c *Controller) priceLocked(module string) int64 {
	if c.cfg.Cost != nil {
		if d := c.cfg.Cost(module); d > 0 {
			return int64(d)
		}
	}
	return int64(c.cfg.DefaultEstimate)
}

// aheadLocked counts the requests that must complete before a slot frees
// for a request arriving now; zero or less means a free slot with an empty
// queue. The in-flight count prefers the scheduler probe (which sees
// sandboxes the controller has already released to the pool).
func (c *Controller) aheadLocked() int64 {
	inflight := c.inflight
	if c.cfg.Probe != nil {
		if p := c.cfg.Probe(); p > inflight {
			inflight = p
		}
	}
	if c.cfg.QueueDepth != nil {
		// Requests the controller has released but the pool has not yet
		// started are backlog ahead of this arrival; the controller's own
		// count plus the pool's queue is a second lower bound.
		if d := c.inflight + c.cfg.QueueDepth(); d > inflight {
			inflight = d
		}
	}
	return int64(c.queued+inflight) - int64(c.cfg.MaxInflight-1)
}

// waitLocked is the queueing delay of a request with ahead requests before
// it at price nanos each, spread over the worker cores.
func (c *Controller) waitLocked(ahead, price int64) time.Duration {
	if ahead <= 0 {
		return 0
	}
	return time.Duration(ahead * price / int64(c.cfg.Workers))
}

// dispatchLocked grants free slots to queued waiters in weighted
// deficit-round-robin order: each visit tops the head tenant's deficit up
// by quantum×weight, then grants from its queue while the deficit covers
// the head request's price; an insufficient deficit rotates the
// tenant to the tail. Emptied tenants leave the ring and forfeit their
// deficit, so shares are proportional only among backlogged tenants
// (work-conserving).
func (c *Controller) dispatchLocked() {
	for c.inflight < c.cfg.MaxInflight && len(c.ring) > 0 {
		ts := c.ring[0]
		if len(ts.q) == 0 {
			ts.active = false
			ts.deficit = 0
			ts.topped = false
			c.ring = c.ring[1:]
			continue
		}
		// Top up once per visit. When the in-flight cap interrupts a visit
		// mid-grant, the next dispatch call resumes it with the remaining
		// deficit rather than topping up again — otherwise a tenant whose
		// grants trickle out one slot at a time would never rotate.
		if !ts.topped {
			ts.deficit += int64(drrQuantum) * int64(ts.weight)
			ts.topped = true
		}
		for len(ts.q) > 0 && c.inflight < c.cfg.MaxInflight && ts.deficit >= ts.q[0].cost {
			w := ts.q[0]
			ts.q = ts.q[1:]
			ts.deficit -= w.cost
			c.queued--
			c.inflight++
			c.admitted++
			ts.admitted++
			w.granted = true
			close(w.ch)
		}
		if c.inflight >= c.cfg.MaxInflight {
			return
		}
		if len(ts.q) == 0 {
			ts.active = false
			ts.deficit = 0
			ts.topped = false
			c.ring = c.ring[1:]
		} else {
			// Deficit exhausted: rotate to the tail for the next round.
			ts.topped = false
			c.ring = append(c.ring[1:], ts)
		}
	}
}

// removeWaiterLocked splices an expired waiter out of its tenant queue.
func (c *Controller) removeWaiterLocked(w *waiter) {
	q := w.tenant.q
	for i, x := range q {
		if x == w {
			w.tenant.q = append(q[:i], q[i+1:]...)
			c.queued--
			return
		}
	}
}

// ResetModule drops the breaker for module — called when a module is
// unregistered or replaced so a redeployed function starts with a clean
// circuit. Tickets admitted before the reset keep the dropped breaker, so
// their completions cannot trip the new one.
func (c *Controller) ResetModule(module string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.breakers, module)
}

// StartDrain stops admitting new requests (503 + Retry-After). Requests
// already queued are still granted and in-flight ones run to completion.
func (c *Controller) StartDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Draining reports whether StartDrain was called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// WaitIdle blocks until no requests are queued or in flight, or until
// timeout. It reports whether the controller went idle.
func (c *Controller) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		idle := c.inflight == 0 && c.queued == 0
		c.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Health is the compact admission view consumed by health pollers (the
// cluster router, external load balancers). Unlike Stats it carries no
// tenant accounting and no cumulative counters — just the live signals a
// placement decision needs — so polling it at router frequency stays cheap.
type Health struct {
	Draining    bool `json:"draining,omitempty"`
	Inflight    int  `json:"inflight"`
	Queued      int  `json:"queued"`
	MaxInflight int  `json:"max_inflight"`
	Workers     int  `json:"workers"`
	// Breakers maps each module with a breaker to its state.
	Breakers map[string]string `json:"breakers"`
}

// HealthSnapshot returns the compact health view.
func (c *Controller) HealthSnapshot() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Health{
		Draining:    c.draining,
		Inflight:    c.inflight,
		Queued:      c.queued,
		MaxInflight: c.cfg.MaxInflight,
		Workers:     c.cfg.Workers,
		Breakers:    c.breakerStatesLocked(),
	}
}

// breakerStatesLocked maps each module with a breaker to its state.
func (c *Controller) breakerStatesLocked() map[string]string {
	states := make(map[string]string, len(c.breakers))
	for name, b := range c.breakers {
		states[name] = b.state.String()
	}
	return states
}

// TenantSnapshot is one tenant's admission accounting.
type TenantSnapshot struct {
	Weight   int    `json:"weight"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Queued   int    `json:"queued"`
}

// Snapshot is the controller's accounting view, exposed via /__stats.
type Snapshot struct {
	Draining     bool                      `json:"draining"`
	Inflight     int                       `json:"inflight"`
	Queued       int                       `json:"queued"`
	Admitted     uint64                    `json:"admitted"`
	GrantWaits   uint64                    `json:"grant_waits"`
	ShedRate     uint64                    `json:"shed_rate_429"`
	ShedQueue    uint64                    `json:"shed_queue_503"`
	ShedDeadline uint64                    `json:"shed_deadline_503"`
	ShedBreaker  uint64                    `json:"shed_breaker_503"`
	ShedDraining uint64                    `json:"shed_draining_503"`
	Tenants      map[string]TenantSnapshot `json:"tenants"`
	Breakers     map[string]string         `json:"breakers"`
}

// Shed totals all rejection counters.
func (s Snapshot) Shed() uint64 {
	return s.ShedRate + s.ShedQueue + s.ShedDeadline + s.ShedBreaker + s.ShedDraining
}

// Stats returns a consistent snapshot.
func (c *Controller) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		Draining:     c.draining,
		Inflight:     c.inflight,
		Queued:       c.queued,
		Admitted:     c.admitted,
		GrantWaits:   c.grantWaits,
		ShedRate:     c.shedRate,
		ShedQueue:    c.shedQueue,
		ShedDeadline: c.shedDead,
		ShedBreaker:  c.shedBreak,
		ShedDraining: c.shedDrain,
		Tenants:      make(map[string]TenantSnapshot, len(c.tenants)),
		Breakers:     c.breakerStatesLocked(),
	}
	for name, ts := range c.tenants {
		snap.Tenants[name] = TenantSnapshot{
			Weight:   ts.weight,
			Admitted: ts.admitted,
			Shed:     ts.shed,
			Queued:   len(ts.q),
		}
	}
	return snap
}
