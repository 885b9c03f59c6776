package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/httpd"
	"sledge/internal/stats"
)

// ReasonClusterSaturated is the rejection reason when every candidate node
// shed the request: the continuum as a whole is out of capacity, not one
// node. The attached Retry-After is the smallest back-off any node offered.
const ReasonClusterSaturated admission.Reason = "cluster-saturated"

// MaxNodes bounds the registry so candidate selection can track visited
// nodes in one machine word.
const MaxNodes = 64

// Config tunes the router. The zero value of each field selects the
// documented default.
type Config struct {
	// PollInterval is the health poll period. Default 10ms. Between polls
	// the scorer compensates with the router's own pending counts.
	PollInterval time.Duration
	// DefaultDeadline bounds requests that carry no deadline of their own.
	// Default 1s.
	DefaultDeadline time.Duration
	// DefaultEstimate substitutes as the service estimate for modules with
	// no price on a node. Default 1ms.
	DefaultEstimate time.Duration
	// HedgeQuantile is the recent-latency quantile a request must exceed
	// before an offload retry dispatches hedged. Default 0.99.
	HedgeQuantile float64
	// HedgeMinSamples gates hedging until the module's latency window has
	// this many samples (a cold window's p99 is noise). Default 32.
	HedgeMinSamples int
}

func (c Config) withDefaults() Config {
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = time.Second
	}
	if c.DefaultEstimate <= 0 {
		c.DefaultEstimate = time.Millisecond
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.99
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 32
	}
	return c
}

// Router is the cluster front tier: it owns the node registry, polls node
// health, places each request on the cheapest candidate, and offloads
// rejections to peers instead of surfacing them.
type Router struct {
	cfg Config

	mu    sync.RWMutex
	nodes []*node // append-only; index is the node's bit in tried masks

	winMu   sync.RWMutex
	windows map[string]*stats.Window // per-module end-to-end latency

	routed          atomic.Uint64 // successful cluster responses
	offloads        atomic.Uint64 // successes served by a non-first-choice node
	offloadAttempts atomic.Uint64 // rejections retried on a peer
	hedges          atomic.Uint64 // hedged dispatch pairs launched
	hedgeWins       atomic.Uint64 // hedges where the second pick answered first
	sheds           atomic.Uint64 // cluster-level 503s (every candidate saturated)

	srvMu  sync.Mutex
	server *httpd.Server

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a router with no nodes; Register adds them.
func New(cfg Config) *Router {
	r := &Router{
		cfg:     cfg.withDefaults(),
		windows: make(map[string]*stats.Window),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.pollLoop()
	return r
}

// Register adds a node to the continuum. The node's health is polled once
// synchronously so it is placeable before the next poll tick.
func (r *Router) Register(cfg NodeConfig) error {
	if cfg.Runtime == nil {
		return fmt.Errorf("cluster: node %q has no runtime", cfg.Name)
	}
	if cfg.Name == "" {
		return errors.New("cluster: node needs a name")
	}
	n := &node{cfg: cfg}
	n.refresh()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.nodes) >= MaxNodes {
		return fmt.Errorf("cluster: node limit %d reached", MaxNodes)
	}
	for _, have := range r.nodes {
		if have.cfg.Name == cfg.Name {
			return fmt.Errorf("cluster: duplicate node %q", cfg.Name)
		}
	}
	r.nodes = append(r.nodes, n)
	return nil
}

// Close stops the front-end server (if serving) and the health poller.
// Node runtimes belong to the caller and are not touched.
func (r *Router) Close() {
	r.srvMu.Lock()
	srv := r.server
	r.srvMu.Unlock()
	if srv != nil {
		srv.Close()
	}
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// pollLoop refreshes every node's health snapshot each PollInterval.
func (r *Router) pollLoop() {
	defer close(r.done)
	ticker := time.NewTicker(r.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		r.mu.RLock()
		nodes := r.nodes
		r.mu.RUnlock()
		for _, n := range nodes {
			n.refresh()
		}
	}
}

// score rates dispatching module on n right now: round-trip link latency,
// the modeled queue wait (including this router's own in-flight dispatches
// the snapshot has not seen), and the module's price on the node, minus a
// warm bonus when the module's compiled body is resident on the node — which
// is what sticky-routes a module away from nodes whose bounded cache evicted
// it and would recompile before serving. Breaker-open nodes score a heavy
// penalty so they are the last resort rather than excluded (they may
// half-open and recover by the time we dispatch).
// Returns ok=false when the node cannot take the request at all (draining,
// module not registered, snapshot missing).
//
//sledge:noalloc
func (r *Router) score(n *node, module string) (time.Duration, bool) {
	h := n.health.Load()
	if h == nil || h.Draining {
		return 0, false
	}
	mh, registered := h.Modules[module]
	if !registered {
		return 0, false
	}
	est := time.Duration(mh.ServiceNanos)
	if est <= 0 {
		est = r.cfg.DefaultEstimate
	}
	s := 2*n.cfg.Link + h.QueueWaitEstimate(module, int(n.pending.Load()), r.cfg.DefaultEstimate) + est
	if mh.Resident {
		// Warm bonus: the compiled body is resident here; prefer it over an
		// otherwise-equal peer that would recompile it first.
		s -= est / 4
	}
	if mh.Breaker == "open" {
		s += time.Minute
	}
	return s, true
}

// pick selects the best-scoring node whose bit is not set in tried.
// known reports whether any node (tried or not) has the module registered,
// so the caller can distinguish "unknown module" from "all candidates
// exhausted".
//
//sledge:noalloc
func (r *Router) pick(nodes []*node, module string, tried uint64) (*node, int, bool) {
	var (
		best     *node
		bestIdx  int
		bestCost time.Duration
		known    bool
	)
	for i, n := range nodes {
		cost, ok := r.score(n, module)
		if !ok {
			if h := n.health.Load(); h != nil {
				if _, reg := h.Modules[module]; reg {
					known = true
				}
			}
			continue
		}
		known = true
		if tried&(1<<uint(i)) != 0 {
			continue
		}
		if best == nil || cost < bestCost {
			best, bestIdx, bestCost = n, i, cost
		}
	}
	return best, bestIdx, known
}

// window returns module's end-to-end latency window, creating it on first
// sight (the only allocation the module ever costs the router).
func (r *Router) window(module string) *stats.Window {
	r.winMu.RLock()
	w := r.windows[module]
	r.winMu.RUnlock()
	if w != nil {
		return w
	}
	r.winMu.Lock()
	defer r.winMu.Unlock()
	if w = r.windows[module]; w == nil {
		w = stats.NewWindow(0)
		r.windows[module] = w
	}
	return w
}

// dispatch sends one request to one node, simulating the declared link
// latency on both sides of the call and passing the node's admission
// controller the budget that remains after the round trip.
func (r *Router) dispatch(n *node, module string, body []byte, remaining time.Duration) ([]byte, error) {
	link := n.cfg.Link
	budget := remaining - 2*link
	if budget <= 0 {
		// The round trip alone blows the deadline; an offloadable shed
		// lets the caller try a closer node.
		return nil, &admission.Rejection{Status: 503, RetryAfter: time.Millisecond, Reason: admission.ReasonDeadlineShed}
	}
	n.dispatched.Add(1)
	n.pending.Add(1)
	if link > 0 {
		time.Sleep(link)
	}
	out, err := n.cfg.Runtime.InvokeWithDeadline(module, body, budget)
	if link > 0 {
		time.Sleep(link)
	}
	n.pending.Add(-1)
	switch {
	case err == nil:
		n.succeeded.Add(1)
	case isRejection(err):
		n.rejected.Add(1)
	default:
		n.failed.Add(1)
	}
	return out, err
}

func isRejection(err error) bool {
	var rej *admission.Rejection
	return errors.As(err, &rej)
}

// Invoke routes one request through the cluster with the default deadline.
func (r *Router) Invoke(module string, body []byte) ([]byte, error) {
	return r.InvokeWithDeadline(module, body, 0)
}

// InvokeWithDeadline places the request on the best-scoring node and, when
// that node's admission sheds it, offloads to the next-best peer while the
// deadline allows — hedging the retry across two peers once the request has
// already blown the module's recent p99. Only when every candidate has shed
// (or cannot take the module) does it return the cluster-saturated
// rejection, carrying the smallest Retry-After any node offered.
//
// Non-offloadable outcomes end the loop at once: rate-limit rejections are
// tenant policy (retrying elsewhere would launder traffic past the limit),
// and hard errors (traps, timeouts) may have side effects a blind re-send
// would duplicate.
func (r *Router) InvokeWithDeadline(module string, body []byte, deadline time.Duration) ([]byte, error) {
	if deadline <= 0 {
		deadline = r.cfg.DefaultDeadline
	}
	start := time.Now()
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()
	var (
		tried    uint64
		minRetry time.Duration
	)
	for attempt := 0; ; attempt++ {
		elapsed := time.Since(start)
		remaining := deadline - elapsed
		if remaining <= 0 {
			return nil, r.shed(minRetry)
		}
		best, idx, known := r.pick(nodes, module, tried)
		if best == nil {
			if !known {
				return nil, fmt.Errorf("%w: %s", core.ErrNoModule, module)
			}
			return nil, r.shed(minRetry)
		}
		var (
			out  []byte
			err  error
			sent bool
		)
		if attempt > 0 && r.shouldHedge(module, elapsed) {
			if second, idx2, _ := r.pick(nodes, module, tried|1<<uint(idx)); second != nil {
				tried |= 1<<uint(idx) | 1<<uint(idx2)
				out, err = r.hedged(best, second, module, body, remaining)
				sent = true
			}
		}
		if !sent {
			tried |= 1 << uint(idx)
			out, err = r.dispatch(best, module, body, remaining)
		}
		if err == nil {
			r.routed.Add(1)
			if attempt > 0 {
				r.offloads.Add(1)
			}
			r.window(module).Observe(time.Since(start))
			return out, nil
		}
		var rej *admission.Rejection
		if errors.As(err, &rej) && rej.Offloadable() {
			if rej.RetryAfter > 0 && (minRetry == 0 || rej.RetryAfter < minRetry) {
				minRetry = rej.RetryAfter
			}
			r.offloadAttempts.Add(1)
			continue
		}
		return nil, err
	}
}

// shed builds the cluster-saturated rejection and counts it.
func (r *Router) shed(minRetry time.Duration) error {
	r.sheds.Add(1)
	if minRetry <= 0 {
		minRetry = time.Second
	}
	return &admission.Rejection{Status: 503, RetryAfter: minRetry, Reason: ReasonClusterSaturated}
}

// shouldHedge reports whether a retry for module should dispatch hedged:
// the request has already outlived the module's recent p99, so waiting on
// one more single pick risks blowing the deadline entirely.
func (r *Router) shouldHedge(module string, elapsed time.Duration) bool {
	w := r.window(module)
	if w.Count() < r.cfg.HedgeMinSamples {
		return false
	}
	p := w.Quantile(r.cfg.HedgeQuantile)
	return p > 0 && elapsed > p
}

// hedged dispatches the request to both nodes concurrently and returns the
// first success; when both fail it returns the primary's error (an
// offloadable rejection keeps the caller's loop going — both nodes are
// already marked tried).
func (r *Router) hedged(a, b *node, module string, body []byte, remaining time.Duration) ([]byte, error) {
	r.hedges.Add(1)
	type result struct {
		out    []byte
		err    error
		second bool
	}
	ch := make(chan result, 2)
	go func() {
		out, err := r.dispatch(a, module, body, remaining)
		ch <- result{out, err, false}
	}()
	go func() {
		out, err := r.dispatch(b, module, body, remaining)
		ch <- result{out, err, true}
	}()
	first := <-ch
	if first.err == nil {
		if first.second {
			r.hedgeWins.Add(1)
		}
		// The loser drains in the background; its node counters still
		// record the outcome.
		return first.out, nil
	}
	if second := <-ch; second.err == nil {
		if second.second {
			r.hedgeWins.Add(1)
		}
		return second.out, nil
	}
	return nil, first.err
}
