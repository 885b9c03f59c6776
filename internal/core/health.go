package core

// The machine-readable health surface: a compact per-node snapshot of the
// live signals a placement decision needs — scheduler queue depth, in-flight
// count, per-module price, breaker states, and whether each
// module's compiled body is resident. The cluster router (internal/cluster)
// polls this instead of the full /__stats payload, and external load
// balancers can hit GET /__health for the same view; both are deliberately
// cheaper than /__stats (no tenant accounting, no cumulative counters,
// compact JSON).

import (
	"encoding/json"
	"time"

	"sledge/internal/admission"
	"sledge/internal/httpd"
)

// ModuleHealth is one module's health: the price the node sheds against,
// its breaker state, and whether its compiled body is resident (a router
// prefers nodes where it is — a cold node must recompile before it can
// serve).
type ModuleHealth struct {
	// ServiceNanos is the node's price of one request: the module's mean
	// gas at the node's learned rate plus its mean blocked span (a
	// pipeline's, the sum of its stages'); 0 before the first completion.
	ServiceNanos int64 `json:"service_ns"`
	// Breaker is the module's circuit state ("closed", "open",
	// "half-open"); empty without admission control or before the node
	// has admitted a request for the module.
	Breaker string `json:"breaker,omitempty"`
	// Resident reports whether the compiled body is installed; false
	// while the bounded cache has dropped it. A pipeline is resident when
	// every stage is.
	Resident bool `json:"resident"`
}

// HealthSnapshot is the node's compact health view.
type HealthSnapshot struct {
	// QueueDepth is sandboxes queued in the scheduler but not started.
	QueueDepth int `json:"queue_depth"`
	// Inflight is sandboxes dispatched and not yet complete.
	Inflight int `json:"inflight"`
	// Workers is the node's worker-core count (converts backlog to wait).
	Workers int `json:"workers"`
	// MaxInflight and AdmitQueued describe the admission controller's
	// dispatch window and queue; both are 0 without admission control.
	MaxInflight int `json:"max_inflight,omitempty"`
	AdmitQueued int `json:"admit_queued,omitempty"`
	// Draining reports a node refusing new work for graceful shutdown.
	Draining bool `json:"draining,omitempty"`
	// Modules maps registered module names to their health.
	Modules map[string]ModuleHealth `json:"modules"`
}

// Health assembles the node's compact health snapshot.
func (rt *Runtime) Health() HealthSnapshot {
	h := HealthSnapshot{
		QueueDepth: rt.pool.QueueDepth(),
		Inflight:   rt.pool.Inflight(),
		Workers:    rt.pool.Workers(),
	}
	var ah admission.Health
	if rt.adm != nil {
		ah = rt.adm.HealthSnapshot()
		h.MaxInflight = ah.MaxInflight
		h.AdmitQueued = ah.Queued
		h.Draining = ah.Draining
		if ah.Inflight > h.Inflight {
			h.Inflight = ah.Inflight
		}
		if ah.Workers > h.Workers {
			// The admission capacity hint exceeds the core count when
			// functions block on I/O (the event loop drains the whole
			// dispatch window concurrently); the external wait model must
			// divide by the same drain rate the controller sheds against.
			h.Workers = ah.Workers
		}
	}
	rate := rt.pool.GasRate()
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	h.Modules = make(map[string]ModuleHealth, len(rt.registry)+len(rt.pipelines))
	for name, m := range rt.registry {
		h.Modules[name] = ModuleHealth{
			ServiceNanos: int64(m.cost(rate)),
			Breaker:      ah.Breakers[name],
			Resident:     m.Compiled() != nil,
		}
	}
	// Pipelines appear under their reserved "p/<name>" keys so routers
	// place whole chains like modules: priced as the sum of their stages,
	// and resident only when every stage is.
	for name, p := range rt.pipelines {
		key := PipelinePrefix + name
		h.Modules[key] = ModuleHealth{
			ServiceNanos: int64(rt.chainCostLocked(p, rate)),
			Breaker:      ah.Breakers[key],
			Resident:     rt.chainResidentLocked(p),
		}
	}
	return h
}

// healthResponse serves GET /__health: the compact snapshot as one-line
// JSON. Routers and load balancers poll this at high frequency, so it skips
// the indented rendering and the heavyweight accounting of /__stats.
func (rt *Runtime) healthResponse() httpd.Response {
	body, err := json.Marshal(rt.Health())
	if err != nil {
		return httpd.Response{Status: 500, Body: []byte(err.Error())}
	}
	return httpd.Response{Status: 200, ContentType: "application/json", Body: body}
}

// estimateFor returns the health snapshot's price for module in
// nanoseconds, or def when the module is unknown or has no price yet.
func (h *HealthSnapshot) estimateFor(module string, def int64) int64 {
	if mh, ok := h.Modules[module]; ok && mh.ServiceNanos > 0 {
		return mh.ServiceNanos
	}
	return def
}

// QueueWaitEstimate mirrors the admission controller's queueing-delay model
// from the outside: the backlog that must drain before a new arrival for
// module gets a slot, at the module's price, spread over
// the worker cores. extraInflight is backlog the snapshot cannot see yet
// (e.g. requests a router has dispatched since the last poll). defEstimate
// substitutes for modules with no samples.
func (h *HealthSnapshot) QueueWaitEstimate(module string, extraInflight int, defEstimate time.Duration) time.Duration {
	est := h.estimateFor(module, int64(defEstimate))
	slots := h.MaxInflight
	if slots <= 0 {
		// No admission controller: the dispatch window is the worker count.
		slots = h.Workers
	}
	ahead := int64(h.AdmitQueued+h.QueueDepth+h.Inflight+extraInflight) - int64(slots-1)
	if ahead <= 0 {
		return 0
	}
	workers := h.Workers
	if workers <= 0 {
		workers = 1
	}
	return time.Duration(ahead * est / int64(workers))
}
