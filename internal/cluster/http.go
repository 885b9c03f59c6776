package cluster

import (
	"encoding/json"
	"errors"
	"net"
	"strconv"
	"strings"
	"time"

	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/httpd"
)

// Snapshot is the router's accounting view, served at /__cluster.
type Snapshot struct {
	Routed          uint64         `json:"routed"`
	Offloads        uint64         `json:"offloads"`
	OffloadAttempts uint64         `json:"offload_attempts"`
	Hedges          uint64         `json:"hedges"`
	HedgeWins       uint64         `json:"hedge_wins"`
	Sheds           uint64         `json:"sheds"`
	Nodes           []NodeSnapshot `json:"nodes"`
}

// NodeSnapshot is one node's accounting and last-polled health summary.
type NodeSnapshot struct {
	Name       string `json:"name"`
	Class      string `json:"class"`
	LinkNanos  int64  `json:"link_ns"`
	Dispatched uint64 `json:"dispatched"`
	Succeeded  uint64 `json:"succeeded"`
	Rejected   uint64 `json:"rejected"`
	Failed     uint64 `json:"failed"`
	Pending    int64  `json:"pending"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	Workers    int    `json:"workers"`
	Draining   bool   `json:"draining,omitempty"`
}

// Stats snapshots the router's counters and per-node accounting.
func (r *Router) Stats() Snapshot {
	snap := Snapshot{
		Routed:          r.routed.Load(),
		Offloads:        r.offloads.Load(),
		OffloadAttempts: r.offloadAttempts.Load(),
		Hedges:          r.hedges.Load(),
		HedgeWins:       r.hedgeWins.Load(),
		Sheds:           r.sheds.Load(),
	}
	r.mu.RLock()
	nodes := r.nodes
	r.mu.RUnlock()
	snap.Nodes = make([]NodeSnapshot, 0, len(nodes))
	for _, n := range nodes {
		ns := NodeSnapshot{
			Name:       n.cfg.Name,
			Class:      n.cfg.Class.String(),
			LinkNanos:  int64(n.cfg.Link),
			Dispatched: n.dispatched.Load(),
			Succeeded:  n.succeeded.Load(),
			Rejected:   n.rejected.Load(),
			Failed:     n.failed.Load(),
			Pending:    n.pending.Load(),
		}
		if h := n.health.Load(); h != nil {
			ns.QueueDepth = h.QueueDepth
			ns.Inflight = h.Inflight
			ns.Workers = h.Workers
			ns.Draining = h.Draining
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	return snap
}

// Handler returns the cluster front end: module invocation on /<name> with
// the same deadline header the single-node listener honours, plus the
// router's own stats at /__cluster. Rejections surface exactly as a node
// would surface them — status, Retry-After, reason — so a client cannot
// tell a cluster from one big node, except that far fewer requests shed.
func (r *Router) Handler() httpd.Handler {
	return func(req *httpd.Request) httpd.Response {
		name := strings.TrimPrefix(req.Path, "/")
		if i := strings.IndexByte(name, '?'); i >= 0 {
			name = name[:i]
		}
		if name == "__cluster" {
			return r.statsResponse()
		}
		var deadline time.Duration
		if v := req.Header[core.DeadlineHeader]; v != "" {
			if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
				deadline = time.Duration(ms) * time.Millisecond
			}
		}
		body, err := r.InvokeWithDeadline(name, req.Body, deadline)
		var rej *admission.Rejection
		switch {
		case errors.Is(err, core.ErrNoModule):
			return httpd.Response{Status: 404, Body: []byte(err.Error() + "\n")}
		case errors.As(err, &rej):
			return httpd.Response{
				Status:      rej.Status,
				RetryAfter:  rej.RetryAfter,
				ContentType: "text/plain",
				Body:        []byte(rej.Reason + "\n"),
			}
		case err != nil:
			return httpd.Response{Status: 500, Body: []byte(err.Error() + "\n")}
		}
		return httpd.Response{Status: 200, Body: body}
	}
}

func (r *Router) statsResponse() httpd.Response {
	body, err := json.Marshal(r.Stats())
	if err != nil {
		return httpd.Response{Status: 500, Body: []byte(err.Error())}
	}
	return httpd.Response{Status: 200, ContentType: "application/json", Body: body}
}

// Serve runs the cluster front end on ln until Close or Drain.
func (r *Router) Serve(ln net.Listener) error {
	r.srvMu.Lock()
	if r.server == nil {
		r.server = &httpd.Server{Handler: r.Handler()}
	}
	srv := r.server
	r.srvMu.Unlock()
	return srv.Serve(ln)
}

// Drain gracefully stops the front end (if serving) and then the poller.
// Node runtimes belong to the caller: drain them separately.
func (r *Router) Drain(timeout time.Duration) bool {
	r.srvMu.Lock()
	srv := r.server
	r.srvMu.Unlock()
	clean := true
	if srv != nil {
		clean = srv.Drain(timeout)
	}
	r.Close()
	return clean
}
