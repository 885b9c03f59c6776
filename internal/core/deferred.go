package core

import (
	"sync/atomic"
	"time"

	"sledge/internal/admission"
	"sledge/internal/httpd"
	"sledge/internal/sandbox"
)

// call is one keep-alive connection's deferred request: a request whose
// sandbox left the connection's goroutine replies from wherever it
// finishes — a worker, the goroutine of its I/O timer, or a stopping
// pool's — through the finisher hook it was handed (sandbox.Defer). The
// paper's workers write their replies the same way. Meanwhile the
// connection's goroutine reads the next request; it neither waits for the
// worker nor sits between the completion and the bytes on the wire.
//
// Two parties may reply: the hook, and the request timer, which disowns a
// sandbox that overruns RequestTimeout. The sandbox's ownership CAS
// decides between them (Abandon against the hook's relDeferred →
// relFinished), so exactly one replies. The connection's goroutine alone
// releases the sandbox, in Settle, once both parties have left the call —
// the hook when it has replied, the timer when it has fired or been
// stopped — so a late timer never touches a recycled shell. A sandbox the
// timer disowned is the worker's to recycle.
//
// One call serves all of a connection's deferred requests, so the steady
// state allocates nothing: the timer and the bound hook are made once.
type call struct {
	rt  *Runtime
	rep *httpd.Reply
	// finish is c.finished bound once: the hook handed to sandbox.Defer.
	finish func(*sandbox.Sandbox)
	// timer runs c.expire RequestTimeout after begin; armed reports that
	// it was armed for the request in flight (connection goroutine only).
	timer *time.Timer
	armed bool

	// The request in flight, set by begin before its parties start.
	m      *Module
	sb     *sandbox.Sandbox
	ticket *admission.Ticket

	// abandoned is set by a timer that disowned sb.
	abandoned bool
	// parties counts the hook and the timer until each has left; the one
	// that leaves last signals left, which Settle waits on.
	parties atomic.Int32
	left    chan struct{}
}

// callOn returns the connection's call, made on its first deferred request.
func (rt *Runtime) callOn(rep *httpd.Reply) *call {
	if c, ok := rep.Settler.(*call); ok {
		return c
	}
	c := &call{rt: rt, rep: rep, left: make(chan struct{}, 1)}
	c.finish = c.finished
	rep.Settler = c
	return c
}

// begin hands a sandbox the scheduler still holds over to the call. A
// sandbox that finished after all, between Run and here, replies at once
// from this goroutine.
func (c *call) begin(m *Module, sb *sandbox.Sandbox, ticket *admission.Ticket) {
	c.m, c.sb, c.ticket = m, sb, ticket
	c.parties.Store(2)
	if !sb.Defer(c.finish) {
		<-sb.Done()
		c.finished(sb)
		c.leave(1) // the timer's share: it is never armed
		return
	}
	if c.timer == nil {
		c.timer = time.AfterFunc(c.rt.cfg.RequestTimeout, c.expire)
	} else {
		c.timer.Reset(c.rt.cfg.RequestTimeout)
	}
	c.armed = true
}

// finished is the hook: it accounts the completion, closes the admission
// ticket and sends the reply, whose Send copies the sandbox's output into
// the connection's buffer. It is the finisher's last touch of sb.
//
//sledge:noalloc
func (c *call) finished(sb *sandbox.Sandbox) {
	body, outcome, err := c.m.complete(sb)
	if c.ticket != nil {
		c.ticket.Done(outcome, 0)
	}
	c.rep.Send(httpResponse(body, err))
	c.leave(1)
}

// expire is the request timer. When it disowns the sandbox it replies with
// the timeout, and leaves for the hook as well, which will never run;
// otherwise the hook has the reply.
func (c *call) expire() {
	if !c.sb.Abandon() {
		c.leave(1)
		return
	}
	c.abandoned = true
	err := c.rt.timedOut(c.m)
	if c.ticket != nil {
		c.ticket.Done(admission.OutcomeTimeout, 0)
	}
	c.rep.Send(httpResponse(nil, err))
	c.leave(2)
}

// leave retires n parties; the last to leave signals Settle.
func (c *call) leave(n int32) {
	if c.parties.Add(-n) == 0 {
		c.left <- struct{}{}
	}
}

// Settle runs on the connection's goroutine once the reply is sent: it
// stops the timer (leaving in its stead if it never fired), waits for the
// parties still inside the call, and releases the sandbox unless the timer
// gave it to a worker.
func (c *call) Settle() {
	if c.armed && c.timer.Stop() {
		c.leave(1)
	}
	c.armed = false
	<-c.left
	if !c.abandoned {
		c.sb.Release()
	}
	c.m, c.sb, c.ticket, c.abandoned = nil, nil, nil, false
}
