package core

import (
	"sync"
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
// relFinished), so exactly one replies. The hook stops the timer once it
// has replied, leaving in the timer's stead when the timer never fired.
// Whichever party leaves the call last releases the sandbox, so a late
// timer never touches a recycled shell and an idle connection holds no
// sandbox; a sandbox the timer disowned is the worker's to recycle.
//
// One call serves all of a connection's deferred requests, so the steady
// state allocates nothing: the timer and the bound hook are made once.
type call struct {
	rt  *Runtime
	rep *httpd.Reply
	// finish is c.finished bound once: the hook handed to sandbox.Defer.
	finish func(*sandbox.Sandbox)
	// timer runs c.expire RequestTimeout after begin arms it.
	timer *time.Timer
	// handing is held by begin from arming the timer until sb.Defer has
	// returned: expire waits for it, so it never disowns a sandbox begin
	// has not handed over yet.
	handing sync.Mutex

	// The request in flight, set by begin before its parties start.
	m      *Module
	sb     *sandbox.Sandbox
	ticket *admission.Ticket

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

// begin hands a sandbox the scheduler still holds over to the call. The
// timer is armed first, so the hook always finds it armed. A sandbox that
// finished after all, between Run and here, replies at once from this
// goroutine.
func (c *call) begin(m *Module, sb *sandbox.Sandbox, ticket *admission.Ticket) {
	c.m, c.sb, c.ticket = m, sb, ticket
	c.parties.Store(2)
	c.handing.Lock()
	if c.timer == nil {
		c.timer = time.AfterFunc(c.rt.cfg.RequestTimeout, c.expire)
	} else {
		c.timer.Reset(c.rt.cfg.RequestTimeout)
	}
	deferred := sb.Defer(c.finish)
	c.handing.Unlock()
	if !deferred {
		<-sb.Done()
		c.finished(sb)
	}
}

// finished is the hook: it accounts the completion, closes the admission
// ticket and sends the reply, whose Send copies the sandbox's output into
// the connection's buffer, then stops the timer.
//
//sledge:noalloc
func (c *call) finished(sb *sandbox.Sandbox) {
	body, outcome, err := c.m.complete(sb, nil)
	if c.ticket != nil {
		c.ticket.Done(outcome, 0)
	}
	c.rep.Send(httpResponse(body, err))
	if c.timer.Stop() {
		c.leave(2) // the timer's share too: it will never fire
	} else {
		c.leave(1)
	}
}

// expire is the request timer. When it disowns the sandbox it replies with
// the timeout and is the only party left, for the hook will never run;
// otherwise the hook has the reply.
func (c *call) expire() {
	c.handing.Lock()
	c.handing.Unlock()
	if !c.sb.Abandon() {
		c.leave(1)
		return
	}
	err := c.rt.timedOut(c.m, nil)
	if c.ticket != nil {
		c.ticket.Done(admission.OutcomeTimeout, 0)
	}
	c.rep.Send(httpResponse(nil, err))
	c.left <- struct{}{}
}

// leave retires n parties. The last to leave releases the sandbox and
// signals Settle.
//
//sledge:noalloc
func (c *call) leave(n int32) {
	if c.parties.Add(-n) == 0 {
		c.sb.Release()
		c.left <- struct{}{}
	}
}

// Settle runs on the connection's goroutine once the reply is sent: it
// waits for both parties to leave, so that the next request may reuse the
// call.
func (c *call) Settle() {
	<-c.left
	c.m, c.sb, c.ticket = nil, nil, nil
}
