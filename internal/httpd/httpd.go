// Package httpd is a minimal HTTP/1.1 server substrate for the Sledge
// listener core: request-line and header parsing, Content-Length bodies,
// keep-alive connections, and plain responses. The paper's runtime speaks
// raw HTTP over TCP sockets from a dedicated listener core; this package is
// that layer, kept deliberately small and allocation-light.
//
// A handler may defer a keep-alive request's reply (Request.Defer) and send
// it later from any goroutine (Reply.Send): the runtime's worker that
// finishes a sandbox writes its reply itself, as the paper's workers do,
// while the connection's goroutine is already reading the next request.
//
// The server defends the accept side of the admission-control pipeline:
// per-connection read deadlines bound how long a client may dribble a
// request in (the slow-loris exposure), a concurrent-connection cap sheds
// excess connections with an immediate 503 + Retry-After, and Drain
// supports graceful shutdown (stop accepting, finish in-flight requests,
// then close).
package httpd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Request is one parsed HTTP request.
type Request struct {
	Method string
	Path   string
	Proto  string
	Header map[string]string
	Body   []byte
	// Close reports that the client requested connection close.
	Close bool

	// c is the connection the request was read from; nil for a request
	// parsed outside a Server.
	c *conn
}

// Response is the handler's reply.
type Response struct {
	// Status is the HTTP status code; 0 means 200.
	Status int
	// ContentType defaults to application/octet-stream.
	ContentType string
	// RetryAfter, when positive, emits a Retry-After header (whole
	// seconds, rounded up) — the back-off hint on 429/503 sheds.
	RetryAfter time.Duration
	Body       []byte
}

// Handler processes one request. Handlers may block; each connection is
// served sequentially in order. A handler that calls req.Defer replies with
// Reply.Send instead, and its return value is ignored.
type Handler func(*Request) Response

// Settler is a handler's own state for one connection's deferred replies.
type Settler interface {
	// Settle runs on the connection's goroutine after a deferred reply has
	// been sent, before the connection handles its next request or closes.
	Settle()
}

// Reply is a connection's deferred reply: what Request.Defer returns.
type Reply struct {
	// Settler is the handler's state for this connection, kept across its
	// requests: nil on a new connection. When set, its Settle runs after
	// every deferred reply.
	Settler Settler

	c *conn
}

// Defer takes the reply to req off the handler's return: the handler (or
// whoever it hands the returned Reply to) calls Send exactly once, from
// any goroutine, and meanwhile the connection reads the next request. It
// waits for this reply before it handles that request, so replies keep
// their order. Defer returns nil — the handler then replies by returning,
// as usual — for a request that closes its connection (Connection: close,
// or HTTP/1.0 without keep-alive), while the server drains, and for a
// request not read by a Server.
func (req *Request) Defer() *Reply {
	c := req.c
	if c == nil || req.Close || c.srv.draining.Load() {
		return nil
	}
	c.pending = true
	if c.srv.ReadTimeout > 0 {
		// The next request's read window opens when this reply is sent.
		c.nc.SetReadDeadline(time.Time{})
	}
	return &c.rep
}

// Send writes resp as the reply Defer took over; resp.Body is copied
// before Send returns. It never waits for the client: it formats the reply
// into the connection's buffer and makes one non-blocking write, and what
// the socket does not take at once a goroutine of its own writes under the
// server's WriteTimeout.
//
//sledge:noalloc
func (r *Reply) Send(resp Response) {
	c := r.c
	c.closeAfter = c.srv.draining.Load()
	c.buf = appendResponse(c.buf[:0], resp, c.closeAfter)
	c.off = 0
	if c.raw != nil {
		// An error (a closed conn, a lapsed write deadline) writes nothing,
		// and writeRest reports it.
		_ = c.raw.Write(c.writeFn)
	}
	if c.off < len(c.buf) {
		go c.writeRest() //sledge:coldpath
		return
	}
	c.wrote(nil)
}

// ErrMalformedRequest reports an unparseable request.
var ErrMalformedRequest = errors.New("httpd: malformed request")

// MaxBodyBytes bounds request bodies (default 8 MiB).
const MaxBodyBytes = 8 << 20

// MaxHeaderBytes bounds the request line and header block together.
const MaxHeaderBytes = 64 << 10

// conn is one served connection's reply state.
type conn struct {
	srv *Server
	nc  net.Conn
	// raw is nc's descriptor for Send's non-blocking write (nil when nc has
	// none), and writeFn that write, bound once.
	raw     syscall.RawConn
	writeFn func(uintptr) bool
	rep     Reply

	// The deferred reply: its bytes, how many are written, how the write
	// ended, and whether the connection closes after it.
	buf        []byte
	off        int
	err        error
	closeAfter bool
	// sent receives once per deferred reply, when it is written or failed.
	sent chan struct{}
	// pending is set while a deferred reply is owed; only the connection's
	// goroutine reads or writes it.
	pending bool
}

// maxKeptReply is the largest reply buffer a connection keeps between
// deferred replies.
const maxKeptReply = 64 << 10

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc, sent: make(chan struct{}, 1)}
	c.rep.c = c
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.raw = raw
			c.writeFn = c.writeNow
		}
	}
	return c
}

// writeNow is Send's write: one write(2) of what is left of the reply,
// which returns at once on Go's non-blocking descriptor.
func (c *conn) writeNow(fd uintptr) bool {
	c.off += writeFD(fd, c.buf[c.off:])
	return true
}

// writeRest writes what Send's non-blocking write left, off the sender's
// goroutine, under the server's WriteTimeout.
func (c *conn) writeRest() {
	if c.srv.WriteTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.WriteTimeout))
	}
	_, err := c.nc.Write(c.buf[c.off:])
	c.wrote(err)
}

// wrote ends a deferred reply's write: it opens the next request's read
// window, or closes the connection when the reply was lost (which also ends
// a read blocked on it), and then tells the connection's goroutine.
func (c *conn) wrote(err error) {
	c.err = err
	if err != nil {
		c.nc.Close()
	} else if c.srv.ReadTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.srv.ReadTimeout))
	}
	c.sent <- struct{}{}
}

// settle waits for the deferred reply owed, if any, and runs the handler's
// Settle. It reports whether the connection may serve another request.
func (c *conn) settle() bool {
	if !c.pending {
		return true
	}
	<-c.sent
	c.pending = false
	if c.rep.Settler != nil {
		c.rep.Settler.Settle()
	}
	if cap(c.buf) > maxKeptReply {
		c.buf = nil
	}
	return c.err == nil && !c.closeAfter
}

// connState tracks one connection's request lifecycle so drain can tell
// idle connections (safe to close now) from ones mid-request (must be
// allowed to finish).
type connState struct {
	mu     sync.Mutex
	active bool // a request has been read and is being handled
	closed bool // drain closed the conn; do not start a new request
}

// Server serves HTTP over a listener.
type Server struct {
	Handler Handler

	// ReadTimeout bounds reading one full request (and keep-alive idle
	// gaps); it is armed before each request read. Zero disables it.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response. Zero disables it.
	WriteTimeout time.Duration
	// MaxConns caps concurrent connections; excess connections receive an
	// immediate 503 + Retry-After and are closed. Zero means unlimited.
	MaxConns int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	closed   atomic.Bool
	draining atomic.Bool

	// Accepted counts accepted connections; Served counts requests;
	// Rejected counts connections shed by MaxConns; TimedOut counts
	// connections closed by a read deadline (slow or idle clients).
	Accepted atomic.Uint64
	Served   atomic.Uint64
	Rejected atomic.Uint64
	TimedOut atomic.Uint64
}

// conn503 is the canned response for connections shed at accept time.
const conn503 = "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: 1\r\nConnection: close\r\n\r\n"

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if s.MaxConns > 0 && s.connCount() >= s.MaxConns {
			s.Rejected.Add(1)
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			io.WriteString(conn, conn503)
			conn.Close()
			continue
		}
		s.Accepted.Add(1)
		st := s.track(conn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn, st)
		}()
	}
}

func (s *Server) track(c net.Conn) *connState {
	st := &connState{}
	s.mu.Lock()
	s.conns[c] = st
	s.mu.Unlock()
	return st
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops accepting and closes active connections immediately.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	return err
}

// Drain gracefully shuts the server down: stop accepting, close idle
// connections, let requests already being handled write their responses
// (each such connection then closes), and force-close whatever remains
// when the timeout lapses. It reports whether every connection finished
// cleanly within the timeout.
func (s *Server) Drain(timeout time.Duration) bool {
	s.draining.Store(true)
	s.closed.Store(true)
	s.mu.Lock()
	ln := s.listener
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	deadline := time.Now().Add(timeout)
	for {
		if s.sweepConns() == 0 {
			return true
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Timeout: force-close stragglers.
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return false
}

// sweepConns retires connections with no request in flight and returns how
// many connections remain tracked. Rather than closing the socket outright
// — which would drop, with no response at all, a request the serve loop has
// fully read but not yet marked active — the sweep marks the connection
// closed and pokes its read deadline into the past. A read blocked waiting
// for a request unblocks immediately and the goroutine exits; a request
// that already made it off the wire is answered with a canned 503 first.
// The deadline is re-poked every sweep because the serve loop may re-arm
// ReadTimeout concurrently with the first poke.
func (s *Server) sweepConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c, st := range s.conns {
		st.mu.Lock()
		if !st.active {
			st.closed = true
			c.SetReadDeadline(time.Now())
		}
		st.mu.Unlock()
	}
	return len(s.conns)
}

func (s *Server) serveConn(conn net.Conn, st *connState) {
	c := newConn(s, conn)
	defer c.settle()
	br := bufio.NewReaderSize(conn, 16<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)
	for {
		if s.ReadTimeout > 0 && !c.pending {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		req, err := ReadRequest(br)
		// Nothing is written, and no request handled, before the reply
		// owed is out.
		if !c.settle() {
			return
		}
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				st.mu.Lock()
				drained := st.closed
				st.mu.Unlock()
				if !drained {
					// Slow-loris or idle keep-alive: the client failed to
					// deliver a request within the read window. (A drain
					// sweep poking the deadline lands here too but is not a
					// client timeout.)
					s.TimedOut.Add(1)
				}
				return
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				writeResponse(bw, Response{Status: 400, Body: []byte(err.Error() + "\n")}, true)
				bw.Flush()
			}
			return
		}
		// Transition idle → active under the state lock so a concurrent
		// drain sweep either marked us closed already or waits for this
		// request to complete.
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			// The sweep retired this connection between the read and the
			// idle → active transition. The request was never admitted;
			// answer with a shed 503 + Retry-After so the client retries
			// instead of seeing a bare connection close.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			writeResponse(bw, Response{Status: 503, RetryAfter: time.Second}, true)
			bw.Flush()
			return
		}
		st.active = true
		st.mu.Unlock()
		s.Served.Add(1)
		req.c = c
		resp := s.Handler(req)
		if c.pending {
			// A deferred reply: back to reading while it is made. Drain
			// may retire the connection now; the reply still goes out
			// before the connection closes.
			st.mu.Lock()
			st.active = false
			st.mu.Unlock()
			continue
		}
		closeAfter := req.Close || s.draining.Load()
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		werr := writeResponse(bw, resp, closeAfter)
		ferr := bw.Flush()
		st.mu.Lock()
		st.active = false
		st.mu.Unlock()
		if werr != nil || ferr != nil || closeAfter {
			return
		}
	}
}

// ReadRequest parses one request from the stream. A body is framed by
// Content-Length only: a request that names a Transfer-Encoding, or whose
// Content-Length is not plain digits or is given twice with different
// values, is malformed — read any other way, its body would be parsed as the
// next request on the connection. So is a header name that is not a token
// (a space before the colon, or a folded continuation line): a proxy that
// reads it as a different header frames the body differently. Of a repeated
// header the first value is kept, the one net/http's Header.Get reads, and
// Connection's tokens are read from every line.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	budget := MaxHeaderBytes
	line, err := readLine(br, &budget)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !isToken(parts[0]) || parts[2] != "HTTP/1.1" && parts[2] != "HTTP/1.0" {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformedRequest, line)
	}
	req := &Request{
		Method: parts[0],
		Path:   parts[1],
		Proto:  parts[2],
		Header: make(map[string]string, 8),
	}
	var closeTok, keepAlive bool
	for {
		line, err := readLine(br, &budget)
		if err != nil {
			return nil, err
		}
		if line == "" {
			break
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 || !isToken(line[:colon]) || !validValue(line[colon+1:]) {
			return nil, fmt.Errorf("%w: bad header %q", ErrMalformedRequest, line)
		}
		key := strings.ToLower(line[:colon])
		val := strings.Trim(line[colon+1:], " \t")
		switch key {
		case "transfer-encoding":
			return nil, fmt.Errorf("%w: transfer-encoding %q not supported", ErrMalformedRequest, val)
		case "connection":
			closeTok = closeTok || hasToken(val, "close")
			keepAlive = keepAlive || hasToken(val, "keep-alive")
		}
		if prev, dup := req.Header[key]; dup {
			if key == "content-length" && prev != val {
				return nil, fmt.Errorf("%w: conflicting content-length %q and %q", ErrMalformedRequest, prev, val)
			}
			continue
		}
		req.Header[key] = val
	}
	req.Close = closeTok || req.Proto == "HTTP/1.0" && !keepAlive
	if cl, ok := req.Header["content-length"]; ok {
		// Digits only: Atoi alone would also take a sign.
		n, err := strconv.Atoi(cl)
		if err != nil || cl == "" || strings.Trim(cl, "0123456789") != "" {
			return nil, fmt.Errorf("%w: bad content-length %q", ErrMalformedRequest, cl)
		}
		if n > MaxBodyBytes {
			return nil, fmt.Errorf("%w: body of %d bytes exceeds limit", ErrMalformedRequest, n)
		}
		body, err := readBody(br, n)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated body", ErrMalformedRequest)
		}
		req.Body = body
	}
	return req, nil
}

// bodyChunk is the most ReadRequest allocates for a body before its bytes
// arrive: a body costs in proportion to the bytes sent, not the length
// declared.
const bodyChunk = 64 << 10

// readBody reads an n-byte body into a buffer of exactly n bytes. A body
// larger than bodyChunk starts in a bodyChunk buffer that doubles, capped
// at n, each time the bytes already read fill it.
func readBody(br *bufio.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, bodyChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(br, body[got:]); err != nil {
			return nil, err
		}
		if got = len(body); got == n {
			return body, nil
		}
		grown := make([]byte, min(2*len(body), n))
		copy(grown, body)
		body = grown
	}
}

// isToken reports whether s is a non-empty RFC 9110 token: the syntax of a
// method and of a header name.
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return s != ""
}

// validValue reports whether s holds only header-value bytes: visible
// characters, space, tab and obs-text. A stray CR or NUL is refused.
func validValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list holds tok, compared
// case-insensitively in ASCII.
func hasToken(list, tok string) bool {
	for list != "" {
		var t string
		t, list, _ = strings.Cut(list, ",")
		if t = strings.Trim(t, " \t"); len(t) == len(tok) && strings.EqualFold(t, tok) {
			return true
		}
	}
	return false
}

// readLine reads one CRLF- or LF-terminated line and charges it, terminator
// included, to *budget: the bytes left for the request's header block.
func readLine(br *bufio.Reader, budget *int) (string, error) {
	var sb strings.Builder
	for {
		chunk, err := br.ReadSlice('\n')
		sb.Write(chunk)
		if sb.Len() > *budget {
			return "", fmt.Errorf("%w: header block over %d bytes", ErrMalformedRequest, MaxHeaderBytes)
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if err != nil {
			// Propagate even when partial data arrived: a line cut off by
			// EOF or a read deadline is not a request line. (bufio.ReadLine
			// would swallow the error here, turning a slow-loris stall into
			// a bogus 400 instead of a counted timeout.)
			return "", err
		}
		*budget -= sb.Len()
		line := sb.String()
		line = line[:len(line)-1] // trailing '\n'
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return line, nil
	}
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	413: "Payload Too Large",
	429: "Too Many Requests",
	500: "Internal Server Error",
	503: "Service Unavailable",
}

// writeResponse writes resp, its header formatted in w's free buffer.
func writeResponse(w *bufio.Writer, resp Response, close bool) error {
	if _, err := w.Write(appendHeader(w.AvailableBuffer(), resp, close)); err != nil {
		return err
	}
	_, err := w.Write(resp.Body)
	return err
}

// appendResponse appends resp to dst: status line, headers and body.
func appendResponse(dst []byte, resp Response, close bool) []byte {
	return append(appendHeader(dst, resp, close), resp.Body...)
}

// appendHeader appends resp's status line and headers to dst.
func appendHeader(dst []byte, resp Response, close bool) []byte {
	status := resp.Status
	if status == 0 {
		status = 200
	}
	text, ok := statusText[status]
	if !ok {
		text = "Status"
	}
	ct := resp.ContentType
	if ct == "" {
		ct = "application/octet-stream"
	}
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, text...)
	dst = append(dst, "\r\nContent-Type: "...)
	dst = append(dst, ct...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(resp.Body)), 10)
	dst = append(dst, "\r\n"...)
	if resp.RetryAfter > 0 {
		secs := int64((resp.RetryAfter + time.Second - 1) / time.Second)
		dst = append(dst, "Retry-After: "...)
		dst = strconv.AppendInt(dst, secs, 10)
		dst = append(dst, "\r\n"...)
	}
	if close {
		dst = append(dst, "Connection: close\r\n"...)
	}
	return append(dst, "\r\n"...)
}
