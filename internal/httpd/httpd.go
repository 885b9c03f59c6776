// Package httpd is a minimal HTTP/1.1 server substrate for the Sledge
// listener core: request-line and header parsing, Content-Length bodies,
// keep-alive connections, and plain responses. The paper's runtime speaks
// raw HTTP over TCP sockets from a dedicated listener core; this package is
// that layer, kept deliberately small and allocation-light.
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
// served sequentially in order.
type Handler func(*Request) Response

// ErrMalformedRequest reports an unparseable request.
var ErrMalformedRequest = errors.New("httpd: malformed request")

// MaxBodyBytes bounds request bodies (default 8 MiB).
const MaxBodyBytes = 8 << 20

// MaxHeaderBytes bounds the request line and header block together.
const MaxHeaderBytes = 64 << 10

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
	br := bufio.NewReaderSize(conn, 16<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)
	for {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		req, err := ReadRequest(br)
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
		resp := s.Handler(req)
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

func writeResponse(w *bufio.Writer, resp Response, close bool) error {
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
	if _, err := fmt.Fprintf(w, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n",
		status, text, ct, len(resp.Body)); err != nil {
		return err
	}
	if resp.RetryAfter > 0 {
		secs := int64((resp.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		if _, err := fmt.Fprintf(w, "Retry-After: %d\r\n", secs); err != nil {
			return err
		}
	}
	if close {
		if _, err := io.WriteString(w, "Connection: close\r\n"); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\r\n"); err != nil {
		return err
	}
	_, err := w.Write(resp.Body)
	return err
}
