package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestReadRequestBasic(t *testing.T) {
	raw := "POST /fn HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if req.Method != "POST" || req.Path != "/fn" || req.Proto != "HTTP/1.1" {
		t.Errorf("parsed %+v", req)
	}
	if string(req.Body) != "hello" {
		t.Errorf("body %q", req.Body)
	}
	if req.Close {
		t.Error("keep-alive request marked close")
	}
}

func TestReadRequestConnectionClose(t *testing.T) {
	raw := "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if !req.Close {
		t.Error("Connection: close not honored")
	}
}

func TestReadRequestHTTP10DefaultsClose(t *testing.T) {
	raw := "GET / HTTP/1.0\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if !req.Close {
		t.Error("HTTP/1.0 should default to close")
	}
}

func TestReadRequestMalformed(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / HTTP/1.1\r\nNoColonHeader\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		fmt.Sprintf("POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n", MaxBodyBytes+1),
	}
	for _, raw := range cases {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("ReadRequest(%q) err = %v, want ErrMalformedRequest", raw[:20], err)
		}
	}
}

// framingRejected lists requests whose framing is ambiguous: each must be
// refused, because read any other way its trailing bytes would be parsed
// as a second request.
func framingRejected() []struct{ name, raw string } {
	next := "GET /smuggled HTTP/1.1\r\n\r\n"
	manyHeaders := strings.Repeat("X-Pad: "+strings.Repeat("p", 100)+"\r\n", MaxHeaderBytes/100)
	return []struct{ name, raw string }{
		{"transfer-encoding chunked", "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(next), next)},
		{"transfer-encoding identity", "POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\nContent-Length: 1\r\n\r\nx"},
		{"content-length with sign", "POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc" + next},
		{"content-length list", "POST / HTTP/1.1\r\nContent-Length: 3, 3\r\n\r\nabc" + next},
		{"content-length hex", "POST / HTTP/1.1\r\nContent-Length: 0x3\r\n\r\nabc" + next},
		{"content-length empty", "POST / HTTP/1.1\r\nContent-Length:\r\n\r\n" + next},
		{"conflicting content-length", "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 0\r\n\r\nabc" + next},
		{"header block over limit", "GET / HTTP/1.1\r\n" + manyHeaders + "\r\n"},
		// net/http reads these as a header named "Content-Length " and as a
		// continuation of X, so it sees no body where a lenient parser sees
		// one.
		{"space before colon", "POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello" + next},
		{"folded header line", "POST / HTTP/1.1\r\nX: a\r\n Content-Length: 5\r\n\r\nhello" + next},
	}
}

// TestFramingRejected pins the framing rules: a body is delimited by one
// plain-digit Content-Length, header names are tokens, and the header block
// is bounded. Each framingRejected request is refused by ReadRequest and,
// over a connection, answered with a 400 that closes it before the handler
// runs.
func TestFramingRejected(t *testing.T) {
	for _, tc := range framingRejected() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadRequest(bufio.NewReader(strings.NewReader(tc.raw))); !errors.Is(err, ErrMalformedRequest) {
				t.Fatalf("ReadRequest err = %v, want ErrMalformedRequest", err)
			}
			var handled atomic.Int32
			addr, _ := startServer(t, func(*Request) Response { handled.Add(1); return Response{} })
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			go io.WriteString(conn, tc.raw)
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("read response: %v", err)
			}
			rest, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("read body: %v", err)
			}
			if resp.StatusCode != 400 || !resp.Close {
				t.Errorf("status %d close %v (body %q), want 400 and close", resp.StatusCode, resp.Close, rest)
			}
			if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("after the 400: read %d bytes, err %v; want the connection closed", n, err)
			}
			if n := handled.Load(); n != 0 {
				t.Errorf("handler ran %d times", n)
			}
		})
	}
}

// TestDuplicateContentLengthAgreeing: a repeated Content-Length with the same
// value frames the body unambiguously, so it is accepted.
func TestDuplicateContentLengthAgreeing(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil || string(req.Body) != "abc" {
		t.Fatalf("ReadRequest = %+v, %v", req, err)
	}
}

// TestRepeatedHeaders: the first value of a repeated header is kept, and a
// close token on any Connection line closes the connection.
func TestRepeatedHeaders(t *testing.T) {
	raw := "GET / HTTP/1.1\r\nX-A: 1\r\nConnection: keep-alive\r\nX-A: 2\r\nConnection: close\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if req.Header["x-a"] != "1" || !req.Close {
		t.Errorf("x-a %q, close %v; want \"1\", true", req.Header["x-a"], req.Close)
	}
}

// TestRepeatedHeadersParseInLinearSpace: a header block that fills
// MaxHeaderBytes with one short header repeated allocates a small multiple
// of the block, not the square of its line count.
func TestRepeatedHeadersParseInLinearSpace(t *testing.T) {
	const head, line, tail = "GET / HTTP/1.1\n", "a:\n", "\n"
	raw := head + strings.Repeat(line, (MaxHeaderBytes-len(head)-len(tail))/len(line)) + tail
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if _, ok := req.Header["a"]; !ok {
		t.Fatal("header a missing")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*MaxHeaderBytes {
		t.Errorf("parsing %d header bytes allocated %d bytes, want at most %d", len(raw), got, 8*MaxHeaderBytes)
	}
}

func TestReadRequestTruncatedBody(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); !errors.Is(err, ErrMalformedRequest) {
		t.Errorf("truncated body err = %v", err)
	}
}

// TestDeclaredBodyCostsWhatArrives: a request that declares a body near
// MaxBodyBytes and sends three bytes allocates a small buffer, not the
// declared length, and fails as truncated; a body of the full
// MaxBodyBytes, sent, still parses byte for byte.
func TestDeclaredBodyCostsWhatArrives(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nContent-Length: 8000000\r\n\r\nabc"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMalformedRequest) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncated body", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
		t.Errorf("a 3-byte body declaring 8 000 000 bytes allocated %d bytes, want at most %d", got, 128<<10)
	}

	body := make([]byte, MaxBodyBytes)
	for i := range body {
		body[i] = byte(i * 7)
	}
	full := fmt.Sprintf("POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(full)))
	if err != nil {
		t.Fatalf("full %d-byte body: %v", len(body), err)
	}
	if !bytes.Equal(req.Body, body) {
		t.Fatalf("full body read back %d bytes, differs from the %d sent", len(req.Body), len(body))
	}
}

// startServer runs a Server on a loopback listener.
func startServer(t *testing.T, h Handler) (addr string, s *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s = &Server{Handler: h}
	go func() {
		if err := s.Serve(ln); err != nil {
			t.Logf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String(), s
}

func TestServerWithStdlibClient(t *testing.T) {
	addr, s := startServer(t, func(req *Request) Response {
		return Response{Body: append([]byte("echo:"), req.Body...)}
	})
	resp, err := http.Post("http://"+addr+"/x", "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "echo:payload" {
		t.Errorf("status %d body %q", resp.StatusCode, body)
	}
	if s.Served.Load() != 1 {
		t.Errorf("Served = %d", s.Served.Load())
	}
}

func TestServerKeepAlivePipelinedSequential(t *testing.T) {
	addr, s := startServer(t, func(req *Request) Response {
		return Response{Body: []byte(req.Path)}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/req%d", i)
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: a\r\n\r\n", path)
		status, body := readResponse(t, br)
		if status != 200 || string(body) != path {
			t.Fatalf("request %d: status %d body %q", i, status, body)
		}
	}
	if got := s.Accepted.Load(); got != 1 {
		t.Errorf("Accepted = %d, want 1 (keep-alive)", got)
	}
	if got := s.Served.Load(); got != 5 {
		t.Errorf("Served = %d, want 5", got)
	}
}

// TestDeferredReplyKeepsOrder: a keep-alive request's reply, deferred and
// sent from another goroutine, arrives before the reply of the request
// pipelined behind it. Defer refuses a request that closes its connection
// (Connection: close, HTTP/1.0) and one not read by a Server, which then
// reply by returning.
func TestDeferredReplyKeepsOrder(t *testing.T) {
	req, err := ReadRequest(bufio.NewReader(strings.NewReader("GET /later HTTP/1.1\r\n\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	if req.Defer() != nil {
		t.Error("Defer accepted a request read outside a Server")
	}
	addr, s := startServer(t, func(req *Request) Response {
		if req.Path != "/later" {
			return Response{Body: []byte("now")}
		}
		rep := req.Defer()
		if rep == nil {
			return Response{Body: []byte("refused")}
		}
		go rep.Send(Response{Body: []byte("later")})
		return Response{Body: []byte("ignored")}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /later HTTP/1.1\r\n\r\nGET /now HTTP/1.1\r\n\r\nGET /later HTTP/1.1\r\nConnection: close\r\n\r\n")
	br := bufio.NewReader(conn)
	for _, want := range []string{"later", "now", "refused"} {
		if status, body := readResponse(t, br); status != 200 || string(body) != want {
			t.Fatalf("reply %d %q, want %q", status, body, want)
		}
	}
	if n, err := br.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Errorf("the connection stayed open after Connection: close (%d, %v)", n, err)
	}

	old, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer old.Close()
	io.WriteString(old, "GET /later HTTP/1.0\r\n\r\n")
	if raw, _ := io.ReadAll(old); !strings.HasPrefix(string(raw), "HTTP/1.1 200") || !strings.HasSuffix(string(raw), "refused") {
		t.Errorf("HTTP/1.0 reply %q, want refused", raw)
	}
	if got := s.Served.Load(); got != 4 {
		t.Errorf("Served = %d, want 4", got)
	}
}

func TestServerStatusCodes(t *testing.T) {
	addr, _ := startServer(t, func(req *Request) Response {
		if req.Path == "/missing" {
			return Response{Status: 404, Body: []byte("nope")}
		}
		return Response{Status: 500}
	})
	resp, err := http.Get("http://" + addr + "/missing")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestServerMalformedGets400(t *testing.T) {
	addr, _ := startServer(t, func(req *Request) Response { return Response{} })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "NONSENSE\r\n\r\n")
	br := bufio.NewReader(conn)
	status, _ := readResponse(t, br)
	if status != 400 {
		t.Errorf("status = %d, want 400", status)
	}
}

func readResponse(t *testing.T, br *bufio.Reader) (int, []byte) {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read status line: %v", err)
	}
	var status int
	if _, err := fmt.Sscanf(line, "HTTP/1.1 %d", &status); err != nil {
		t.Fatalf("bad status line %q", line)
	}
	contentLen := -1
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read header: %v", err)
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		if strings.HasPrefix(strings.ToLower(h), "content-length:") {
			fmt.Sscanf(h[15:], "%d", &contentLen)
		}
	}
	if contentLen < 0 {
		t.Fatal("no content-length")
	}
	body := make([]byte, contentLen)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return status, body
}

func TestLargeBodyRoundTrip(t *testing.T) {
	addr, _ := startServer(t, func(req *Request) Response {
		return Response{Body: req.Body}
	})
	payload := bytes.Repeat([]byte("x"), 1<<20)
	resp, err := http.Post("http://"+addr+"/big", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(body, payload) {
		t.Errorf("1 MiB body mangled: got %d bytes", len(body))
	}
}
