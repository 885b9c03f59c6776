package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// deadlineHeader is core.DeadlineHeader, the one header besides the framing
// ones that the runtime reads (core imports this package, not the reverse).
const deadlineHeader = "x-sledge-deadline-ms"

// stdOnlyRefusal reports why a net/http refusal of a request ReadRequest
// accepts is harmless here, or "" when it is a finding.
func stdOnlyRefusal(err error) string {
	var uerr *url.Error
	switch {
	case errors.As(err, &uerr):
		return "ReadRequest takes the request target as an opaque route name and never decodes it"
	case strings.Contains(err.Error(), "too many Host headers"):
		return "ReadRequest routes on the path alone and never reads Host"
	}
	return ""
}

// FuzzReadRequest differentially fuzzes ReadRequest against the standard
// library's http.ReadRequest over a stream of pipelined requests. For each
// request, either ReadRequest refuses it (which ends the stream), or both
// accept it and agree on the method, the request target, Content-Length,
// whether the connection closes after it, the deadline header, the body
// bytes and the offset where the next request starts.
func FuzzReadRequest(f *testing.F) {
	for _, tc := range framingRejected() {
		f.Add([]byte(tc.raw))
	}
	// Streams ReadRequest accepts: net/http takes the first three and
	// refuses each of the last two for a reason stdOnlyRefusal lists.
	for _, seed := range []string{
		"POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabcGET /ping HTTP/1.1\r\n\r\n",
		"POST /ping HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n" + deadlineHeader + ": 50\r\n\r\nabc",
		"GET /a?b=%zz HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET / HTTP/1.1\nConnection: x, close\n\n",
		"GET /a%zz HTTP/1.1\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ourSrc, stdSrc := bytes.NewReader(data), bytes.NewReader(data)
		ours, std := bufio.NewReader(ourSrc), bufio.NewReader(stdSrc)
		for i := 0; ; i++ {
			req, err := ReadRequest(ours)
			if err != nil {
				return
			}
			sreq, err := http.ReadRequest(std)
			var body []byte
			if err == nil {
				body, err = io.ReadAll(sreq.Body)
			}
			if err != nil {
				if stdOnlyRefusal(err) != "" {
					return
				}
				t.Fatalf("request %d: ReadRequest accepted %+v; net/http refused it: %v", i, req, err)
			}
			ourNext := len(data) - ourSrc.Len() - ours.Buffered()
			stdNext := len(data) - stdSrc.Len() - std.Buffered()
			ourCL := int64(len(req.Body))
			stdDeadline := sreq.Header.Get(deadlineHeader)
			switch {
			case req.Method != sreq.Method:
				t.Fatalf("request %d: method %q, net/http %q", i, req.Method, sreq.Method)
			case req.Path != sreq.RequestURI:
				t.Fatalf("request %d: path %q, net/http %q", i, req.Path, sreq.RequestURI)
			case ourCL != sreq.ContentLength:
				t.Fatalf("request %d: content-length %d, net/http %d", i, ourCL, sreq.ContentLength)
			case req.Close != sreq.Close:
				t.Fatalf("request %d: close %v, net/http %v", i, req.Close, sreq.Close)
			case req.Header[deadlineHeader] != stdDeadline:
				t.Fatalf("request %d: deadline %q, net/http %q", i, req.Header[deadlineHeader], stdDeadline)
			case !bytes.Equal(req.Body, body):
				t.Fatalf("request %d: body %q, net/http %q", i, req.Body, body)
			case ourNext != stdNext:
				t.Fatalf("request %d: next request at byte %d, net/http at %d", i, ourNext, stdNext)
			}
		}
	})
}
