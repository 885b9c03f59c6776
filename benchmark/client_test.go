package main

import (
	"bufio"
	"bytes"
	"strconv"
	"testing"

	"sledge/internal/httpd"
)

func TestAppendRequestIsWhatHTTPDParses(t *testing.T) {
	body := []byte("payload\r\n\r\nwith a blank line")
	wire := appendRequest(nil, "gps-ekf-17", 42, body)
	req, err := httpd.ReadRequest(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || req.Path != "/gps-ekf-17" || !bytes.Equal(req.Body, body) || req.Close {
		t.Errorf("parsed %+v", req)
	}
	if got := req.Header[spanHeader]; got != "42" {
		t.Errorf("span header %q", got)
	}
	plain, _ := httpd.ReadRequest(bufio.NewReader(bytes.NewReader(appendRequest(nil, "ping", -1, nil))))
	if _, has := plain.Header[spanHeader]; has || len(plain.Body) != 0 {
		t.Errorf("untraced request %+v", plain)
	}
}

func TestParseResponseHead(t *testing.T) {
	full := "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 5\r\n\r\nhello"
	for cut := 0; cut < len(full)-5; cut++ {
		if _, _, _, ok := parseResponseHead([]byte(full[:cut])); ok {
			t.Fatalf("header complete after %d of %d bytes", cut, len(full)-5)
		}
	}
	status, at, n, ok := parseResponseHead([]byte(full))
	if !ok || status != 200 || n != 5 || full[at:at+n] != "hello" {
		t.Errorf("status %d bodyAt %d len %d ok %v", status, at, n, ok)
	}
	shed := "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: 0\r\nRetry-After: 1\r\n\r\n"
	if status, _, n, ok := parseResponseHead([]byte(shed)); !ok || status != 503 || n != 0 {
		t.Errorf("shed reply: status %d len %d ok %v", status, n, ok)
	}
	if _, _, _, ok := parseResponseHead([]byte("HTTP/1.1 2x0 OK\r\nContent-Length: 1\r\n\r\n")); ok {
		t.Error("accepted a status that is not a number")
	}
}

// The client must tell a right reply from a wrong one, a non-200 and a body
// that arrives in pieces larger than its buffer.
func TestClientRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 200<<10)
	addr, stop, err := serveOn(&httpd.Server{Handler: func(r *httpd.Request) httpd.Response {
		switch r.Path {
		case "/big":
			return httpd.Response{Body: big}
		case "/shed":
			return httpd.Response{Status: 503, Body: []byte("shed")}
		}
		return httpd.Response{Body: []byte(strconv.Itoa(len(r.Body)))}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c := newClient(addr)
	defer c.close()
	if err := c.roundTrip(appendRequest(nil, "len", -1, []byte("abc")), []byte("3")); err != nil {
		t.Errorf("right reply: %v", err)
	}
	if err := c.roundTrip(appendRequest(nil, "len", -1, []byte("abc")), []byte("4")); err != errMismatch {
		t.Errorf("wrong reply: %v", err)
	}
	if err := c.roundTrip(appendRequest(nil, "shed", -1, nil), []byte("shed")); err == nil {
		t.Error("a 503 passed")
	}
	if err := c.roundTrip(appendRequest(nil, "big", -1, nil), big); err != nil {
		t.Errorf("large reply: %v", err)
	}
	if err := c.roundTrip(appendRequest(nil, "len", -1, nil), []byte("0")); err != nil {
		t.Errorf("after a large reply: %v", err)
	}
}
