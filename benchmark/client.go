package main

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"time"
)

// spanHeader carries the client span's index to the traced server, so the
// server-side span can name its parent.
const spanHeader = "x-bench-span"

// request is one seeded payload with the reply the app's native oracle
// gives for it. wire is the complete HTTP request for the module the app is
// registered under, built once in set-up.
type request struct {
	app  string
	body []byte
	want []byte
	wire []byte
}

// appendRequest appends an HTTP/1.1 POST of body to /module. A span index
// >= 0 adds the span header.
func appendRequest(dst []byte, module string, spanIdx int32, body []byte) []byte {
	dst = append(dst, "POST /"...)
	dst = append(dst, module...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	if spanIdx >= 0 {
		dst = append(dst, "\r\n"+spanHeader+": "...)
		dst = strconv.AppendInt(dst, int64(spanIdx), 10)
	}
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

var (
	headerEnd     = []byte("\r\n\r\n")
	contentLength = []byte("Content-Length: ")
)

// parseResponseHead reads the status and body length from a buffer holding
// at least the whole header block of one response, in the form
// httpd.writeResponse emits. bodyAt is the offset of the first body byte;
// ok is false until the header block is complete.
func parseResponseHead(buf []byte) (status, bodyAt, bodyLen int, ok bool) {
	end := bytes.Index(buf, headerEnd)
	if end < 0 || len(buf) < 12 {
		return 0, 0, 0, false
	}
	if status, ok = atoi(buf[9:12]); !ok {
		return 0, 0, 0, false
	}
	head := buf[:end]
	if i := bytes.Index(head, contentLength); i >= 0 {
		v := head[i+len(contentLength):]
		if j := bytes.IndexByte(v, '\r'); j >= 0 {
			v = v[:j]
		}
		if bodyLen, ok = atoi(v); !ok {
			return 0, 0, 0, false
		}
	}
	return status, end + len(headerEnd), bodyLen, true
}

// atoi parses a short run of ASCII digits without allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// client is one keep-alive connection with one request outstanding at a
// time. It writes prebuilt bytes with one Write and parses only what it
// must of the reply, so that the client's own cost stays small beside a
// 30 µs ping (net/http would double it).
type client struct {
	addr     string
	conn     net.Conn
	deadline time.Time
	rbuf     []byte
	wbuf     []byte
}

func newClient(addr string) *client {
	return &client{addr: addr, rbuf: make([]byte, 64<<10), wbuf: make([]byte, 0, 16<<10)}
}

// setDeadline bounds every later round trip on the connection: one absolute
// deadline per phase, so a hung reply fails the op without a timer reset on
// each request.
func (c *client) setDeadline(t time.Time) {
	c.deadline = t
	if c.conn != nil {
		c.conn.SetDeadline(t)
	}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// roundTrip sends wire and reports whether the reply is a 200 whose body
// equals want. Any transport error closes the connection; the next call
// dials a new one.
func (c *client) roundTrip(wire, want []byte) error {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return err
		}
		conn.SetDeadline(c.deadline)
		c.conn = conn
	}
	if _, err := c.conn.Write(wire); err != nil {
		c.close()
		return err
	}
	n := 0
	for {
		m, err := c.conn.Read(c.rbuf[n:])
		if err != nil {
			c.close()
			return err
		}
		n += m
		status, bodyAt, bodyLen, ok := parseResponseHead(c.rbuf[:n])
		if ok && n >= bodyAt+bodyLen {
			if status != 200 {
				return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(c.rbuf[bodyAt:bodyAt+bodyLen]))
			}
			if !bytes.Equal(c.rbuf[bodyAt:bodyAt+bodyLen], want) {
				return errMismatch
			}
			return nil
		}
		if ok && bodyAt+bodyLen > len(c.rbuf) {
			c.rbuf = append(c.rbuf[:n], make([]byte, bodyAt+bodyLen-n)...)
		} else if n == len(c.rbuf) {
			c.rbuf = append(c.rbuf, make([]byte, len(c.rbuf))...)
		}
	}
}

var errMismatch = fmt.Errorf("reply differs from the native oracle")
