package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/httpd"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// These tests pin the deferred reply (deferred.go): a request a worker
// finishes replies from that worker, while its connection's goroutine is
// already reading the next request.

// wrapListener hands every accepted connection through wrap.
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// serveCounts counts what serveCounting's handler saw.
type serveCounts struct {
	// handled counts requests whose handler returned; deferred those it
	// returned the zero Response for, which handle does exactly when it
	// deferred the reply.
	handled, deferred atomic.Int64
}

// serveCounting serves rt's request path on loopback, through wrap when it
// is non-nil, counting into sc.
func serveCounting(t *testing.T, rt *Runtime, sc *serveCounts, wrap func(net.Conn) net.Conn) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpd.Server{Handler: func(req *httpd.Request) httpd.Response {
		resp := rt.handle(req)
		if resp.Status == 0 {
			sc.deferred.Add(1)
		}
		sc.handled.Add(1)
		return resp
	}}
	var l net.Listener = ln
	if wrap != nil {
		l = wrapListener{ln, wrap}
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// rawRequest is a keep-alive POST of body to /name.
func rawRequest(name string, body []byte) string {
	return fmt.Sprintf("POST /%s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", name, len(body), body)
}

// rawReply is the bytes the server sends for a 200 with body.
func rawReply(body []byte) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

// readReply reads one response off br.
func readReply(t testing.TB, br *bufio.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read reply body: %v", err)
	}
	return resp.StatusCode, body
}

// gatedKV is latent storage whose n-th read (from 1) first calls wait(n).
type gatedKV struct {
	abi.KVStore
	wait  func(n int64)
	reads atomic.Int64
}

func (k *gatedKV) Latency() time.Duration { return time.Millisecond }

func (k *gatedKV) Get(key string) ([]byte, bool) {
	k.wait(k.reads.Add(1))
	return k.KVStore.Get(key)
}

// onClose waits for ch to close. The bound only ends the wait on a server
// that never closes it, and a test then fails on what the wait was for.
func onClose(ch <-chan struct{}) {
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
	}
}

// untilHandled waits until sc has seen n handlers return, within the same
// bound: a read that waits for it finishes its request only after the
// request's handler returned, so the handler found it still running.
func untilHandled(sc *serveCounts, n int64) {
	for deadline := time.Now().Add(2 * time.Second); sc.handled.Load() < n && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
}

// orderConn records whether the server began reading the next request
// before it wrote its first reply. reqLen is the first request's size:
// once Read has returned that many bytes, the parser needs no more of them,
// so a Read that begins then is the next request's.
type orderConn struct {
	net.Conn
	reqLen   int64
	got      atomic.Int64
	nextRead chan struct{}
	once     sync.Once
	// verdict is 1 when the first Write came after the next Read began,
	// 2 when before.
	verdict atomic.Int32
}

func (c *orderConn) Read(p []byte) (int, error) {
	if c.got.Load() >= c.reqLen {
		c.once.Do(func() { close(c.nextRead) })
	}
	n, err := c.Conn.Read(p)
	c.got.Add(int64(n))
	return n, err
}

func (c *orderConn) Write(p []byte) (int, error) {
	v := int32(2)
	select {
	case <-c.nextRead:
		v = 1
	default:
	}
	c.verdict.CompareAndSwap(0, v)
	return c.Conn.Write(p)
}

// fetchRuntime is a one-worker runtime serving apps.FetchApp as "fetch"
// over kv, with "obj" stored.
func fetchRuntime(t *testing.T, kv func(abi.KVStore) abi.KVStore) *Runtime {
	t.Helper()
	store := abi.NewMapKV()
	store.Set("obj", []byte("stored-value"))
	rt := New(Config{Workers: 1, KV: kv(store)})
	t.Cleanup(func() { rt.Close() })
	cm, err := apps.FetchApp.Compile(rt.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterCompiled("fetch", cm, "main", ""); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestDeferredReplyReadsNextRequestFirst: the connection's next Read
// begins before a pushed request's reply is written. The fetch's storage
// read waits for that Read, so the order holds by construction; a server
// that writes the reply on the connection's goroutine writes first.
func TestDeferredReplyReadsNextRequestFirst(t *testing.T) {
	req := rawRequest("fetch", []byte("obj"))
	nextRead := make(chan struct{})
	rt := fetchRuntime(t, func(s abi.KVStore) abi.KVStore {
		return &gatedKV{KVStore: s, wait: func(int64) { onClose(nextRead) }}
	})
	var oc *orderConn
	var sc serveCounts
	addr := serveCounting(t, rt, &sc, func(c net.Conn) net.Conn {
		oc = &orderConn{Conn: c, reqLen: int64(len(req)), nextRead: nextRead}
		return oc
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, req)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if status, body := readReply(t, bufio.NewReader(conn)); status != 200 || string(body) != "stored-value" {
		t.Fatalf("fetch = %d %q", status, body)
	}
	if v := oc.verdict.Load(); v != 1 {
		t.Errorf("the reply was written before the next request's read began (verdict %d)", v)
	}
	if n := sc.deferred.Load(); n != 1 {
		t.Errorf("%d replies deferred, want 1", n)
	}
}

// TestDeferredThenCallerRepliesInOrder: a pushed request and a
// caller-completed one, pipelined on one connection, reply in order, byte
// for byte.
func TestDeferredThenCallerRepliesInOrder(t *testing.T) {
	var sc serveCounts
	rt := fetchRuntime(t, func(s abi.KVStore) abi.KVStore {
		return &gatedKV{KVStore: s, wait: func(int64) { untilHandled(&sc, 1) }}
	})
	registerApp(t, rt, "ping")
	pong, err := rt.Invoke("ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveCounting(t, rt, &sc, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, rawRequest("fetch", []byte("obj"))+rawRequest("ping", nil))
	want := rawReply([]byte("stored-value")) + rawReply(pong)
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != want {
		t.Fatalf("replies = %q, %v; want %q", got, err, want)
	}
	if n := sc.deferred.Load(); n != 1 {
		t.Errorf("%d replies deferred, want 1 (the fetch)", n)
	}
	if st := rt.Stats(); st.Blocked != 1 {
		t.Errorf("Stats = %+v, want the fetch blocked once", st)
	}
}

// spinEchoSrc spins req_len × 1000 iterations and echoes the request.
const spinEchoSrc = `
static u8 buf[256];

export i32 main() {
	i32 n = sys_read(buf, 256);
	i32 acc = 0;
	for (i32 i = 0; i < n * 1000; i = i + 1) {
		acc = acc + i;
	}
	sys_write(buf, n);
	return acc;
}
`

// TestDeferredTimeoutRacesCompletion sends requests whose runs straddle a
// 1 ms RequestTimeout, so the request timer and the finisher hook race,
// from four connections at once with seeded sizes and gaps. Every request
// gets exactly one reply, its own echo or a timeout; the timeouts the
// clients read are the runtime's abandoned count; and every sandbox
// releases its instance exactly once: the pool ends holding the instances
// there were, no fewer and no more. A shell released by a party that no
// longer owns it reaches two requests at once, and one of them echoes the
// other's bytes.
func TestDeferredTimeoutRacesCompletion(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rt := New(Config{Workers: 2, RequestTimeout: time.Millisecond})
			t.Cleanup(func() { rt.Close() })
			cm := registerSrc(t, rt, "spinecho", spinEchoSrc)
			const warm = 16
			warmPool(cm, warm)
			instances := func() uint64 { st := rt.slabs.Stats(); return st.Hits + st.Misses }
			base := instances()
			var sc serveCounts
			addr := serveCounting(t, rt, &sc, nil)

			const clients, requests = 4, 60
			var timeouts atomic.Uint64
			var wg sync.WaitGroup
			for k := 0; k < clients; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					if err := raceClient(addr, rand.New(rand.NewSource(seed*clients+int64(k))), byte('A'+k), requests, &timeouts); err != nil {
						t.Errorf("client %d: %v", k, err)
					}
				}(k)
			}
			wg.Wait()
			t.Logf("%d of %d timed out, %d deferred", timeouts.Load(), clients*requests, sc.deferred.Load())
			if got := rt.Abandoned(); got != timeouts.Load() {
				t.Errorf("abandoned = %d, the clients read %d timeouts", got, timeouts.Load())
			}
			// A disowned sandbox is released by its worker when it next
			// surfaces, after the pool counts it out: wait for the pool.
			var want, pooled int
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				want, pooled = warm+int(instances()-base), cm.PooledInstances()
				if pooled == want || time.Now().After(deadline) {
					break
				}
			}
			if pooled != want {
				t.Errorf("%d instances pooled, %d exist: a sandbox was released %s", pooled, want,
					map[bool]string{true: "twice", false: "never"}[pooled > want])
			}
		})
	}
}

// raceClient sends n spinecho requests on one connection, each body tagged
// with tag and its index, and checks each reply is its own echo or a
// timeout, and that nothing follows the last. It closes the connection,
// whose goroutine releases the last sandbox then.
func raceClient(addr string, rng *rand.Rand, tag byte, n int, timeouts *atomic.Uint64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		// Run times spread over two decades around the timeout, with the
		// race detector's slowdown or without it.
		body := bytes.Repeat([]byte{byte('a' + i%26)}, 1+rng.Intn(1<<rng.Intn(8)))
		body[0] = tag
		io.WriteString(conn, rawRequest("spinecho", body))
		if gap := rng.Intn(3); gap > 0 {
			time.Sleep(time.Duration(gap) * 300 * time.Microsecond)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		got, err := io.ReadAll(resp.Body)
		switch {
		case err != nil:
			return fmt.Errorf("request %d: %w", i, err)
		case resp.StatusCode == 200 && bytes.Equal(got, body):
		case resp.StatusCode == 500 && strings.Contains(string(got), "timed out"):
			timeouts.Add(1)
		default:
			return fmt.Errorf("request %d (%d bytes): reply %d %q", i, len(body), resp.StatusCode, got)
		}
	}
	// Nothing more arrives: a second reply to any request would.
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if k, err := br.Read(make([]byte, 1)); k != 0 || err == nil {
		return fmt.Errorf("stray reply bytes after the last reply (%d, %v)", k, err)
	}
	return nil
}

// bigSrc spins, then replies with 8 MiB: more than the loopback socket's
// send buffer (4 MiB at most here) and the never-reading client's receive
// window together.
const bigSrc = `
static u8 buf[65536];

export i32 main() {
	i32 acc = 0;
	for (i32 i = 0; i != 20000; i = i + 1) {
		acc = acc + i;
	}
	for (i32 j = 0; j != 128; j = j + 1) {
		sys_write(buf, 65536);
	}
	return acc;
}
`

// TestSlowReaderDoesNotStallWorker: a client that does not read an 8 MiB
// deferred reply leaves the rest of it to a goroutine of the connection's
// own, and the one worker goes on: another tenant's pushed requests all
// complete before the slow client reads a byte. A worker that waited for
// the socket would leave them to time out.
func TestSlowReaderDoesNotStallWorker(t *testing.T) {
	rt := New(Config{Workers: 1, RequestTimeout: 5 * time.Second})
	t.Cleanup(func() { rt.Close() })
	registerSrc(t, rt, "big", bigSrc)
	registerSrc(t, rt, "loop", loopSrc)
	var sc serveCounts
	addr := serveCounting(t, rt, &sc, nil)

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slow.(*net.TCPConn).SetReadBuffer(16 << 10)
	io.WriteString(slow, rawRequest("big", nil))
	big, _ := rt.Lookup("big")
	for deadline := time.Now().Add(10 * time.Second); big.Stats().Invocations == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the big request never completed")
		}
	}

	other, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	br := bufio.NewReader(other)
	const shorts = 5
	for i := 0; i < shorts; i++ {
		io.WriteString(other, rawRequest("loop", []byte("four")))
		if status, body := readReply(t, br); status != 200 || string(body) != "o" {
			t.Fatalf("short %d beside the slow reader = %d %q", i, status, body)
		}
	}
	if n := sc.deferred.Load(); n == 0 {
		t.Error("the big reply was not deferred")
	}

	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	status, body := readReply(t, bufio.NewReader(slow))
	if status != 200 || len(body) != 128*65536 || bytes.IndexFunc(body, func(r rune) bool { return r != 0 }) >= 0 {
		t.Errorf("slow reader's reply = %d, %d bytes", status, len(body))
	}
}

// TestDrainWithDeferredReplyInFlight: a drain that starts while a deferred
// reply is owed waits for it, the reply reaches the client (closing the
// connection), and the drain reports clean.
func TestDrainWithDeferredReplyInFlight(t *testing.T) {
	req := rawRequest("fetch", []byte("obj"))
	nextRead := make(chan struct{})
	release := make(chan struct{})
	gate := make(chan struct{})
	go func() {
		// The storage read waits until the reply is deferred (the next
		// read began) and the drain is under way.
		<-nextRead
		<-release
		close(gate)
	}()
	rt := fetchRuntime(t, func(s abi.KVStore) abi.KVStore {
		return &gatedKV{KVStore: s, wait: func(int64) { onClose(gate) }}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(wrapListener{ln, func(c net.Conn) net.Conn {
		return &orderConn{Conn: c, reqLen: int64(len(req)), nextRead: nextRead}
	}})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, req)
	<-nextRead

	drained := make(chan bool)
	go func() { drained <- rt.Drain(10 * time.Second) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break // the drain closed the listener
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the drain never closed the listener")
		}
	}
	close(release)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "stored-value" || !resp.Close {
		t.Errorf("reply = %d %q close=%v, want 200 stored-value closing", resp.StatusCode, body, resp.Close)
	}
	if !<-drained {
		t.Error("drain with a deferred reply in flight did not report clean")
	}
}

// startForever registers a never-ending module and invokes it once, beside
// the test: it holds a worker until the runtime closes, which closes the
// returned channel's goroutine.
func startForever(t *testing.T, rt *Runtime) <-chan struct{} {
	t.Helper()
	if _, err := rt.RegisterWCC("forever", `
export i32 main() {
	i32 x = 1;
	while (x > 0) {
		x = x + 1;
		if (x == 0) { x = 1; }
	}
	return x;
}
`, wcc.Options{}); err != nil {
		t.Fatal(err)
	}
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		rt.Invoke("forever", nil) // ends when the runtime closes
	}()
	for rt.Pool().Busy() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	return hogDone
}

// TestIdleConnectionReleasesDeferredSandbox: a pushed request's sandbox is
// back in its module's pool once the reply has been read, while the
// keep-alive connection sits idle — with no next request and no close to
// release it.
func TestIdleConnectionReleasesDeferredSandbox(t *testing.T) {
	rt := fetchRuntime(t, func(s abi.KVStore) abi.KVStore {
		return &abi.LatentKV{KVStore: s, Delay: time.Millisecond}
	})
	m, _ := rt.Lookup("fetch")
	cm := m.Compiled()
	instances := func() uint64 { st := rt.slabs.Stats(); return st.Hits + st.Misses }
	base, pooled0 := instances(), cm.PooledInstances()
	var sc serveCounts
	addr := serveCounting(t, rt, &sc, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, rawRequest("fetch", []byte("obj")))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if status, body := readReply(t, bufio.NewReader(conn)); status != 200 || string(body) != "stored-value" {
		t.Fatalf("fetch = %d %q", status, body)
	}
	if n := sc.deferred.Load(); n != 1 {
		t.Fatalf("%d replies deferred, want 1", n)
	}
	// The hook releases just after the reply leaves: poll briefly, far
	// below the connection's 30 s read timeout.
	var want, pooled int
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		want, pooled = pooled0+int(instances()-base), cm.PooledInstances()
		if pooled == want || time.Now().After(deadline) {
			break
		}
	}
	if pooled != want {
		t.Errorf("idle connection: %d instances pooled, %d exist", pooled, want)
	}
}

// TestBlockingModuleBesideHogRepliesFromHook: a fetch that blocks on latent
// storage, pushed beside a never-ending hog on the one worker, resumes on
// that worker and replies through the finisher hook.
func TestBlockingModuleBesideHogRepliesFromHook(t *testing.T) {
	var sc serveCounts
	rt := fetchRuntime(t, func(s abi.KVStore) abi.KVStore {
		return &gatedKV{KVStore: s, wait: func(n int64) { untilHandled(&sc, n) }}
	})
	hogDone := startForever(t, rt)
	addr := serveCounting(t, rt, &sc, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		io.WriteString(conn, rawRequest("fetch", []byte("obj")))
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if status, body := readReply(t, br); status != 200 || string(body) != "stored-value" {
			t.Fatalf("fetch %d beside the hog = %d %q", i, status, body)
		}
	}
	if n := sc.deferred.Load(); n != 3 {
		t.Errorf("%d replies deferred, want 3", n)
	}
	if st := rt.Stats(); st.Blocked != 3 {
		t.Errorf("Stats = %+v, want three blocked fetches", st)
	}
	rt.Close()
	<-hogDone
}
