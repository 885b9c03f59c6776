package core

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/wcc"
)

// stampKV is storage whose writes record when they happened.
type stampKV struct {
	abi.KVStore
	mu    sync.Mutex
	stamp map[string]time.Time
}

func (k *stampKV) Set(key string, _ []byte) {
	now := time.Now()
	k.mu.Lock()
	k.stamp[key] = now
	k.mu.Unlock()
}

func (k *stampKV) at(key string) time.Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stamp[key]
}

// stampSrc spins past the caller's slice, so a worker runs it, then writes
// its key to storage as its last act before replying with one byte: the
// write's timestamp is the sandbox's DoneAt to within a few instructions.
const stampSrc = `
static u8 key[16];

export i32 main() {
	i32 n = sys_read(key, 16);
	i32 acc = 0;
	for (i32 i = 0; i != 4000; i = i + 1) {
		acc = acc + i;
	}
	sys_kv_set(key, n, key, n);
	sys_write(key, 1);
	return acc;
}
`

// BenchmarkReplyAfterDone is the reply hand-off probe: how long after a
// pushed request finishes its reply is readable at the client. One worker
// runs a never-ending hog; 300 short requests, 2 ms apart, go over one
// loopback keep-alive connection, each pushed to that worker beside the
// hog. It reports the p50 and p99 of the time from the sandbox's DoneAt
// (its last storage write) to the reply read by the client, and how many
// took over 1 ms. A probe, not a gate: run it with
//
//	go test -run '^$' -bench ReplyAfterDone -benchtime 1x ./internal/core/
func BenchmarkReplyAfterDone(b *testing.B) {
	kv := &stampKV{KVStore: abi.NewMapKV(), stamp: make(map[string]time.Time)}
	rt := New(Config{Workers: 1, KV: kv})
	defer rt.Close()
	for name, src := range map[string]string{"stamp": stampSrc, "forever": `
export i32 main() {
	i32 x = 1;
	while (x > 0) {
		x = x + 1;
		if (x == 0) { x = 1; }
	}
	return x;
}
`} {
		if _, err := rt.RegisterWCC(name, src, wcc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go rt.Serve(ln)
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		rt.Invoke("forever", nil) // ends when the runtime closes
	}()
	defer func() {
		rt.Close()
		<-hogDone
	}()
	for rt.Pool().Busy() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	const shorts = 300
	var after []time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < shorts; i++ {
			key := fmt.Sprintf("%d.%d", n, i)
			if _, err := io.WriteString(conn, rawRequest("stamp", []byte(key))); err != nil {
				b.Fatal(err)
			}
			status, body := readReply(b, br)
			readable := time.Now()
			if status != 200 || len(body) != 1 {
				b.Fatalf("short %s = %d %q", key, status, body)
			}
			after = append(after, readable.Sub(kv.at(key)))
			time.Sleep(2 * time.Millisecond)
		}
	}
	b.StopTimer()
	sort.Slice(after, func(i, j int) bool { return after[i] < after[j] })
	q := func(p float64) float64 { return float64(after[int(p*float64(len(after)-1))]) / 1e3 }
	b.ReportMetric(q(0.5), "p50-us")
	b.ReportMetric(q(0.99), "p99-us")
	b.ReportMetric(0, "ns/op")
	slow := 0
	for _, d := range after {
		if d > time.Millisecond {
			slow++
		}
	}
	b.ReportMetric(float64(slow), "over-1ms")
}
