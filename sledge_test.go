package sledge_test

import (
	"bytes"
	"testing"
	"time"

	"sledge"
)

// TestPublicAPIQuickstart exercises the README's quickstart path through
// the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	rt := sledge.New(sledge.Config{Workers: 2, Quantum: sledge.DefaultQuantum})
	defer rt.Close()

	const src = `
static u8 buf[64];

export i32 main() {
	i32 n = sys_read(buf, 64);
	for (i32 i = 0; i < n; i = i + 1) {
		if (buf[i] >= 97 && buf[i] <= 122) {
			buf[i] = buf[i] - 32; // to upper
		}
	}
	sys_write(buf, n);
	return 0;
}
`
	if _, err := rt.RegisterWCC("upper", src, sledge.WCCOptions{}); err != nil {
		t.Fatalf("RegisterWCC: %v", err)
	}
	resp, err := rt.Invoke("upper", []byte("edge functions"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(resp) != "EDGE FUNCTIONS" {
		t.Errorf("resp = %q", resp)
	}
}

// TestPublicAPIKVAndEngineConfig covers storage plus a non-default engine
// configuration through the facade.
func TestPublicAPIKVAndEngineConfig(t *testing.T) {
	kv := sledge.NewMapKV()
	kv.Set("greeting", []byte("hi"))
	rt := sledge.New(sledge.Config{
		Workers: 1,
		KV:      &sledge.LatentKV{KVStore: kv, Delay: time.Millisecond},
		Bounds:  sledge.BoundsSoftware,
	})
	defer rt.Close()

	const src = `
static u8 key[8];
static u8 val[16];

export i32 main() {
	key[0] = 103; key[1] = 114; key[2] = 101; key[3] = 101;
	key[4] = 116; key[5] = 105; key[6] = 110; key[7] = 103;
	i32 n = sys_kv_get(key, 8, val, 16);
	sys_write(val, n);
	return n;
}
`
	if _, err := rt.RegisterWCC("greet", src, sledge.WCCOptions{}); err != nil {
		t.Fatalf("RegisterWCC: %v", err)
	}
	// The latent KV forces the sandbox through block/park/resume.
	resp, err := rt.Invoke("greet", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !bytes.Equal(resp, []byte("hi")) {
		t.Errorf("resp = %q", resp)
	}
}

// TestPublicAPISchedulerKnobs checks the exported scheduling policy wires
// through to runtime behaviour.
func TestPublicAPISchedulerKnobs(t *testing.T) {
	rt := sledge.New(sledge.Config{
		Workers: 1,
		Policy:  sledge.PolicyCooperative,
	})
	defer rt.Close()
	if _, err := rt.RegisterWCC("noop", `export i32 main() { return 0; }`, sledge.WCCOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.Invoke("noop", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Completed != 5 || st.Preemptions != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestPublicAPIPipeline composes two functions through the facade: the
// first declares its result with sys_output (handed to the next stage
// zero-copy), the second transforms it via the buffered path.
func TestPublicAPIPipeline(t *testing.T) {
	rt := sledge.New(sledge.Config{Workers: 2})
	defer rt.Close()

	const upper = `
export i32 main() {
	i32 n = sys_input_len();
	u8* buf = alloc(n);
	sys_read(buf, n);
	for (i32 i = 0; i < n; i = i + 1) {
		if (buf[i] >= 97 && buf[i] <= 122) {
			buf[i] = buf[i] - 32;
		}
	}
	sys_output(buf, n);
	return 0;
}
`
	const exclaim = `
static u8 bang[1];

export i32 main() {
	i32 n = sys_req_len();
	u8* buf = alloc(n);
	sys_read(buf, n);
	sys_write(buf, n);
	bang[0] = 33; // '!'
	sys_write(bang, 1);
	return 0;
}
`
	if _, err := rt.RegisterWCC("upper", upper, sledge.WCCOptions{HeapBytes: 1 << 16}); err != nil {
		t.Fatalf("RegisterWCC upper: %v", err)
	}
	if _, err := rt.RegisterWCC("exclaim", exclaim, sledge.WCCOptions{HeapBytes: 1 << 16}); err != nil {
		t.Fatalf("RegisterWCC exclaim: %v", err)
	}
	p, err := rt.RegisterPipeline("shout", "upper", "exclaim")
	if err != nil {
		t.Fatalf("RegisterPipeline: %v", err)
	}
	resp, err := rt.InvokePipeline("shout", []byte("edge functions"))
	if err != nil {
		t.Fatalf("InvokePipeline: %v", err)
	}
	if string(resp) != "EDGE FUNCTIONS!" {
		t.Errorf("resp = %q", resp)
	}
	// The same chain answers under the reserved p/ namespace too.
	resp, err = rt.Invoke(sledge.PipelinePrefix+"shout", []byte("hi"))
	if err != nil || string(resp) != "HI!" {
		t.Errorf("Invoke(p/shout) = %q, %v", resp, err)
	}
	if st := p.Stats(); st.Invocations != 2 || st.FastHandoffs != 2 {
		t.Errorf("stats = %+v, want 2 invocations, 2 fast handoffs", st)
	}
}
