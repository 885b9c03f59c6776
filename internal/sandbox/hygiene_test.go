package sandbox

import (
	"bytes"
	"testing"
)

// hygieneSrc has a writer entry that copies the request (the "secret") deep
// into linear memory, and a scanner entry that counts nonzero bytes over the
// same region. A recycled sandbox handed to the scanner tenant must report
// zero: the §3.2 multi-tenant isolation guarantee for the pooling layer.
const hygieneSrc = `
static u8 buf[256];

export i32 main() {
	i32 n = sys_read(buf, 256);
	u8* p = (u8*) buf;
	for (i32 i = 0; i < n; i = i + 1) {
		p[20000 + i] = buf[i];
	}
	return n;
}

export i32 scan() {
	u8* p = (u8*) buf;
	i32 hits = 0;
	for (i32 i = 0; i < 40000; i = i + 1) {
		if (p[i] != 0) {
			hits = hits + 1;
		}
	}
	return hits;
}
`

func TestTenantMemoryHygiene(t *testing.T) {
	cm := compileSrc(t, hygieneSrc)
	secret := []byte("hunter2-credential")

	// Tenant A: write the secret into memory and finish.
	sb1, err := New(cm, secret, Options{Tenant: "tenant-a"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	in1 := sb1.inst
	if st := sb1.RunQuantum(0); st != StateComplete {
		t.Fatalf("writer state %s (%v)", st, sb1.Err)
	}
	// Sensitivity check: the secret really is in the sandbox's memory
	// before release (otherwise a passing scan would prove nothing).
	if !bytes.Contains(in1.Memory(), secret) {
		t.Fatal("writer did not leave the secret in memory")
	}
	sb1.Release()

	// Tenant B: acquire a fresh sandbox — it must get the recycled memory —
	// and scan it for anything left behind.
	sb2, err := New(cm, nil, Options{Entry: "scan", Tenant: "tenant-b"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if sb2.inst != in1 {
		t.Fatal("expected the recycled instance; hygiene claim not exercised")
	}
	if st := sb2.RunQuantum(0); st != StateComplete {
		t.Fatalf("scanner state %s (%v)", st, sb2.Err)
	}
	hits, err := sb2.ExitCode()
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatalf("scanner found %d nonzero bytes in freshly acquired memory", hits)
	}
	if bytes.Contains(sb2.inst.Memory(), secret) {
		t.Fatal("secret survived recycling")
	}
	sb2.Release()
}

// writeThenSpinSrc's main leaves the request deep in memory and then spins
// long enough to be caught mid-run; scan is hygieneSrc's.
const writeThenSpinSrc = `
static u8 buf[256];

export i32 main() {
	i32 n = sys_read(buf, 256);
	u8* p = (u8*) buf;
	for (i32 i = 0; i < n; i = i + 1) {
		p[20000 + i] = buf[i];
	}
	i32 acc = 0;
	for (i32 j = 0; j < 1000000; j = j + 1) {
		acc = acc + j;
	}
	return acc;
}

export i32 scan() {
	u8* p = (u8*) buf;
	i32 hits = 0;
	for (i32 i = 0; i < 40000; i = i + 1) {
		if (p[i] != 0) {
			hits = hits + 1;
		}
	}
	return hits;
}
`

// TestFailedWhileYieldedRecycles: a sandbox failed mid-run — its pool
// stopped or its waiter left while it was yielded — still hands its instance
// back, and the reset leaves nothing for the next tenant.
func TestFailedWhileYieldedRecycles(t *testing.T) {
	cm := compileSrc(t, writeThenSpinSrc)
	secret := []byte("hunter2-credential")
	sb1, err := New(cm, secret, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in1 := sb1.inst
	if st := sb1.RunQuantum(20_000); st != StateRunnable {
		t.Fatalf("writer state %s (%v), want a yield mid-spin", st, sb1.Err)
	}
	if !bytes.Contains(in1.Memory(), secret) {
		t.Fatal("writer did not leave the secret in memory before the yield")
	}
	sb1.Fail(ErrAbandoned)
	sb1.Release()
	if got := cm.PooledInstances(); got != 1 {
		t.Fatalf("%d pooled instances after releasing the failed sandbox, want 1", got)
	}

	sb2, err := New(cm, nil, Options{Entry: "scan"})
	if err != nil {
		t.Fatal(err)
	}
	if sb2.inst != in1 {
		t.Fatal("expected the recycled instance; hygiene claim not exercised")
	}
	if st := sb2.RunQuantum(0); st != StateComplete {
		t.Fatalf("scanner state %s (%v)", st, sb2.Err)
	}
	if hits, _ := sb2.ExitCode(); hits != 0 {
		t.Fatalf("scanner found %d nonzero bytes in the recycled memory", hits)
	}
	sb2.Release()
}

// TestRecycledSandboxResponseIsolated: the pooled response buffer must not
// replay a previous tenant's output.
func TestRecycledSandboxResponseIsolated(t *testing.T) {
	cm := compileSrc(t, echoSrc)
	sb1, err := New(cm, []byte("first-tenant-output"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := sb1.RunQuantum(0); st != StateComplete {
		t.Fatalf("state %s (%v)", st, sb1.Err)
	}
	if string(sb1.Response()) != "first-tenant-output" {
		t.Fatalf("Response = %q", sb1.Response())
	}
	sb1.Release()

	sb2, err := New(cm, []byte("x"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := sb2.RunQuantum(0); st != StateComplete {
		t.Fatalf("state %s (%v)", st, sb2.Err)
	}
	if string(sb2.Response()) != "x" {
		t.Fatalf("recycled Response = %q, want %q", sb2.Response(), "x")
	}
	sb2.Release()
}

// TestAbandonHandoff: whoever loses the finish/abandon race takes the
// recycling action exactly once.
func TestAbandonHandoff(t *testing.T) {
	cm := compileSrc(t, echoSrc)

	// Waiter abandons first: FinishNotify must recycle, not signal.
	sb, err := New(cm, []byte("a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sb.Abandon() {
		t.Fatal("Abandon on a live sandbox failed")
	}
	if sb.Abandon() {
		t.Fatal("second Abandon succeeded")
	}
	if st := sb.RunQuantum(0); st != StateComplete {
		t.Fatalf("state %s", st)
	}
	sb.FinishNotify()
	if sb.inst != nil {
		// recycled: inst handed back
	} else if got := cm.PooledInstances(); got == 0 {
		t.Error("abandoned sandbox was not recycled on FinishNotify")
	}
	select {
	case <-sb.Done():
		t.Error("abandoned sandbox signalled Done")
	default:
	}

	// Worker finishes first: Abandon must fail and Done must be signalled.
	sb2, err := New(cm, []byte("b"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := sb2.RunQuantum(0); st != StateComplete {
		t.Fatalf("state %s", st)
	}
	sb2.FinishNotify()
	if sb2.Abandon() {
		t.Error("Abandon succeeded after FinishNotify")
	}
	select {
	case <-sb2.Done():
	default:
		t.Error("Done not signalled by FinishNotify")
	}
	sb2.Release()
}
