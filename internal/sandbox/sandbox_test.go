package sandbox

import (
	"errors"
	"testing"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/wcc"
)

func compileSrc(t *testing.T, src string) *engine.CompiledModule {
	t.Helper()
	res, err := wcc.Compile(src, wcc.Options{})
	if err != nil {
		t.Fatalf("wcc: %v", err)
	}
	cm, err := engine.CompileBinary(res.Binary, abi.Registry(), engine.Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return cm
}

const echoSrc = `
static u8 buf[256];

export i32 main() {
	i32 n = sys_read(buf, 256);
	sys_write(buf, n);
	return n;
}
`

func TestLifecycleComplete(t *testing.T) {
	cm := compileSrc(t, echoSrc)
	var completed *Sandbox
	sb, err := New(cm, []byte("abc"), Options{Tenant: "t1"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sb.OnComplete = func(s *Sandbox) { completed = s }
	if sb.State() != StateRunnable {
		t.Errorf("initial state %s", sb.State())
	}
	if st := sb.RunQuantum(0); st != StateComplete {
		t.Fatalf("RunQuantum = %s (err %v)", st, sb.Err)
	}
	if completed != sb {
		t.Error("OnComplete not fired with the sandbox")
	}
	if string(sb.Response()) != "abc" {
		t.Errorf("Response = %q", sb.Response())
	}
	if code, err := sb.ExitCode(); err != nil || code != 3 {
		t.Errorf("ExitCode = %d, %v", code, err)
	}
	if sb.Latency() <= 0 {
		t.Error("latency not recorded")
	}
	if sb.Gas() == 0 {
		t.Error("instructions not accounted")
	}
	// A run that completes in its first quantum is one slice, bracketed by
	// the two clock reads it already made.
	if gas, d := sb.LastSlice(); gas != sb.Gas() || d != sb.DoneAt.Sub(sb.FirstRunAt) {
		t.Errorf("LastSlice = %d gas over %v; the run burned %d over %v",
			gas, d, sb.Gas(), sb.DoneAt.Sub(sb.FirstRunAt))
	}
	// Running again is a no-op.
	if st := sb.RunQuantum(0); st != StateComplete {
		t.Errorf("re-run state %s", st)
	}
}

func TestLifecycleYield(t *testing.T) {
	cm := compileSrc(t, `
export i32 main() {
	i32 acc = 0;
	for (i32 i = 0; i < 500000; i = i + 1) {
		acc = acc + i;
	}
	return acc;
}
`)
	sb, err := New(cm, nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rounds := 0
	var sliced uint64
	for sb.State() == StateRunnable {
		sb.RunQuantum(100_000)
		rounds++
		if rounds > 1000 {
			t.Fatal("never completed")
		}
		gas, d := sb.LastSlice()
		if d <= 0 || (sb.State() == StateRunnable && gas < 100_000) {
			t.Fatalf("slice %d: %d gas over %v", rounds, gas, d)
		}
		sliced += gas
	}
	if sliced != sb.Gas() {
		t.Errorf("slices burned %d gas, the run %d", sliced, sb.Gas())
	}
	if sb.State() != StateComplete {
		t.Fatalf("final state %s (%v)", sb.State(), sb.Err)
	}
	if rounds < 5 {
		t.Errorf("expected multiple quanta, got %d", rounds)
	}
	if sb.Preemptions == 0 {
		t.Error("preemptions not counted")
	}
}

func TestLifecycleTrap(t *testing.T) {
	cm := compileSrc(t, `
static u8 b[4];
export i32 main() {
	i32* p = (i32*) b;
	p[1000000] = 1;
	return 0;
}
`)
	fired := false
	sb, err := New(cm, nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sb.OnComplete = func(*Sandbox) { fired = true }
	if st := sb.RunQuantum(0); st != StateTrapped {
		t.Fatalf("state %s", st)
	}
	if !fired {
		t.Error("OnComplete not fired on trap")
	}
	var trap *engine.Trap
	if !errors.As(sb.Err, &trap) {
		t.Errorf("Err = %v", sb.Err)
	}
	if _, err := sb.ExitCode(); err == nil {
		t.Error("ExitCode after trap should fail")
	}
	if gas, _ := sb.LastSlice(); gas != 0 {
		t.Errorf("a trapped slice reported %d gas as a rate sample", gas)
	}
}

func TestBlockedAndResume(t *testing.T) {
	cm := compileSrc(t, `
static u8 k[1];
static u8 v[16];
export i32 main() {
	k[0] = 97;
	i32 n = sys_kv_get(k, 1, v, 16);
	sys_write(v, n);
	return n;
}
`)
	store := abi.NewMapKV()
	store.Set("a", []byte("async"))
	sb, err := New(cm, nil, Options{KV: &abi.LatentKV{KVStore: store, Delay: time.Millisecond}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if st := sb.RunQuantum(0); st != StateBlocked {
		t.Fatalf("state %s (%v)", st, sb.Err)
	}
	at, ok := sb.PendingReadyAt()
	if !ok || time.Until(at) <= 0 {
		t.Fatalf("PendingReadyAt = %v, %v", at, ok)
	}
	if gas, _ := sb.LastSlice(); gas != 0 {
		t.Errorf("a slice that blocked reported %d gas as a rate sample", gas)
	}
	// Completing before running again is the event loop's job.
	if err := sb.CompletePending(); err != nil {
		t.Fatalf("CompletePending: %v", err)
	}
	if st := sb.RunQuantum(0); st != StateComplete {
		t.Fatalf("state after resume %s (%v)", st, sb.Err)
	}
	if string(sb.Response()) != "async" {
		t.Errorf("Response = %q", sb.Response())
	}
	// The slice after the resume is execution only, and reports itself.
	if gas, d := sb.LastSlice(); gas == 0 || gas >= sb.Gas() || d <= 0 || d >= sb.DoneAt.Sub(sb.FirstRunAt) {
		t.Errorf("resumed slice: %d gas over %v of a %d-gas, %v run", gas, d, sb.Gas(), sb.DoneAt.Sub(sb.FirstRunAt))
	}
	// CompletePending again must fail.
	if err := sb.CompletePending(); err == nil {
		t.Error("double CompletePending accepted")
	}
}

func TestFailReleasesWaiter(t *testing.T) {
	cm := compileSrc(t, echoSrc)
	sb, err := New(cm, nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fired := 0
	sb.OnComplete = func(*Sandbox) { fired++ }
	sentinel := errors.New("abandoned")
	sb.Fail(sentinel)
	if sb.State() != StateTrapped || !errors.Is(sb.Err, sentinel) {
		t.Errorf("state %s err %v", sb.State(), sb.Err)
	}
	sb.Fail(sentinel) // idempotent
	if fired != 1 {
		t.Errorf("OnComplete fired %d times", fired)
	}
}

func TestNewErrors(t *testing.T) {
	cm := compileSrc(t, echoSrc)
	if _, err := New(cm, nil, Options{Entry: "missing"}); err == nil {
		t.Error("New with missing entry accepted")
	}
}

func TestUniqueIDs(t *testing.T) {
	cm := compileSrc(t, echoSrc)
	seen := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		sb, err := New(cm, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if seen[sb.ID] {
			t.Fatalf("duplicate sandbox ID %d", sb.ID)
		}
		seen[sb.ID] = true
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StateRunnable: "runnable", StateRunning: "running", StateBlocked: "blocked",
		StateComplete: "complete", StateTrapped: "trapped", State(99): "state(99)",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
