package core

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sledge/internal/admission"
	"sledge/internal/engine"
	"sledge/internal/wcc"
)

// sumSrc computes a deterministic function of the payload (byte sum mod 256
// plus the length's low byte) so a response proves which code ran and on
// which input. The loop gives the profile a real retired-instruction count.
const sumSrc = `
static u8 buf[256];
export i32 main() {
	i32 n = sys_read(buf, 256);
	i32 s = n;
	for (i32 i = 0; i < n; i = i + 1) {
		s = s + buf[i];
	}
	buf[0] = s;
	sys_write(buf, 1);
	return 0;
}
`

func sumExpect(payload []byte) byte {
	s := len(payload)
	for _, b := range payload {
		s += int(b)
	}
	return byte(s)
}

func newTieringRuntime(t *testing.T, tc TieringConfig) *Runtime {
	t.Helper()
	rt := New(Config{Workers: 2, Tiering: &tc})
	t.Cleanup(func() { rt.Close() })
	return rt
}

func registerSum(t *testing.T, rt *Runtime, name string) *Module {
	t.Helper()
	m, err := rt.RegisterWCC(name, sumSrc, wcc.Options{})
	if err != nil {
		t.Fatalf("RegisterWCC(%s): %v", name, err)
	}
	return m
}

func invokeSum(t *testing.T, rt *Runtime, name string, payload []byte) {
	t.Helper()
	resp, err := rt.Invoke(name, payload)
	if err != nil {
		t.Fatalf("Invoke(%s): %v", name, err)
	}
	if len(resp) != 1 || resp[0] != sumExpect(payload) {
		t.Fatalf("Invoke(%s) = %v, want [%d]", name, resp, sumExpect(payload))
	}
}

func TestAdaptiveRegistersCheapTier(t *testing.T) {
	cases := []struct {
		name string
		cfg  TieringConfig
		tier string
	}{
		{"optimized-cheap", TieringConfig{Mode: TierAdaptive}, engine.TierLabelCheap},
		{"naive-start", TieringConfig{Mode: TierAdaptive, NaiveStart: true}, engine.TierLabelNaive},
		{"static", TieringConfig{Mode: TierStatic}, engine.TierLabelFull},
		{"cheap-only", TieringConfig{Mode: TierCheapOnly}, engine.TierLabelCheap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Huge thresholds: no promotion can fire during the test.
			tc.cfg.HotInvocations = 1 << 40
			tc.cfg.HotGas = 1 << 60
			rt := newTieringRuntime(t, tc.cfg)
			m := registerSum(t, rt, "sum")
			if got := m.Stats().Tier; got != tc.tier {
				t.Fatalf("registration tier = %q, want %q", got, tc.tier)
			}
			invokeSum(t, rt, "sum", []byte{1, 2, 3})
			if got := m.Stats().Tier; got != tc.tier {
				t.Fatalf("post-invoke tier = %q, want %q", got, tc.tier)
			}
		})
	}
}

func TestBackgroundPromotionSwapsBitIdentical(t *testing.T) {
	promoted := make(chan time.Duration, 1)
	rt := newTieringRuntime(t, TieringConfig{
		HotInvocations: 8,
		Interval:       2 * time.Millisecond,
		OnPromote: func(module string, d time.Duration) {
			if module == "sum" {
				promoted <- d
			}
		},
	})
	m := registerSum(t, rt, "sum")
	payload := []byte{10, 20, 30, 40}
	// Cross the threshold, then keep trickling traffic so the hysteresis
	// confirmation scan sees the invocation count still moving.
	deadline := time.After(10 * time.Second)
	var recompile time.Duration
wait:
	for {
		invokeSum(t, rt, "sum", payload)
		select {
		case recompile = <-promoted:
			break wait
		case <-deadline:
			t.Fatalf("module never promoted (tier %q)", m.Stats().Tier)
		case <-time.After(time.Millisecond):
		}
	}
	if recompile <= 0 {
		t.Errorf("OnPromote recompile duration = %v, want > 0", recompile)
	}
	st := m.Stats()
	if st.Tier != engine.TierLabelFull {
		t.Errorf("post-promotion tier = %q, want %q", st.Tier, engine.TierLabelFull)
	}
	if st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", st.Promotions)
	}
	if st.LastRecompile <= 0 {
		t.Errorf("last recompile = %v, want > 0", st.LastRecompile)
	}
	if !st.Regalloc.Enabled {
		t.Errorf("promoted module should run the regalloc form")
	}
	// The promoted form must be observationally identical.
	invokeSum(t, rt, "sum", payload)
	invokeSum(t, rt, "sum", []byte{255, 255, 1})
	snap, ok := rt.TieringStats()
	if !ok {
		t.Fatal("TieringStats: tiering not active")
	}
	if snap.Promoted != 1 || snap.Promotions != 1 {
		t.Errorf("snapshot promoted/promotions = %d/%d, want 1/1", snap.Promoted, snap.Promotions)
	}
	if snap.Mode != "adaptive" || snap.CheapTier != engine.TierLabelCheap {
		t.Errorf("snapshot mode/cheap = %q/%q", snap.Mode, snap.CheapTier)
	}
}

func TestForcedPromote(t *testing.T) {
	rt := newTieringRuntime(t, TieringConfig{
		HotInvocations: 1 << 40,
		HotGas:         1 << 60,
	})
	m := registerSum(t, rt, "sum")
	invokeSum(t, rt, "sum", []byte{7})
	if err := rt.Promote("sum"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if got := m.Stats().Tier; got != engine.TierLabelFull {
		t.Fatalf("tier after forced promote = %q", got)
	}
	invokeSum(t, rt, "sum", []byte{7})
	// Idempotent: a second promote is a no-op, never a second recompile.
	if err := rt.Promote("sum"); err != nil {
		t.Fatalf("second Promote: %v", err)
	}
	if got := m.Stats().Promotions; got != 1 {
		t.Fatalf("promotions after double promote = %d, want 1", got)
	}
	if err := rt.Promote("ghost"); err == nil {
		t.Error("Promote(ghost) succeeded")
	}
}

func TestPromoteRejectsNonCandidates(t *testing.T) {
	// Static mode: modules register at the full rung and are not ladder
	// candidates.
	rt := newTieringRuntime(t, TieringConfig{Mode: TierStatic})
	registerSum(t, rt, "sum")
	if err := rt.Promote("sum"); err == nil {
		t.Error("Promote on a static-mode module succeeded")
	}
}

// TestHysteresisBurstThenQuiet is the oscillation guard: a module that
// crosses the hotness threshold in a burst and then goes quiet must park in
// pending — promotion only fires once traffic resumes, and at most once
// total no matter how the signal oscillates afterwards.
func TestHysteresisBurstThenQuiet(t *testing.T) {
	promoted := make(chan struct{}, 4)
	rt := newTieringRuntime(t, TieringConfig{
		HotInvocations: 4,
		Interval:       2 * time.Millisecond,
		OnPromote:      func(string, time.Duration) { promoted <- struct{}{} },
	})
	m := registerSum(t, rt, "sum")
	// Burst past the threshold, then stop cold.
	for i := 0; i < 8; i++ {
		invokeSum(t, rt, "sum", []byte{byte(i)})
	}
	// Many scan periods with zero traffic: the module may move to pending
	// but must never recompile.
	select {
	case <-promoted:
		t.Fatal("quiet module was promoted")
	case <-time.After(100 * time.Millisecond):
	}
	if got := m.Stats().Promotions; got != 0 {
		t.Fatalf("promotions while quiet = %d, want 0", got)
	}
	if got := m.Stats().Tier; got != engine.TierLabelCheap {
		t.Fatalf("tier while quiet = %q, want %q", got, engine.TierLabelCheap)
	}
	// Traffic resumes: the parked promotion fires — exactly once.
	deadline := time.After(10 * time.Second)
resume:
	for {
		invokeSum(t, rt, "sum", []byte{9})
		select {
		case <-promoted:
			break resume
		case <-deadline:
			t.Fatal("module never promoted after traffic resumed")
		case <-time.After(time.Millisecond):
		}
	}
	// Keep oscillating; the one-way state machine must not recompile again.
	for i := 0; i < 20; i++ {
		invokeSum(t, rt, "sum", []byte{byte(i)})
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-promoted:
		t.Fatal("module promoted a second time")
	default:
	}
	if got := m.Stats().Promotions; got != 1 {
		t.Fatalf("promotions after oscillation = %d, want 1", got)
	}
}

func TestColdModuleNeverPromoted(t *testing.T) {
	rt := newTieringRuntime(t, TieringConfig{
		HotInvocations: 64,
		Interval:       2 * time.Millisecond,
		OnPromote:      func(string, time.Duration) { t.Error("cold module promoted") },
	})
	m := registerSum(t, rt, "cold")
	invokeSum(t, rt, "cold", []byte{1})
	invokeSum(t, rt, "cold", []byte{2})
	time.Sleep(60 * time.Millisecond)
	if got := m.Stats().Tier; got != engine.TierLabelCheap {
		t.Fatalf("cold module tier = %q, want %q", got, engine.TierLabelCheap)
	}
	snap, _ := rt.TieringStats()
	if snap.Candidates != 1 || snap.Promoted != 0 {
		t.Fatalf("snapshot candidates/promoted = %d/%d, want 1/0", snap.Candidates, snap.Promoted)
	}
}

// TestSwapStressBitIdentical hammers Invoke from several goroutines while
// the compiled form is swapped back and forth between the cheap and full
// rungs; every response must be bit-identical to the single-threaded
// expectation regardless of which form served it. Run under -race this is
// the proof that swapCompiled's atomic-pointer protocol publishes safely.
func TestSwapStressBitIdentical(t *testing.T) {
	rt := newTieringRuntime(t, TieringConfig{
		HotInvocations: 1 << 40,
		HotGas:         1 << 60,
	})
	m := registerSum(t, rt, "sum")
	cheap := m.Compiled()
	full, err := engine.CompileBinary(m.source, rt.hostReg, rt.ladder.Full)
	if err != nil {
		t.Fatalf("compile full rung: %v", err)
	}

	// Count-based, no timing assumption: the hammerers invoke until the
	// swapper has finished wantSwaps swaps, and the swapper performs each
	// swap only after an invocation has completed since the previous one, so
	// every swap has requests in flight or freshly served on both sides.
	const (
		hammerers = 4
		wantSwaps = 64
	)
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		invoked atomic.Uint64
	)
	errs := make(chan error, hammerers)
	tick := make(chan struct{}, 1) // "an invocation completed", coalesced
	for w := 0; w < hammerers; w++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			payload := make([]byte, 16)
			for i := 0; !stop.Load(); i++ {
				for j := range payload {
					payload[j] = seed + byte(i*j)
				}
				resp, err := rt.Invoke("sum", payload)
				if err != nil {
					errs <- fmt.Errorf("invoke: %w", err)
					return
				}
				if len(resp) != 1 || resp[0] != sumExpect(payload) {
					errs <- fmt.Errorf("worker %d iter %d: got %v want [%d]", seed, i, resp, sumExpect(payload))
					return
				}
				invoked.Add(1)
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}(byte(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
swapping:
	for swaps := 0; swaps < wantSwaps; swaps++ {
		select {
		case <-tick:
		case <-done: // every hammerer failed; errs says why
			break swapping
		}
		if swaps%2 == 0 {
			m.swapCompiled(full)
		} else {
			m.swapCompiled(cheap)
		}
		// Drop a tick sent before this swap: the next one must come from
		// an invocation that finished after it.
		select {
		case <-tick:
		default:
		}
	}
	stop.Store(true)
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := m.Stats().Invocations, invoked.Load(); got != want && !t.Failed() {
		t.Errorf("invocations = %d, want %d (lost or duplicated completions)", got, want)
	}
}

// TestPromotionResetsAdmissionEstimate is the Replace/promotion companion to
// the generation-guard tests in internal/admission: after a tier swap the
// controller must not admit against the cheap rung's EWMA.
func TestPromotionResetsAdmissionEstimate(t *testing.T) {
	tc := TieringConfig{HotInvocations: 1 << 40, HotGas: 1 << 60}
	rt := New(Config{Workers: 2, Tiering: &tc, Admission: &admission.Config{}})
	t.Cleanup(func() { rt.Close() })
	registerSum(t, rt, "sum")
	for i := 0; i < 8; i++ {
		invokeSum(t, rt, "sum", []byte{byte(i)})
	}
	snap, ok := rt.AdmissionStats()
	if !ok {
		t.Fatal("admission not active")
	}
	if _, ok := snap.EstimateNanos["sum"]; !ok {
		t.Fatal("no admission estimate before promotion")
	}
	if err := rt.Promote("sum"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	snap, _ = rt.AdmissionStats()
	if est, ok := snap.EstimateNanos["sum"]; ok {
		t.Fatalf("stale cheap-tier estimate survived promotion: %dns", est)
	}
	// Fresh traffic re-seeds the estimator from promoted-form samples.
	invokeSum(t, rt, "sum", []byte{1})
	snap, _ = rt.AdmissionStats()
	if _, ok := snap.EstimateNanos["sum"]; !ok {
		t.Fatal("estimator not re-seeded after promotion")
	}
}

// constSrc ignores its input and answers 42 — distinguishable from sumSrc,
// so a response proves which registration's code served it.
const constSrc = `
static u8 out[1];
export i32 main() {
	out[0] = 42;
	sys_write(out, 1);
	return 0;
}
`

// compileConst builds constSrc at the runtime's full rung, ready for Replace.
func compileConst(t *testing.T, rt *Runtime) *engine.CompiledModule {
	t.Helper()
	res, err := wcc.Compile(constSrc, wcc.Options{})
	if err != nil {
		t.Fatalf("wcc: %v", err)
	}
	cm, err := engine.CompileBinary(res.Binary, rt.hostReg, rt.ladder.Full)
	if err != nil {
		t.Fatalf("compile const: %v", err)
	}
	return cm
}

// TestPromoteRacingReplaceDiscardsStale pins the promote-vs-Replace identity
// guard: a background recompile that finishes after the module has been
// replaced must discard its result — not resurrect the retired deployment's
// code under the new registration's name, and not wipe the new deployment's
// admission estimate.
func TestPromoteRacingReplaceDiscardsStale(t *testing.T) {
	tc := TieringConfig{HotInvocations: 1 << 40, HotGas: 1 << 60}
	rt := New(Config{Workers: 2, Tiering: &tc, Admission: &admission.Config{}})
	t.Cleanup(func() { rt.Close() })
	old := registerSum(t, rt, "sum")
	invokeSum(t, rt, "sum", []byte{1, 2})

	// The deployment is replaced while the old handle is still held (as the
	// promotion controller would hold it across a recompile).
	cm2 := compileConst(t, rt)
	repl, err := rt.Replace("sum", cm2, "main", "")
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	resp, err := rt.Invoke("sum", []byte{9, 9, 9})
	if err != nil {
		t.Fatalf("Invoke after Replace: %v", err)
	}
	if len(resp) != 1 || resp[0] != 42 {
		t.Fatalf("replacement response = %v, want [42]", resp)
	}
	snap, _ := rt.AdmissionStats()
	if _, ok := snap.EstimateNanos["sum"]; !ok {
		t.Fatal("replacement has no admission estimate before the stale promote")
	}

	// Simulate the controller finishing the recompile of the stale handle.
	old.tier.Store(tierPromoting)
	rt.promote(old)

	if got := repl.Compiled(); got != cm2 {
		t.Fatal("stale promotion replaced the new deployment's compiled form")
	}
	if got := old.tier.Load(); got != tierIdle {
		t.Fatalf("stale handle tier = %d, want tierIdle", got)
	}
	if got := rt.promotions.Load(); got != 0 {
		t.Fatalf("promotions = %d, want 0 (discarded compile must not count)", got)
	}
	snap, _ = rt.AdmissionStats()
	if _, ok := snap.EstimateNanos["sum"]; !ok {
		t.Fatal("stale promotion wiped the replacement's admission estimate")
	}
	// The replacement keeps serving its own code.
	resp, err = rt.Invoke("sum", []byte{1})
	if err != nil {
		t.Fatalf("Invoke after stale promote: %v", err)
	}
	if len(resp) != 1 || resp[0] != 42 {
		t.Fatalf("post-promote response = %v, want [42]", resp)
	}
}

// TestPromoteRacingReplaceStress interleaves forced promotion with Replace
// on the same name from two goroutines; whichever order the -race scheduler
// picks, the registry must end up serving the replacement's compiled form.
func TestPromoteRacingReplaceStress(t *testing.T) {
	tc := TieringConfig{HotInvocations: 1 << 40, HotGas: 1 << 60}
	rt := newTieringRuntime(t, tc)
	cm2 := compileConst(t, rt)
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("mod%d", i)
		registerSum(t, rt, name)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// May fail with "not a ladder candidate" when Replace wins the
			// lookup race; only the registry outcome below matters.
			_ = rt.Promote(name)
		}()
		go func() {
			defer wg.Done()
			if _, err := rt.Replace(name, cm2, "main", ""); err != nil {
				t.Errorf("Replace(%s): %v", name, err)
			}
		}()
		wg.Wait()
		m, ok := rt.Lookup(name)
		if !ok {
			t.Fatalf("%s vanished from the registry", name)
		}
		if m.Compiled() != cm2 {
			t.Fatalf("iter %d: registry serves the retired deployment's form", i)
		}
		resp, err := rt.Invoke(name, []byte{3, 4})
		if err != nil {
			t.Fatalf("Invoke(%s): %v", name, err)
		}
		if len(resp) != 1 || resp[0] != 42 {
			t.Fatalf("iter %d: response = %v, want [42]", i, resp)
		}
	}
}

func TestStatsEndpointReportsTiering(t *testing.T) {
	rt := newTieringRuntime(t, TieringConfig{
		HotInvocations: 1 << 40,
		HotGas:         1 << 60,
	})
	registerSum(t, rt, "sum")
	invokeSum(t, rt, "sum", []byte{5, 6})
	if err := rt.Promote("sum"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rt.Serve(ln)
	resp, err := http.Get("http://" + ln.Addr().String() + "/__stats")
	if err != nil {
		t.Fatalf("GET /__stats: %v", err)
	}
	defer resp.Body.Close()
	var payload struct {
		PerModule map[string]ModuleStats `json:"per_module"`
		Tiering   *TieringSnapshot       `json:"tiering"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if payload.Tiering == nil {
		t.Fatal("stats payload has no tiering block")
	}
	if payload.Tiering.Mode != "adaptive" || payload.Tiering.Promotions != 1 || payload.Tiering.Promoted != 1 {
		t.Errorf("tiering block = %+v", payload.Tiering)
	}
	ms, ok := payload.PerModule["sum"]
	if !ok {
		t.Fatal("per_module missing sum")
	}
	if ms.Tier != engine.TierLabelFull {
		t.Errorf("per-module tier = %q, want %q", ms.Tier, engine.TierLabelFull)
	}
	if ms.Promotions != 1 {
		t.Errorf("per-module promotions = %d, want 1", ms.Promotions)
	}
	if ms.LastRecompile <= 0 {
		t.Errorf("per-module last_recompile_ns = %d, want > 0", ms.LastRecompile)
	}
	if ms.Gas == 0 {
		t.Errorf("per-module gas = 0, want > 0")
	}
}

// TestPromotionGasContinuity pins the cross-tier gas contract at the tiering
// layer: the same request charges bit-identical gas on the cheap rung and on
// the full rung (gas is a function of the source path, not the installed
// compiled form), and the atomic module swap neither loses nor double-counts
// hotness gas — the profile's total is always the sum of per-request charges.
func TestPromotionGasContinuity(t *testing.T) {
	for _, mode := range []struct {
		name       string
		naiveStart bool
	}{
		{"cheap-optimized", false},
		{"cheap-naive", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			rt := newTieringRuntime(t, TieringConfig{
				HotInvocations: 1 << 40,
				HotGas:         1 << 60,
				NaiveStart:     mode.naiveStart,
			})
			m := registerSum(t, rt, "sum")
			payload := []byte{11, 22, 33, 44, 55}

			invokeSum(t, rt, "sum", payload)
			gasCheap := m.Stats().Gas
			if gasCheap == 0 {
				t.Fatal("cheap-rung invocation charged no gas")
			}
			// A second identical request on the same rung charges the same
			// amount (sanity on the per-request delta).
			invokeSum(t, rt, "sum", payload)
			if got := m.Stats().Gas; got != 2*gasCheap {
				t.Fatalf("second cheap invocation: profile gas %d, want %d", got, 2*gasCheap)
			}

			before := m.Stats().Gas
			if err := rt.Promote("sum"); err != nil {
				t.Fatalf("Promote: %v", err)
			}
			if got := m.Stats().Tier; got != engine.TierLabelFull {
				t.Fatalf("tier after promote = %q", got)
			}
			// The swap itself must not touch the hotness profile.
			if got := m.Stats().Gas; got != before {
				t.Fatalf("promotion changed profile gas: %d -> %d", before, got)
			}

			invokeSum(t, rt, "sum", payload)
			gasFull := m.Stats().Gas - before
			if gasFull != gasCheap {
				t.Fatalf("gas discontinuity across promotion: cheap rung charged %d, full rung charged %d",
					gasCheap, gasFull)
			}
		})
	}
}
