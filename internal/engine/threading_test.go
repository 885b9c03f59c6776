package engine_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/wasm"
	"sledge/internal/workloads/apps"
	"sledge/internal/workloads/corpus"
)

// sliced is one instance run in Run(fuel) slices.
type sliced struct {
	inst *engine.Instance
	ctx  *abi.Context
}

// startSliced instantiates cm and starts main the way the differential
// fuzzer does — with arg, or with none when main takes none. ok is false
// when the module has no such main.
func startSliced(cm *engine.CompiledModule, req []byte, arg uint64) (s sliced, ok bool) {
	s = sliced{cm.Instantiate(), abi.NewContext(req)}
	s.inst.HostData = s.ctx
	if s.inst.Start("main", arg) == nil {
		return s, true
	}
	s.inst = cm.Instantiate()
	s.inst.HostData = s.ctx
	return s, s.inst.Start("main") == nil
}

// outcome canonicalises how a run ended: result or trap code, and the reply.
func (s sliced) outcome(st engine.Status, err error) string {
	var trap *engine.Trap
	switch {
	case st == engine.StatusDone:
		v, _ := s.inst.Result()
		out, _ := s.ctx.ResolveOutput(s.inst)
		return fmt.Sprintf("done:%#x reply:%x", v, out)
	case errors.As(err, &trap):
		return "trap:" + trap.Code.String()
	}
	return fmt.Sprintf("%v: %v", st, err)
}

// TestChargeThreadingYieldIdentity holds branches that pay the charge at
// their destination (regalloc.go) to the yields of code in which every
// charge is still a dispatched instruction. Each module of the corpus, plus
// the idiom and hazard seeds, runs to completion in Run(f) slices under the
// default config and under NoFusion — no threading, the same charges summed
// — in lockstep: at every yield both must report the same status, the same
// Instance.Gas and the same operand-stack pointer, and at the end the same
// result, reply or trap and the same gas. f = 1 yields on every charge,
// dispatched or paid by a branch; the larger slices let charges accumulate.
// A run is followed for its first gasBudget gas: the long apps repeat the
// same loops from there on, and spin and some fuzz inputs never end.
//
// The same lockstep holds RunUntil to Run under the default config,
// NoBlockMeter and the naive tier: with its stop flag down, RunUntil(f)
// must yield wherever Run(f) does, its pieces of PollGas adding up to f in
// the module's unit; with the flag up it must stop after its first piece,
// where Run(min(f, PollGas)) does. The naive tier has no pieces (it traps
// when fuel runs out), so there both arms are Run(f).
func TestChargeThreadingYieldIdentity(t *testing.T) {
	const gasBudget = 2_000_000
	// untilBudget follows each RunUntil arm across a few dozen piece
	// boundaries.
	const untilBudget = 100_000
	bins := corpus.Modules(t, "testdata/fuzz/FuzzDifferentialElision")
	hazards, err := wasm.Encode(corpus.HazardSeedModule())
	if err != nil {
		t.Fatal(err)
	}
	bins["hazards"] = hazards
	names := make([]string, 0, len(bins))
	for name := range bins {
		names = append(names, name)
	}
	sort.Strings(names)

	host := abi.Registry()
	ran, absorbed, slices, untilRuns := 0, 0, 0, 0
	for _, name := range names {
		m, err := wasm.Decode(bins[name])
		if err != nil {
			continue
		}
		threaded, err := engine.Compile(m, host, engine.Config{})
		if err != nil {
			continue // rejected before lowering; the totality test owns that
		}
		plain, err := engine.Compile(m, host, engine.Config{NoFusion: true})
		if err != nil {
			t.Fatalf("%s: NoFusion: %v", name, err)
		}
		if n := plain.Regalloc().ChargesAbsorbed; n != 0 {
			t.Fatalf("%s: the unthreaded reference absorbed %d charges", name, n)
		}
		absorbed += threaded.Regalloc().ChargesAbsorbed
		until := map[string]*engine.CompiledModule{"default": threaded}
		for label, cfg := range map[string]engine.Config{
			"NoBlockMeter": {NoBlockMeter: true},
			"naive":        {Tier: engine.TierNaive},
		} {
			if until[label], err = engine.Compile(m, host, cfg); err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
		}
		var req []byte
		if a, ok := apps.Get(strings.TrimPrefix(name, "app/")); ok {
			req = a.GenRequest()
		}
		args := []uint64{0}
		if name == "hazards" || strings.HasPrefix(name, "seed/") {
			args = []uint64{0, 1, 2, 3, 5, 8, 15, 0x7FFFFFFF}
		}
		for _, arg := range args {
			for _, fuel := range []int64{1, 2, 3, 7, 16, 255, 4096} {
				a, ok := startSliced(threaded, req, arg)
				b, okb := startSliced(plain, req, arg)
				if !ok || !okb {
					if ok != okb {
						t.Fatalf("%s: main starts under one config only", name)
					}
					continue
				}
				ran++
				slices += lockstep(t, fmt.Sprintf("%s(%#x) fuel %d: threaded vs unthreaded", name, arg, fuel), a, b, gasBudget,
					func(s sliced) (engine.Status, error) { return s.inst.Run(fuel) },
					func(s sliced) (engine.Status, error) { return s.inst.Run(fuel) })
			}
			for _, label := range []string{"default", "NoBlockMeter", "naive"} {
				cm := until[label]
				for _, fuel := range []int64{engine.PollGas, engine.PollGas + 1, 3*engine.PollGas + 1, 50_000} {
					for _, raised := range []int64{0, 1} {
						a, ok := startSliced(cm, req, arg)
						b, okb := startSliced(cm, req, arg)
						if !ok || !okb {
							continue
						}
						untilRuns++
						var stop atomic.Int64
						stop.Store(raised)
						ref := fuel
						if raised > 0 && cm.Preemptible() {
							ref = min(fuel, engine.PollGas)
						}
						slices += lockstep(t, fmt.Sprintf("%s(%#x) %s: RunUntil(%d) stop %d vs Run(%d)", name, arg, label, fuel, raised, ref), a, b, untilBudget,
							func(s sliced) (engine.Status, error) {
								st, _, err := s.inst.RunUntil(fuel, &stop)
								return st, err
							},
							func(s sliced) (engine.Status, error) { return s.inst.Run(ref) })
					}
				}
			}
		}
	}
	t.Logf("%d runs and %d RunUntil runs, %d slices compared, over code with %d absorbed charges", ran, untilRuns, slices, absorbed)
	if ran < 40*7 || absorbed < 1000 || untilRuns < 40*4*2*3 {
		t.Errorf("%d runs, %d RunUntil runs, over code with %d absorbed charges: the corpus did not load, or nothing is threaded", ran, untilRuns, absorbed)
	}
}

// lockstep runs a with runA and b with runB slice by slice until either
// ends or a has passed budget gas, and fails the test at the first slice
// where the two differ in status, gas or operand-stack pointer, or where
// they end differently. It returns the slices compared.
func lockstep(t *testing.T, what string, a, b sliced, budget uint64, runA, runB func(sliced) (engine.Status, error)) int {
	t.Helper()
	for n := 1; ; n++ {
		sa, ea := runA(a)
		sb, eb := runB(b)
		if sa != sb || a.inst.Gas != b.inst.Gas || a.inst.SP() != b.inst.SP() {
			t.Fatalf("%s, slice %d: (%v, gas %d, sp %d) against (%v, gas %d, sp %d)",
				what, n, sa, a.inst.Gas, a.inst.SP(), sb, b.inst.Gas, b.inst.SP())
		}
		if sa == engine.StatusYielded {
			if a.inst.Gas > budget {
				return n
			}
			continue
		}
		if oa, ob := a.outcome(sa, ea), b.outcome(sb, eb); oa != ob {
			t.Fatalf("%s: ended %s against %s", what, oa, ob)
		}
		return n
	}
}

// TestChargeTooWideToThread compiles a loop whose body is one region of
// more than 65 535 gas (MaxUncharged lets it be): a branch word has 16 bits
// for a charge, so the module must fall back to dispatched charges — and
// charge what the threaded default-bound build and the naive oracle charge.
func TestChargeTooWideToThread(t *testing.T) {
	i32, empty := wasm.ValI32, uint64(wasm.BlockTypeEmpty)
	body := []wasm.Instr{{Op: wasm.OpBlock, Imm: empty}, {Op: wasm.OpLoop, Imm: empty}}
	for i := 0; i < 70_000; i++ {
		body = append(body, wasm.Instr{Op: wasm.OpNop})
	}
	body = append(body,
		wasm.Instr{Op: wasm.OpLocalGet, Imm: 0}, wasm.Instr{Op: wasm.OpI32Const, Imm: 1}, wasm.Instr{Op: wasm.OpI32Sub},
		wasm.Instr{Op: wasm.OpLocalTee, Imm: 0}, wasm.Instr{Op: wasm.OpBrIf, Imm: 0},
		wasm.Instr{Op: wasm.OpEnd}, wasm.Instr{Op: wasm.OpEnd}, wasm.Instr{Op: wasm.OpLocalGet, Imm: 0})
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{Params: []wasm.ValType{i32}, Results: []wasm.ValType{i32}}}
	m.Funcs = []wasm.Func{{TypeIdx: 0, Name: "main", Body: body}}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 0}}

	var gas []uint64
	for _, cfg := range []engine.Config{
		{MaxUncharged: 1 << 20},
		{},
		{Tier: engine.TierNaive, NoBlockMeter: true},
	} {
		cm, err := engine.Compile(m, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wide := cm.Analysis().MaxBlockCost > 0xFFFF
		if wide != (cfg.MaxUncharged != 0) {
			t.Fatalf("MaxUncharged %d: MaxBlockCost %d", cfg.MaxUncharged, cm.Analysis().MaxBlockCost)
		}
		if n := cm.Regalloc().ChargesAbsorbed; cfg.Tier != engine.TierNaive && (n == 0) != wide {
			t.Errorf("MaxUncharged %d (MaxBlockCost %d): %d charges absorbed", cfg.MaxUncharged, cm.Analysis().MaxBlockCost, n)
		}
		for _, fuel := range []int64{0, 1000} {
			if fuel != 0 && !cm.Preemptible() {
				continue
			}
			got, g := runExport(t, cm, "main", 3, fuel)
			if got != "done:0x0" {
				t.Errorf("MaxUncharged %d fuel %d: %s", cfg.MaxUncharged, fuel, got)
			}
			gas = append(gas, g)
		}
	}
	for _, g := range gas {
		if g != gas[0] || g < 3*70_000 {
			t.Fatalf("gas differs across configurations: %v", gas)
		}
	}
}

// TestHostBlockAfterThreadedBranch parks on a host call that is the first
// instruction a branch lands on after paying the merge's charge itself, and
// the first one the skipped arm's charge falls into: the blocked state
// (arguments, stack pointer), the resumed result and the gas must be what
// the unthreaded code and the per-dispatch meter give, with and without a
// yield on every charge.
func TestHostBlockAfterThreadedBranch(t *testing.T) {
	i32, empty := wasm.ValI32, uint64(wasm.BlockTypeEmpty)
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{Params: []wasm.ValType{i32}, Results: []wasm.ValType{i32}}}
	m.Imports = []wasm.Import{{Module: "env", Name: "wait", Kind: wasm.ExternFunc, TypeIdx: 0}}
	m.Funcs = []wasm.Func{{TypeIdx: 0, Name: "f", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, Imm: 0}, {Op: wasm.OpI32Const, Imm: 3}, {Op: wasm.OpI32Mul}, // the argument, canonical across the block
		{Op: wasm.OpBlock, Imm: empty},
		{Op: wasm.OpLocalGet, Imm: 0}, {Op: wasm.OpI32Const, Imm: 1}, {Op: wasm.OpI32And}, {Op: wasm.OpBrIf, Imm: 0},
		{Op: wasm.OpLocalGet, Imm: 0}, {Op: wasm.OpI32Const, Imm: 100}, {Op: wasm.OpI32Add}, {Op: wasm.OpLocalSet, Imm: 0},
		{Op: wasm.OpEnd},
		{Op: wasm.OpCall, Imm: 0},
		{Op: wasm.OpLocalGet, Imm: 0}, {Op: wasm.OpI32Add},
	}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternFunc, Index: 1}}
	var sawArg uint64
	host := engine.HostRegistry{"env": {"wait": {Type: m.Types[0], Func: func(_ *engine.Instance, args []uint64) (uint64, error) {
		sawArg = args[0]
		return 0, engine.ErrHostBlock
	}}}}
	for _, x := range []uint64{7, 8} { // branch taken; arm falls into the merge
		want := 5 + x
		if x&1 == 0 {
			want += 100
		}
		type parked struct {
			gas uint64
			sp  int
		}
		var ref *parked
		for _, cfg := range []engine.Config{{}, {NoFusion: true}, {NoBlockMeter: true}} {
			for _, fuel := range []int64{0, 1} {
				cm, err := engine.Compile(m, host, cfg)
				if err != nil {
					t.Fatal(err)
				}
				in := cm.Instantiate()
				if err := in.Start("f", x); err != nil {
					t.Fatal(err)
				}
				run := func() engine.Status {
					st, err := in.Run(fuel)
					for st == engine.StatusYielded {
						st, err = in.Run(fuel)
					}
					if err != nil {
						t.Fatalf("f(%d) %+v fuel=%d: %v", x, cfg, fuel, err)
					}
					return st
				}
				if st := run(); st != engine.StatusBlocked || sawArg != 3*x {
					t.Fatalf("f(%d) %+v fuel=%d: status %v with argument %d, want blocked with %d", x, cfg, fuel, st, sawArg, 3*x)
				}
				at := parked{in.Gas, in.SP()}
				if ref == nil {
					ref = &at
				} else if at != *ref {
					t.Errorf("f(%d) %+v fuel=%d: parked at %+v, the default config at %+v", x, cfg, fuel, at, *ref)
				}
				if err := in.ResumeHost(5); err != nil {
					t.Fatal(err)
				}
				if st := run(); st != engine.StatusDone {
					t.Fatalf("f(%d) %+v fuel=%d: status %v after resume", x, cfg, fuel, st)
				}
				if got, _ := in.Result(); got != want {
					t.Errorf("f(%d) %+v fuel=%d: got %d with completion 5, want %d", x, cfg, fuel, got, want)
				}
			}
		}
	}
}

// TestRunUntilStoppedFromAnotherGoroutine raises RunUntil's stop flag from
// another goroutine while the run is under way, as a scheduler's inbox
// does: the run must yield early, with fuel left, and resuming it to the
// end must give the result and the gas of a run nobody stopped.
func TestRunUntilStoppedFromAnotherGoroutine(t *testing.T) {
	i32, empty := wasm.ValI32, uint64(wasm.BlockTypeEmpty)
	m := wasm.NewModule()
	m.Types = []wasm.FuncType{{Params: []wasm.ValType{i32}, Results: []wasm.ValType{i32}}}
	// sum(n): acc += n while n-- > 0, tens of millions of gas for the n
	// below: long against the microseconds the other goroutine takes.
	m.Funcs = []wasm.Func{{TypeIdx: 0, Name: "main", Locals: []wasm.ValType{i32}, Body: []wasm.Instr{
		{Op: wasm.OpBlock, Imm: empty}, {Op: wasm.OpLoop, Imm: empty},
		{Op: wasm.OpLocalGet, Imm: 1}, {Op: wasm.OpLocalGet, Imm: 0}, {Op: wasm.OpI32Add}, {Op: wasm.OpLocalSet, Imm: 1},
		{Op: wasm.OpLocalGet, Imm: 0}, {Op: wasm.OpI32Const, Imm: 1}, {Op: wasm.OpI32Sub}, {Op: wasm.OpLocalTee, Imm: 0},
		{Op: wasm.OpBrIf, Imm: 0},
		{Op: wasm.OpEnd}, {Op: wasm.OpEnd}, {Op: wasm.OpLocalGet, Imm: 1},
	}}}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 0}}
	const n = 1_000_000
	for _, cfg := range []engine.Config{{}, {NoBlockMeter: true}} {
		cm, err := engine.Compile(m, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := cm.Instantiate()
		want, err := ref.Invoke("main", n)
		if err != nil {
			t.Fatal(err)
		}

		in := cm.Instantiate()
		if err := in.Start("main", n); err != nil {
			t.Fatal(err)
		}
		var stop atomic.Int64
		raised := make(chan struct{})
		go func() {
			stop.Store(1)
			close(raised)
		}()
		const fuel = 1 << 40
		st, left, err := in.RunUntil(fuel, &stop)
		<-raised
		if st != engine.StatusYielded || err != nil || left <= 0 || left >= fuel {
			t.Fatalf("%+v: RunUntil ended %v (%v) with %d of %d fuel left, want a yield with fuel left", cfg, st, err, left, fuel)
		}
		if in.Gas >= ref.Gas {
			t.Fatalf("%+v: stopped after %d gas, the whole run is %d", cfg, in.Gas, ref.Gas)
		}
		if st, err := in.Run(0); st != engine.StatusDone || err != nil {
			t.Fatalf("%+v: resumed run ended %v (%v)", cfg, st, err)
		}
		if got, _ := in.Result(); got != want || in.Gas != ref.Gas {
			t.Errorf("%+v: resumed to %d with %d gas, unstopped %d with %d gas", cfg, got, in.Gas, want, ref.Gas)
		}
	}
}
