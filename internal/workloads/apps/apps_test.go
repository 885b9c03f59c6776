package apps

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"sledge/internal/abi"
	"sledge/internal/engine"
)

// TestWasmMatchesNative verifies the core property of the application suite:
// for every app, the Wasm sandbox and the native implementation produce the
// same response for the app's canonical request — under the default engine
// configuration, without static analysis (the unanalysed oracle the elision
// fuzzer compares against), and on the naive per-instruction oracle, all of
// which must also charge bit-identical gas: a module serves the same bytes
// at the same metered cost whichever form it was compiled to.
func TestWasmMatchesNative(t *testing.T) {
	configs := []struct {
		name string
		cfg  engine.Config
	}{
		{"full", engine.Config{}},
		{"cheap", engine.Config{NoAnalysis: true}},
		{"naive-oracle", engine.Config{Tier: engine.TierNaive, NoBlockMeter: true}},
	}
	for i := range Apps {
		a := &Apps[i]
		t.Run(a.Name, func(t *testing.T) {
			req := a.GenRequest()
			want := a.Native(req)
			var fullGas uint64
			for _, c := range configs {
				cm, err := a.Compile(c.cfg)
				if err != nil {
					t.Fatalf("%s: Compile: %v", c.name, err)
				}
				inst := cm.Acquire()
				ctx := abi.NewContext(req)
				inst.HostData = ctx
				if _, err := inst.Invoke("main"); err != nil {
					t.Fatalf("%s: Invoke: %v", c.name, err)
				}
				got, err := ctx.ResolveOutput(inst)
				if err != nil {
					t.Fatalf("%s: ResolveOutput: %v", c.name, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: response mismatch: wasm %d bytes, native %d bytes\nwasm: %x\nnative: %x",
						c.name, len(got), len(want), wantPrefix(got, 64), wantPrefix(want, 64))
				}
				if c.name == "full" {
					fullGas = inst.Gas
				} else if inst.Gas != fullGas {
					t.Errorf("%s: charged %d gas, full charged %d", c.name, inst.Gas, fullGas)
				}
				cm.Release(inst)
			}
		})
	}
}

func wantPrefix(b []byte, n int) []byte {
	if len(b) < n {
		return b
	}
	return b[:n]
}

func TestRegistry(t *testing.T) {
	if len(Apps) != 9 {
		t.Fatalf("expected 9 apps (ping, echo, 5 study apps, rgb2gray, spin), have %d", len(Apps))
	}
	for _, name := range []string{"ping", "echo", "gps-ekf", "gocr", "cifar10", "resize", "rgb2gray", "lpd", "spin"} {
		if _, ok := Get(name); !ok {
			t.Errorf("app %s missing", name)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
	if len(Names()) != len(Apps) {
		t.Error("Names() length mismatch")
	}
}

func TestPing(t *testing.T) {
	a, _ := Get("ping")
	if got := a.Native(nil); string(got) != "p" {
		t.Errorf("ping native = %q", got)
	}
}

func TestEchoSizes(t *testing.T) {
	a, _ := Get("echo")
	cm, err := a.Compile(engine.Config{MaxMemoryPages: 128})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, size := range []int{0, 1, 1024, 100 * 1024} {
		req := EchoPayload(size)
		got, err := RunWasm(cm, req)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, req) {
			t.Errorf("size %d: echo mangled payload", size)
		}
	}
}

func TestOCRRecognizesText(t *testing.T) {
	a, _ := Get("gocr")
	req := OCRRequest(20)
	got := string(a.Native(req))
	want := OCRExpected(20)
	if got != want {
		t.Errorf("OCR native = %q, want %q", got, want)
	}
}

func TestEKFConverges(t *testing.T) {
	// Feeding constant measurements must pull the position estimates
	// toward them over iterations (the filter is actually filtering).
	a, _ := Get("gps-ekf")
	req := EKFRequest()
	z := [4]float64{10, 5, 2, 1}
	var resp []byte
	for i := 0; i < 30; i++ {
		req = EKFStep(req, firstOr(resp, req[:ekfRespLen]), z)
		resp = a.Native(req)
		if len(resp) != ekfRespLen {
			t.Fatalf("iteration %d: resp len %d", i, len(resp))
		}
	}
	for j := 0; j < 4; j++ {
		got := math.Float64frombits(binary.LittleEndian.Uint64(resp[2*j*8:]))
		if math.Abs(got-z[j]) > 0.5 {
			t.Errorf("state %d = %v, want near %v", 2*j, got, z[j])
		}
	}
}

func firstOr(b, def []byte) []byte {
	if len(b) > 0 {
		return b
	}
	return def
}

func TestCIFARClassStable(t *testing.T) {
	a, _ := Get("cifar10")
	req := CIFARRequest(0)
	got := a.Native(req)
	if len(got) != 1 || got[0] > 9 {
		t.Fatalf("cifar native = %v", got)
	}
	// Deterministic: same input, same class.
	if again := a.Native(req); again[0] != got[0] {
		t.Error("cifar classification not deterministic")
	}
	// Different seeds should produce at least two distinct classes across
	// a batch (the network is not constant).
	seen := make(map[byte]bool)
	for seed := 0; seed < 8; seed++ {
		seen[a.Native(CIFARRequest(seed))[0]] = true
	}
	if len(seen) < 2 {
		t.Logf("warning: all 8 seeds mapped to class %v", got[0])
	}
}

func TestResizeHalvesImage(t *testing.T) {
	a, _ := Get("resize")
	req := ResizeRequest(16, 12)
	resp := a.Native(req)
	if int(getU32(resp, 0)) != 8 || int(getU32(resp, 4)) != 6 {
		t.Fatalf("resize dims = %dx%d, want 8x6", getU32(resp, 0), getU32(resp, 4))
	}
	if len(resp) != 8+8*6*3 {
		t.Errorf("resize resp len = %d", len(resp))
	}
	// A uniform image stays uniform under box filtering.
	uni := make([]byte, 8+16*12*3)
	putU32(uni, 0, 16)
	putU32(uni, 4, 12)
	for i := 8; i < len(uni); i++ {
		uni[i] = 77
	}
	out := a.Native(uni)
	for i := 8; i < len(out); i++ {
		if out[i] != 77 {
			t.Fatalf("uniform image changed at %d: %d", i, out[i])
		}
	}
}

func TestLPDFindsPlate(t *testing.T) {
	a, _ := Get("lpd")
	req := LPDRequest(lpdW, lpdH)
	resp := a.Native(req)
	x0 := int(int32(getU32(resp, 0)))
	y0 := int(int32(getU32(resp, 4)))
	x1 := int(int32(getU32(resp, 8)))
	y1 := int(int32(getU32(resp, 12)))
	// The plate was drawn at [w/3, w/3+w/4] x [2h/3, 2h/3+h/10].
	wantX0, wantY0 := lpdW/3, 2*lpdH/3
	wantX1, wantY1 := wantX0+lpdW/4, wantY0+lpdH/10
	if abs(x0-wantX0) > 6 || abs(y0-wantY0) > 6 || abs(x1-wantX1) > 6 || abs(y1-wantY1) > 6 {
		t.Errorf("box = (%d,%d)-(%d,%d), want near (%d,%d)-(%d,%d)",
			x0, y0, x1, y1, wantX0, wantY0, wantX1, wantY1)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestChainComposition verifies the composition experiment's chain:
// feeding resize's output to rgb2gray and that to lpd — per stage, wasm
// matches native — and that ChainNative equals the stage-by-stage result.
func TestChainComposition(t *testing.T) {
	req := ChainRequest(64, 64)
	in := req
	for _, name := range ChainStages {
		a, ok := Get(name)
		if !ok {
			t.Fatalf("chain stage %s not registered", name)
		}
		cm, err := a.Compile(engine.Config{})
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		got, err := RunWasm(cm, in)
		if err != nil {
			t.Fatalf("%s: RunWasm: %v", name, err)
		}
		want := a.Native(in)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: wasm (%d bytes) != native (%d bytes)", name, len(got), len(want))
		}
		in = got
	}
	if want := ChainNative(req); !bytes.Equal(in, want) {
		t.Fatalf("chain result (%d bytes) != ChainNative (%d bytes)", len(in), len(want))
	}
}
