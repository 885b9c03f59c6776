package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"time"

	"sledge/internal/abi"
	"sledge/internal/admission"
	"sledge/internal/core"
	"sledge/internal/wcc"
	"sledge/internal/workloads/apps"
)

// poolSize is how many seeded payloads each app gets.
const poolSize = 64

// system is the program under test as one run sees it: a core.Runtime with
// the cmd/sledge defaults (admission on, static tiering, BoundsGuard, 5 ms
// quantum) serving the whole suite on a loopback port, plus the seeded
// inputs and their expected replies.
type system struct {
	w       *workload
	nproc   int
	rt      *core.Runtime
	kv      *abi.MapKV
	addr    string
	served  chan error
	bins    map[string][]byte    // wasm binary per module
	pools   map[string][]request // seeded payloads per app
	deploys [][]int              // seeded coldstart deploy orders over moduleNames
}

func appByName(name string) *apps.App {
	if name == apps.FetchApp.Name {
		return &apps.FetchApp
	}
	a, _ := apps.Get(name)
	return a
}

// setUp does everything that precedes the first warm-up op: WCC compile of
// the ten modules, registration, listener start and expected-reply
// generation. setup_s times it from outside the process.
func setUp(w *workload, seed int64, nproc int) (*system, error) {
	sys := &system{
		w:      w,
		nproc:  nproc,
		kv:     abi.NewMapKV(),
		bins:   make(map[string][]byte, len(moduleNames)),
		pools:  make(map[string][]request, len(w.apps)),
		served: make(chan error, 1),
	}
	for _, name := range moduleNames {
		a := appByName(name)
		if a == nil {
			return nil, fmt.Errorf("no app named %s", name)
		}
		res, err := wcc.Compile(a.Source, wcc.Options{HeapBytes: a.HeapBytes, Data: a.Data})
		if err != nil {
			return nil, fmt.Errorf("wcc %s: %w", name, err)
		}
		sys.bins[name] = res.Binary
	}
	workers := nproc
	if w.oneWorker {
		workers = 1
	}
	sys.rt = core.New(core.Config{
		Workers:   workers,
		Quantum:   5 * time.Millisecond,
		KV:        sys.kv,
		MaxConns:  1024,
		Admission: &admission.Config{},
	})
	for _, name := range moduleNames {
		if _, err := sys.rt.RegisterWasm(name, sys.bins[name], "main"); err != nil {
			sys.rt.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.rt.Close()
		return nil, err
	}
	sys.addr = ln.Addr().String()
	go func() { sys.served <- sys.rt.Serve(ln) }()

	for _, app := range w.apps {
		sys.pools[app] = sys.makePool(app, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	sys.deploys = make([][]int, poolSize)
	for i := range sys.deploys {
		sys.deploys[i] = rng.Perm(len(moduleNames))
	}

	// Set-up ends when the first request has been answered: only then is
	// the listener known to be serving (and safe to close).
	c := newClient(sys.addr)
	defer c.close()
	c.setDeadline(time.Now().Add(10 * time.Second))
	first := &sys.pools[w.primary][0]
	if err := c.roundTrip(first.wire, first.want); err != nil {
		sys.close()
		return nil, fmt.Errorf("first request to %s: %w", w.primary, err)
	}
	return sys, nil
}

// close stops the listener and the workers and waits for Serve to return.
func (sys *system) close() error {
	err := sys.rt.Close()
	if serr := <-sys.served; err == nil {
		err = serr
	}
	return err
}

// makePool builds the app's seeded payloads and asks the native oracle for
// the reply to each. The stream depends on the seed and the app only, so a
// workload's inputs do not change when another workload is added.
func (sys *system) makePool(app string, seed int64) []request {
	h := fnv.New64a()
	h.Write([]byte(app))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	a := appByName(app)
	pool := make([]request, poolSize)
	for i := range pool {
		body, want := sys.payload(a, rng, i)
		pool[i] = request{app: app, body: body, want: want, wire: appendRequest(nil, app, -1, body)}
	}
	return pool
}

func (sys *system) payload(a *apps.App, rng *rand.Rand, i int) (body, want []byte) {
	switch a.Name {
	case "ping":
		// No input: the pool is 64 copies of the empty request.
	case "echo":
		body = make([]byte, 1<<10)
		rng.Read(body)
	case "gps-ekf":
		body = apps.EKFRequest()
		for k := 0; k < 4; k++ { // the four measurements follow the 576-byte state
			binary.LittleEndian.PutUint64(body[576+8*k:], math.Float64bits(2*rng.Float64()))
		}
	case "gocr":
		body = permuteCells(a, rng)
	case "cifar10":
		body = apps.CIFARRequest(rng.Intn(1 << 16))
	case "spin":
		body = apps.SpinRequest(1000)
	case "fetch":
		// The oracle for fetch is the store itself, seeded here.
		body = []byte(fmt.Sprintf("obj-%02d", i))
		want = make([]byte, 256)
		rng.Read(want)
		sys.kv.Set(string(body), want)
		return body, want
	default:
		body = a.GenRequest()
	}
	return body, a.Native(body)
}

// permuteCells shuffles the character cells of the app's stock OCR raster
// (w, h, then w*h pixels, one fixed-width cell per character), giving a
// different digit string of the same length and so the same amount of work.
func permuteCells(a *apps.App, rng *rand.Rand) []byte {
	base := a.GenRequest()
	w := int(binary.LittleEndian.Uint32(base[0:]))
	h := int(binary.LittleEndian.Uint32(base[4:]))
	chars := len(a.Native(base))
	cell := w / chars
	out := append([]byte(nil), base...)
	for dst, src := range rng.Perm(chars) {
		for r := 0; r < h; r++ {
			copy(out[8+r*w+dst*cell:8+r*w+(dst+1)*cell], base[8+r*w+src*cell:])
		}
	}
	return out
}
