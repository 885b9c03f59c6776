// Package abi defines the Sledge serverless ABI: the host functions a
// function sandbox may import, and the per-sandbox Context they operate on.
//
// The paper routes function I/O through the POSIX layer (stdin carries the
// HTTP request body, stdout becomes the response body) backed by libuv's
// asynchronous event loops. This package reproduces that contract:
//
//	sledge.read(buf, len) -> n     consume the request body (stdin)
//	sledge.write(buf, len) -> n    append to the response body (stdout)
//	sledge.req_len() -> n          total request body size
//	sledge.output(ptr, len) -> n   declare the result region in linear
//	                               memory (pipeline zero-copy handoff)
//	sledge.input_len() -> n        alias of req_len for pipeline stages
//	sledge.kv_get / sledge.kv_set  cloud storage access; with an AsyncKV
//	                               backend these block the sandbox, which
//	                               waits on its own timer and resumes on
//	                               any worker
//	sledge.clock_ms / sledge.rand  deterministic time and randomness
//	math.exp/log/pow/sin/cos/atan2 host math kernel imports
package abi

import (
	"errors"
	"math"
	"sync"
	"time"

	"sledge/internal/engine"
	"sledge/internal/wasm"
)

// KVStore is the synchronous cloud-storage interface.
type KVStore interface {
	Get(key string) ([]byte, bool)
	Set(key string, val []byte)
}

// AsyncKV is a storage backend with simulated access latency: operations on
// it block the sandbox (engine.StatusBlocked) and are completed Latency
// later, reproducing the paper's cooperative blocking on libuv I/O. The
// sandbox gives up its worker for that span; no worker waits on it.
type AsyncKV interface {
	KVStore
	Latency() time.Duration
}

// Pending describes an in-flight asynchronous host operation. The blocked
// sandbox arms a timer for Wait; when it fires, the scheduler calls
// Complete and hands the sandbox, resumed with the returned value, to a
// worker. Wait is also the span the sandbox reports as blocked, so the
// host call reads no clock.
type Pending struct {
	// Wait is how long the operation takes: the AsyncKV latency.
	Wait time.Duration
	// Complete performs the deferred effect (e.g. writing the fetched
	// value into sandbox memory) and returns the host call's result. It
	// runs on the timer's goroutine, never concurrently with the sandbox.
	Complete func() uint64
}

// Context is the per-sandbox ABI state, attached to engine.Instance.HostData.
type Context struct {
	// Request is the HTTP request body presented as stdin.
	Request []byte
	// Response accumulates the function's stdout, sent as the HTTP
	// response body.
	Response []byte

	// KV is the storage backend; nil means storage calls fail with -1.
	KV KVStore

	// Now supplies the clock for sledge.clock_ms; defaults to wall time.
	Now func() time.Time

	// Pending is the in-flight async operation, set when a host call
	// returned engine.ErrHostBlock. The scheduler consumes it.
	Pending *Pending

	// OutputPtr/OutputLen record the function's declared result region in
	// its own linear memory (sledge.output). When OutputSet is true the
	// region supersedes Response as the function result: a pipeline
	// executor hands the region to the next stage with zero serialization
	// (the single copy between instance memories happens when the next
	// stage sledge.reads it), and the HTTP path serves it directly.
	OutputPtr uint32
	OutputLen uint32
	OutputSet bool

	// MaxHandoffBytes bounds one declared output region; 0 means
	// DefaultMaxHandoffBytes. Oversized declarations fail the host call
	// with ErrHandoffTooLarge, trapping the sandbox.
	MaxHandoffBytes uint32

	readPos   int
	randState uint32
}

// NewContext builds a Context for one request.
func NewContext(request []byte) *Context {
	return &Context{Request: request, randState: 0x9E3779B9}
}

// Reset rebinds the context to a new request, keeping the Response buffer's
// capacity so a recycled sandbox accumulates output without reallocating.
func (c *Context) Reset(request []byte) {
	c.Request = request
	c.Response = c.Response[:0]
	c.KV = nil
	c.Now = nil
	c.Pending = nil
	c.OutputPtr = 0
	c.OutputLen = 0
	c.OutputSet = false
	c.MaxHandoffBytes = 0
	c.readPos = 0
	c.randState = 0x9E3779B9
}

// SetRandSeed makes sledge.rand deterministic per sandbox.
func (c *Context) SetRandSeed(seed uint32) {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	c.randState = seed
}

// TakePending returns and clears the in-flight async operation.
func (c *Context) TakePending() *Pending {
	p := c.Pending
	c.Pending = nil
	return p
}

// ErrNoContext reports a sandbox executing ABI host calls without a Context.
var ErrNoContext = errors.New("abi: instance has no abi.Context in HostData")

func ctxOf(inst *engine.Instance) (*Context, error) {
	c, ok := inst.HostData.(*Context)
	if !ok || c == nil {
		return nil, ErrNoContext
	}
	return c, nil
}

var (
	i32     = wasm.ValI32
	i64     = wasm.ValI64
	f64v    = wasm.ValF64
	sig     = func(p []wasm.ValType, r []wasm.ValType) wasm.FuncType { return wasm.FuncType{Params: p, Results: r} }
	unaryF  = sig([]wasm.ValType{f64v}, []wasm.ValType{f64v})
	binaryF = sig([]wasm.ValType{f64v, f64v}, []wasm.ValType{f64v})
)

func mathFn1(f func(float64) float64) engine.HostDef {
	return engine.HostDef{
		Type: unaryF,
		Func: func(_ *engine.Instance, args []uint64) (uint64, error) {
			return math.Float64bits(f(math.Float64frombits(args[0]))), nil
		},
	}
}

func mathFn2(f func(a, b float64) float64) engine.HostDef {
	return engine.HostDef{
		Type: binaryF,
		Func: func(_ *engine.Instance, args []uint64) (uint64, error) {
			return math.Float64bits(f(math.Float64frombits(args[0]), math.Float64frombits(args[1]))), nil
		},
	}
}

// Registry returns the host registry implementing the full Sledge ABI.
// The registry is stateless; per-request state lives in each sandbox's
// Context.
func Registry() engine.HostRegistry {
	return engine.HostRegistry{
		"math": {
			"exp":   mathFn1(math.Exp),
			"log":   mathFn1(math.Log),
			"pow":   mathFn2(math.Pow),
			"sin":   mathFn1(math.Sin),
			"cos":   mathFn1(math.Cos),
			"atan2": mathFn2(math.Atan2),
		},
		"sledge": {
			"read": {
				Type: sig([]wasm.ValType{i32, i32}, []wasm.ValType{i32}),
				Func: hostRead,
			},
			"write": {
				Type: sig([]wasm.ValType{i32, i32}, []wasm.ValType{i32}),
				Func: hostWrite,
			},
			"req_len": {
				Type: sig(nil, []wasm.ValType{i32}),
				Func: hostReqLen,
			},
			"output": {
				Type: sig([]wasm.ValType{i32, i32}, []wasm.ValType{i32}),
				Func: hostOutput,
			},
			"input_len": {
				Type: sig(nil, []wasm.ValType{i32}),
				Func: hostReqLen,
			},
			"kv_get": {
				Type: sig([]wasm.ValType{i32, i32, i32, i32}, []wasm.ValType{i32}),
				Func: hostKVGet,
			},
			"kv_set": {
				Type: sig([]wasm.ValType{i32, i32, i32, i32}, []wasm.ValType{i32}),
				Func: hostKVSet,
			},
			"clock_ms": {
				Type: sig(nil, []wasm.ValType{i64}),
				Func: hostClockMS,
			},
			"rand": {
				Type: sig(nil, []wasm.ValType{i32}),
				Func: hostRand,
			},
		},
	}
}

func hostRead(inst *engine.Instance, args []uint64) (uint64, error) {
	c, err := ctxOf(inst)
	if err != nil {
		return 0, err
	}
	buf, err := inst.MemRange(uint32(args[0]), uint32(args[1]))
	if err != nil {
		return 0, err
	}
	n := copy(buf, c.Request[c.readPos:])
	c.readPos += n
	return uint64(uint32(n)), nil
}

func hostWrite(inst *engine.Instance, args []uint64) (uint64, error) {
	c, err := ctxOf(inst)
	if err != nil {
		return 0, err
	}
	buf, err := inst.MemRange(uint32(args[0]), uint32(args[1]))
	if err != nil {
		return 0, err
	}
	c.Response = append(c.Response, buf...)
	return uint64(uint32(len(buf))), nil
}

func hostReqLen(inst *engine.Instance, _ []uint64) (uint64, error) {
	c, err := ctxOf(inst)
	if err != nil {
		return 0, err
	}
	return uint64(uint32(len(c.Request))), nil
}

func hostKVGet(inst *engine.Instance, args []uint64) (uint64, error) {
	c, err := ctxOf(inst)
	if err != nil {
		return 0, err
	}
	if c.KV == nil {
		return neg1, nil
	}
	keyBuf, err := inst.MemRange(uint32(args[0]), uint32(args[1]))
	if err != nil {
		return 0, err
	}
	key := string(keyBuf)
	valPtr, valMax := uint32(args[2]), uint32(args[3])

	fetch := func() uint64 {
		val, ok := c.KV.Get(key)
		if !ok {
			return neg1
		}
		dst, err := inst.MemRange(valPtr, valMax)
		if err != nil {
			return neg1
		}
		return uint64(uint32(copy(dst, val)))
	}

	if akv, ok := c.KV.(AsyncKV); ok {
		c.Pending = &Pending{Wait: akv.Latency(), Complete: fetch}
		return 0, engine.ErrHostBlock
	}
	return fetch(), nil
}

func hostKVSet(inst *engine.Instance, args []uint64) (uint64, error) {
	c, err := ctxOf(inst)
	if err != nil {
		return 0, err
	}
	if c.KV == nil {
		return neg1, nil
	}
	keyBuf, err := inst.MemRange(uint32(args[0]), uint32(args[1]))
	if err != nil {
		return 0, err
	}
	valBuf, err := inst.MemRange(uint32(args[2]), uint32(args[3]))
	if err != nil {
		return 0, err
	}
	key := string(keyBuf)
	val := append([]byte(nil), valBuf...)

	store := func() uint64 {
		c.KV.Set(key, val)
		return uint64(uint32(len(val)))
	}
	if akv, ok := c.KV.(AsyncKV); ok {
		c.Pending = &Pending{Wait: akv.Latency(), Complete: store}
		return 0, engine.ErrHostBlock
	}
	return store(), nil
}

const neg1 = uint64(0xFFFFFFFF)

func hostClockMS(inst *engine.Instance, _ []uint64) (uint64, error) {
	c, err := ctxOf(inst)
	if err != nil {
		return 0, err
	}
	now := time.Now
	if c.Now != nil {
		now = c.Now
	}
	return uint64(now().UnixMilli()), nil
}

func hostRand(inst *engine.Instance, _ []uint64) (uint64, error) {
	c, err := ctxOf(inst)
	if err != nil {
		return 0, err
	}
	// xorshift32: deterministic per-sandbox pseudo-randomness.
	x := c.randState
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	c.randState = x
	return uint64(x), nil
}

// MapKV is a simple in-memory KVStore, safe for concurrent use by worker
// cores.
type MapKV struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMapKV returns an empty in-memory store.
func NewMapKV() *MapKV { return &MapKV{m: make(map[string][]byte)} }

// Get implements KVStore.
func (s *MapKV) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	return v, ok
}

// Set implements KVStore.
func (s *MapKV) Set(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
}

// LatentKV wraps a KVStore with a fixed simulated access latency, making
// every operation asynchronous.
type LatentKV struct {
	KVStore
	Delay time.Duration
}

// Latency implements AsyncKV.
func (s *LatentKV) Latency() time.Duration { return s.Delay }
