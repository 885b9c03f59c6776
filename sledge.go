// Package sledge is the public API of the Sledge reproduction: a
// serverless-first, light-weight WebAssembly runtime for the edge
// (Gadepalli et al., Middleware '20), implemented from scratch in Go.
//
// The runtime executes multi-tenant serverless functions as Wasm sandboxes
// inside a single process:
//
//	rt := sledge.New(sledge.Config{Workers: 4})
//	defer rt.Close()
//	rt.RegisterWCC("hello", src, sledge.WCCOptions{})
//	resp, err := rt.Invoke("hello", []byte("world"))   // or rt.ListenAndServe(":8080")
//
// Functions are written in WCC (a small C-like language, see internal/wcc)
// or provided as WebAssembly binaries, compiled ahead of time — once, at
// registration, with the runtime's one engine configuration — and
// instantiated per request in microseconds. Scheduling is
// preemptive round-robin over per-worker run queues with work stealing,
// reproducing the paper's decoupling of work distribution from temporal
// isolation.
//
// The packages under internal/ contain the substrates: the Wasm binary
// toolchain (internal/wasm), the execution engine with configurable
// bounds-check strategies (internal/engine), the WCC compiler
// (internal/wcc), the scheduler (internal/sched), the serverless ABI
// (internal/abi), the workload suites (internal/workloads/...), the
// process-model baseline (internal/nuclio), and the paper-experiment
// drivers (internal/experiments).
package sledge

import (
	"sledge/internal/abi"
	"sledge/internal/admission"
	"sledge/internal/cluster"
	"sledge/internal/core"
	"sledge/internal/engine"
	"sledge/internal/sched"
	"sledge/internal/wcc"
)

// Core runtime types.
type (
	// Runtime is the single-process serverless runtime.
	Runtime = core.Runtime
	// Config configures a Runtime.
	Config = core.Config
	// Module is a registered function.
	Module = core.Module
)

// Function composition (internal/core/pipeline.go): RegisterPipeline names
// an ordered module chain, invocable at POST /p/<name> or
// Invoke("p/<name>"). One admission ticket and one deadline cover the whole
// chain; co-located stages hand intermediate results through shared
// linear-memory buffers (a stage declares its result region with the
// sledge.output host call and the next stage consumes it zero-copy) instead
// of HTTP self-calls, and each continuation is scheduled with affinity for
// the worker whose cache just produced its input. See docs/PIPELINES.md.
type (
	// Pipeline is a registered module chain.
	Pipeline = core.Pipeline
	// PipelineStats is a pipeline's accounting snapshot.
	PipelineStats = core.PipelineStats
)

// PipelinePrefix is the reserved invocation-name prefix for pipelines
// ("p/"); module names must not start with it.
const PipelinePrefix = core.PipelinePrefix

// ErrNoPipeline reports an unknown pipeline name.
var ErrNoPipeline = core.ErrNoPipeline

// BoundsStrategy selects the memory-safety mechanism every module is
// compiled with (Config.Bounds), the one sandboxing choice the paper
// offers.
type BoundsStrategy = engine.BoundsStrategy

// Bounds-check strategies (see the paper's §3.2).
const (
	BoundsGuard         = engine.BoundsGuard
	BoundsSoftware      = engine.BoundsSoftware
	BoundsSoftwareFused = engine.BoundsSoftwareFused
	BoundsMPX           = engine.BoundsMPX
	BoundsNone          = engine.BoundsNone
)

// SchedPolicy selects preemptive vs cooperative scheduling.
type SchedPolicy = sched.Policy

// Scheduling policies (§3.4).
const (
	PolicyPreemptiveRR = sched.PolicyPreemptiveRR
	PolicyCooperative  = sched.PolicyCooperative
)

// DefaultQuantum is the paper's 5 ms preemption time slice.
const DefaultQuantum = sched.DefaultQuantum

// WCCOptions configures WCC compilation at registration.
type WCCOptions = wcc.Options

// Admission control & overload management (internal/admission): per-tenant
// fair queueing, token-bucket rate limits, deadline-aware shedding, and
// per-module circuit breakers between the listener and the scheduler.
// Enable by setting Config.Admission; shut down with Runtime.Drain.
type (
	// AdmissionConfig configures the admission controller.
	AdmissionConfig = admission.Config
	// TenantConfig sets one tenant's DRR weight and rate limit.
	TenantConfig = admission.TenantConfig
	// BreakerConfig configures the per-module circuit breaker.
	BreakerConfig = admission.BreakerConfig
	// AdmissionRejection is the typed error for shed requests (429/503
	// with a Retry-After hint).
	AdmissionRejection = admission.Rejection
)

// Cluster tier (internal/cluster): a router front end that federates N
// runtimes as edge/cloud nodes with injected link latencies, places each
// request by link latency + modeled queue wait + service estimate, and
// offloads admission rejections to the next-best peer within the deadline
// instead of shedding (with hedged dispatch past the p99 budget). Serve it
// like a runtime: NewCluster(...), Register nodes, then Serve/Drain.
type (
	// ClusterRouter is the federated front tier over registered nodes.
	ClusterRouter = cluster.Router
	// ClusterConfig configures routing: poll interval, default deadline
	// and estimate, hedging thresholds.
	ClusterConfig = cluster.Config
	// ClusterNodeConfig declares one node: name, class, link latency, and
	// the member runtime.
	ClusterNodeConfig = cluster.NodeConfig
	// NodeClass labels a node's position on the continuum.
	NodeClass = cluster.Class
	// ClusterSnapshot is the router's accounting view (/__cluster).
	ClusterSnapshot = cluster.Snapshot
)

// Node classes.
const (
	ClassEdge  = cluster.ClassEdge
	ClassCloud = cluster.ClassCloud
)

// NewCluster starts a cluster router with no nodes registered.
func NewCluster(cfg ClusterConfig) *ClusterRouter { return cluster.New(cfg) }

// ParseNodeClass parses "edge" (or "") and "cloud".
func ParseNodeClass(s string) (NodeClass, error) { return cluster.ParseClass(s) }

// Storage backends for the serverless ABI's kv interface.
type (
	// KVStore is the synchronous storage interface.
	KVStore = abi.KVStore
	// MapKV is an in-memory store.
	MapKV = abi.MapKV
	// LatentKV wraps a store with simulated access latency, making
	// operations asynchronous (sandboxes block, and any worker resumes
	// them when the latency has passed).
	LatentKV = abi.LatentKV
)

// NewMapKV returns an empty in-memory KV store.
func NewMapKV() *MapKV { return abi.NewMapKV() }

// New starts a Sledge runtime.
func New(cfg Config) *Runtime { return core.New(cfg) }
