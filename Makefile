GO ?= go

.PHONY: check fmt vet analyzers build test-race benchmark-check bench-smoke cold-smoke overload-smoke fuzz-smoke sched-smoke tierup-smoke cluster-smoke meter-smoke warm-smoke chain-smoke test bench bench-sched bench-tierup bench-cluster bench-meter bench-warm bench-chain

# check is the pre-merge gate: formatting (gofmt -l prints nothing), static
# analysis (go vet plus the project
# analyzers: noalloc hot-path enforcement, mutex-copy and lock-ordering,
# atomicfield mixed atomic/plain access detection), a
# full build, the race detector over the concurrency-sensitive packages
# (the whole engine with the application suite's tests of it — the dispatch
# budget and the wasm-equals-native identity — the scheduler, the analysis
# passes with their pooled scratch and the wasm decoder, all shuffled;
# admission control, HTTP drain), vet and
# tests of the repo benchmark's own module (which compiles against the
# scheduler, sandbox and runtime types and is outside `go test ./...`), a
# short churn-benchmark smoke run (allocs/op regressions show up immediately in
# its -benchmem output), a cold-deploy smoke run (one register / first
# invoke / unregister cycle of the suite must allocate under 1 MiB: first
# instantiations reuse retired linear memories through the slab recycler),
# an overload smoke run (admission at 2x capacity
# must shed cleanly: admitted error rate < 1%), a scheduler scale-out smoke
# run (every workers x distribution cell completes its closed loop), a
# metering smoke run (block-metered and per-instruction runs charge
# bit-identical gas under preemptive slicing), a warm-start smoke run
# (snapshot first invoke beats start replay, the bounded module cache
# holds goodput while evicting), a function-composition smoke run (the
# co-located pipeline beats the HTTP self-call chain with bit-identical
# replies and gas), and fuzz smokes, each a fixed number of executions so
# two runs do the same work: a differential fuzz of the
# check-elision pipeline (every bounds strategy with elision on/off, in
# both metering modes, must produce identical results, traps, and gas) and
# a hostile-input fuzz of the sledge.output handoff host call (arbitrary
# ptr/len must trap or stay in bounds).
check: fmt vet analyzers build test-race benchmark-check bench-smoke cold-smoke overload-smoke sched-smoke tierup-smoke cluster-smoke meter-smoke warm-smoke chain-smoke fuzz-smoke

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

analyzers:
	$(GO) run ./tools/analyzers ./internal/... ./cmd/... ./tools/... .

build:
	$(GO) build ./...

test-race:
	$(GO) test -race ./internal/sandbox/... ./internal/core/... \
		./internal/admission/... ./internal/httpd/... ./internal/cluster/... ./internal/stats/...
	$(GO) test -race -shuffle=on ./internal/sched/...
	$(GO) test -race -shuffle=on ./internal/engine/ ./internal/workloads/apps/
	$(GO) test -race -shuffle=on ./internal/analysis/ ./internal/wasm/

# benchmark-check: benchmark/ is a module of its own (BENCHMARK.json runs
# it with benchmark/run.sh), so the root build and tests never compile it;
# this is what notices when a change to Pool, Sandbox or Runtime breaks it.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench-smoke:
	$(GO) test -run=NONE -bench=Churn -benchtime=100x -benchmem .

# cold-smoke gates the bytes one BenchmarkColdDeploy cycle allocates (a
# count, so it repeats): 6.9 MB without the slab recycler, 1.26 MB with it,
# 0.51 MB once the memory-safety pass stopped cloning its state, 0.46 MB once
# register lowering rewrote the lowered stream in place; limit 1 MiB.
cold-smoke:
	$(GO) test -run=TestColdDeploySmoke -count=1 -v .

overload-smoke:
	$(GO) test -run=TestOverloadSmoke -count=1 ./internal/experiments/

# sched-smoke runs the scheduler scale-out sweep at quick sizes (all
# distribution modes complete + snapshot plumbing); the acceptance-grade
# numbers come from `make bench-sched`, which regenerates BENCH_sched.json
# across Workers x {work-stealing, global-deque, global-lock, static}.
sched-smoke:
	$(GO) test -run=TestSchedBenchSmoke -count=1 ./internal/experiments/

bench-sched:
	$(GO) run ./cmd/sledge-bench -run sched -snapshot BENCH_sched.json

# tierup-smoke runs the adaptive-tiering benchmark at quick sizes (both
# halves complete, every response bit-identical across tier swaps, cheap
# rungs strictly faster to register); the acceptance-grade numbers come
# from `make bench-tierup`, which regenerates BENCH_tierup.json: the
# 10k-module registration storm and the Zipf time-to-peak-throughput sweep.
tierup-smoke:
	$(GO) test -run=TestTierupSmoke -count=1 ./internal/experiments/

bench-tierup:
	$(GO) run ./cmd/sledge-bench -run tierup -snapshot BENCH_tierup.json

# cluster-smoke runs the edge-cloud continuum end-to-end under the race
# detector at quick sizes: the 3-node in-process cluster comes up, the
# offload path is exercised (router offloads > 0 under overload), and
# federated goodput beats the isolated spray. The acceptance-grade numbers
# (federated >= 1.3x isolated at 2x aggregate load, admitted p99 within
# deadline) come from `make bench-cluster`, which regenerates
# BENCH_cluster.json at full sizes.
cluster-smoke:
	$(GO) test -race -run=TestContinuumSmoke -count=1 ./internal/experiments/

bench-cluster:
	$(GO) run ./cmd/sledge-bench -run cluster -snapshot BENCH_cluster.json

# meter-smoke runs the basic-block fuel-metering ablation at quick sizes
# (both metering modes complete every kernel under preemptive slicing with
# bit-identical gas); the acceptance-grade number (PolyBench geomean
# speedup > 1.0 over the per-instruction oracle) comes from
# `make bench-meter`, which regenerates BENCH_meter.json at full sizes.
meter-smoke:
	$(GO) test -run=TestMeterSmoke -count=1 ./internal/experiments/

bench-meter:
	$(GO) run ./cmd/sledge-bench -run meter -snapshot BENCH_meter.json

# warm-smoke runs the warm-start benchmark at quick sizes (snapshot first
# invoke >= 5x over start-function replay, budgeted fleet churns its cache
# without collapsing goodput, every reply validated); the acceptance-grade
# numbers (>= 5x first invoke, budgeted goodput >= 0.9x unbounded over the
# 10k-module fleet with steady RSS) come from `make bench-warm`, which
# regenerates BENCH_warm.json at full sizes.
warm-smoke:
	$(GO) test -run=TestWarmSmoke -count=1 ./internal/experiments/

bench-warm:
	$(GO) run ./cmd/sledge-bench -run warm -snapshot BENCH_warm.json

# chain-smoke runs the function-composition benchmark at quick sizes (the
# registered pipeline and the HTTP self-call chain return bit-identical
# replies and per-stage gas, the zero-copy handoff path is exercised, and
# the co-located pipeline clearly wins); the acceptance-grade number
# (pipeline p50 >= 3x faster than HTTP self-call) comes from
# `make bench-chain`, which regenerates BENCH_chain.json at full sizes.
chain-smoke:
	$(GO) test -run=TestChainSmoke -count=1 ./internal/experiments/

bench-chain:
	$(GO) run ./cmd/sledge-bench -run chain -snapshot BENCH_chain.json

# fuzz-smoke runs a fixed number of executions, not a wall-clock budget: 30 s
# of FuzzDifferentialElision was anywhere from 0.58 to 1.07 M executions
# between runs of one tree, which made "no divergence" incomparable across
# changes. 800 000 and 400 000 are about what 30 s and 15 s bought.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDifferentialElision -fuzztime=800000x ./internal/engine/
	$(GO) test -run=NONE -fuzz=FuzzOutputHostCall -fuzztime=400000x ./internal/abi/

test:
	$(GO) test ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem .
