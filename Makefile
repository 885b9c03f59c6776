GO ?= go

.PHONY: check fmt vet analyzers build test-race benchmark-check bench-smoke cold-smoke overload-smoke fuzz-smoke cluster-smoke chain-smoke cold-bench test bench bench-cluster bench-chain

# check is the pre-merge gate: formatting (gofmt -l prints nothing), static
# analysis (go vet plus the project
# analyzers: noalloc hot-path enforcement, mutex-copy and lock-ordering,
# atomicfield mixed atomic/plain access detection), a
# full build, the race detector over the concurrency-sensitive packages
# (the runtime core and the cluster router, the whole engine with the
# application suite's tests of it — the dispatch budget and the
# wasm-equals-native identity — the scheduler, the sandbox and the ABI,
# whose pending I/O crosses to the sandbox's timer goroutine, the analysis
# passes with their pooled scratch and the wasm decoder, all shuffled;
# admission control shuffled five times, like the scheduler; the HTTP server,
# whose connections have two writers once a reply is deferred, shuffled three
# times), vet and
# tests of the repo benchmark's own module (which compiles against the
# scheduler, sandbox and runtime types and is outside `go test ./...`), a
# short churn-benchmark smoke run (allocs/op regressions show up immediately in
# its -benchmem output), a cold-deploy smoke run (one register / first
# invoke / unregister cycle of the suite must allocate under 512 KiB: first
# instantiations reuse retired linear memories through the slab recycler),
# an overload smoke run (admission at 2x capacity
# must shed cleanly: admitted error rate < 1%), a function-composition
# smoke run (the
# co-located pipeline beats the HTTP self-call chain with bit-identical
# replies and gas), and fuzz smokes, each a fixed number of executions so
# two runs do the same work: a differential fuzz of the
# check-elision pipeline (every bounds strategy with elision on/off, in
# both metering modes, must produce identical results, traps, and gas), a
# hostile-input fuzz of the sledge.output handoff host call (arbitrary
# ptr/len must trap or stay in bounds), and a differential fuzz of the
# request parser against net/http over pipelined requests.
check: fmt vet analyzers build test-race benchmark-check bench-smoke cold-smoke overload-smoke cluster-smoke chain-smoke fuzz-smoke

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

analyzers:
	$(GO) run ./tools/analyzers ./internal/... ./cmd/... ./tools/... .

build:
	$(GO) build ./...

test-race:
	$(GO) test -race -shuffle=on ./internal/core/... ./internal/cluster/...
	$(GO) test -race -shuffle=on ./internal/sandbox/... ./internal/abi/
	$(GO) test -race -shuffle=on -count=3 ./internal/httpd/...
	$(GO) test -race ./internal/stats/...
	$(GO) test -race -shuffle=on -count=5 ./internal/admission/
	$(GO) test -race -shuffle=on -count=5 ./internal/sched/
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
# register lowering rewrote the lowered stream in place, 0.35 MB once the
# pass ran only where a bounds strategy reads it and the lowering scratch was
# pooled; limit 512 KiB. It also counts the runtime's slab recycler: every
# first instantiation of a warmed cycle is a hit, none a miss.
cold-smoke:
	$(GO) test -run=TestColdDeploySmoke -count=1 -v .

# cold-bench times the coldstart op in-process (register ten modules, first
# request to five, unregister): six runs of a fixed 1500 cycles, with B/op and
# allocs/op. A timing, so it is not part of check.
cold-bench:
	$(GO) test -run=NONE -bench='^BenchmarkColdDeploy$$' -benchtime=1500x -count=6 -benchmem .

overload-smoke:
	$(GO) test -run=TestOverloadSmoke -count=1 ./internal/experiments/

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

# chain-smoke runs the function-composition benchmark at quick sizes under
# the race detector, as cluster-smoke does: the pipeline executor runs
# in-process for the identity check and then under four concurrent
# clients over HTTP (POST /p/imgchain), against the HTTP self-call chain;
# both return bit-identical replies and per-stage gas, the zero-copy
# handoff path is exercised, and the co-located pipeline clearly wins. The
# acceptance-grade number (pipeline p50 >= 3x faster than HTTP self-call)
# comes from `make bench-chain`, which regenerates BENCH_chain.json at full
# sizes.
chain-smoke:
	$(GO) test -race -run=TestChainSmoke -count=1 ./internal/experiments/

bench-chain:
	$(GO) run ./cmd/sledge-bench -run chain -snapshot BENCH_chain.json

# fuzz-smoke runs a fixed number of executions, not a wall-clock budget: 30 s
# of FuzzDifferentialElision was anywhere from 0.58 to 1.07 M executions
# between runs of one tree, which made "no divergence" incomparable across
# changes. 800 000 and 400 000 are about what 30 s and 15 s bought.
# FuzzReadRequest's 200 000 take 20–30 s with minimizing capped at 1 000
# executions: ReadRequest allocates a declared Content-Length up front, so
# shrinking an input that declares megabytes otherwise takes most of a
# minute.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDifferentialElision -fuzztime=800000x ./internal/engine/
	$(GO) test -run=NONE -fuzz=FuzzOutputHostCall -fuzztime=400000x ./internal/abi/
	$(GO) test -run=NONE -fuzz=FuzzReadRequest -fuzztime=200000x -fuzzminimizetime=1000x ./internal/httpd/

test:
	$(GO) test ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem .
