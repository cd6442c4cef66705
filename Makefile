# Tier-1 gate and developer shortcuts.
#
# `make check` is the full gate: formatting, vet, build, the whole test
# suite under the race detector (the engine and fleet exercise real
# concurrency, so the race pass is load-bearing, not ceremonial), the
# allocation gate (the zero-allocation steady-state pins skip under -race,
# so they get a plain-build pass of their own), and a one-iteration
# short-mode bench smoke so the lifecycle/engine benchmarks keep compiling
# and running in CI. `make test` is the quicker ROADMAP tier-1 (build +
# tests without -race) for inner-loop runs.

GO ?= go
GOFMT ?= gofmt

# The bench target pipes `go test` into benchjson; without pipefail a
# failing benchmark (including BenchmarkSteadyState's shard-equivalence
# pre-check) would be masked by the converter's zero exit.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: check test build fmt vet race bench benchsmoke ckptsmoke allocgate sinkgate mergesmoke scalegate lintgate lint faultgate storegate fuzzsmoke benchgate

check: fmt vet build race lintgate allocgate sinkgate fuzzsmoke benchsmoke benchgate ckptsmoke mergesmoke scalegate faultgate storegate

# Fail (and list the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The project-invariant analyzers (internal/analysis): borrow-escape,
# no-alloc, wall-clock, deterministic-JSON, and SPSC-affinity checks over
# every //gamelens: directive in the tree. Zero findings required — an
# unknown directive key is itself a finding. `make lint` is the inner-loop
# alias; editors can run the same suite in-place with
# `go vet -vettool=$$(which gamelensvet) ./...` after `go install
# ./cmd/gamelensvet`.
lintgate:
	$(GO) run ./cmd/gamelensvet ./...

lint: lintgate

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The steady-state allocation pins, run without -race (the race build
# allocates on paths the production build does not, so the counts are only
# meaningful plain). Every pinned path — Tracker.Push,
# StageFeatureExtractor.Push, Forest.PredictProbaInto, Rollup.Observe
# (percentile sketch insertion included), Sketch.Add/Merge, packet.Summarize
# (accepting and rejecting), and a shard's steady-state consume of one
# batch — must measure 0 allocs/op.
allocgate:
	$(GO) test -run 'Allocs$$' -count=1 ./internal/mlkit ./internal/features ./internal/stageclass ./internal/rollup ./internal/sketch ./internal/packet ./internal/engine

# The report-path allocation pins, same plain-build rule as allocgate: one
# full emitter drain — shard report rings → Sink + BatchSink → sharded
# rollup fold → recycle rings — and one Rollup.ObserveBatch fold must both
# measure 0 allocs/op, so a regression that puts an allocation back on the
# per-report emission path fails CI by name rather than as a B/op drift in
# the bench trajectory.
sinkgate:
	$(GO) test -run 'TestEmitterDrainAllocs|TestRollupObserveBatchAllocs' -count=1 ./internal/engine ./internal/rollup

# A few seconds of native fuzzing on the ingest parser's differential
# property: packet.Summarize errs iff packet.Decode errs, and otherwise
# yields the summary the decode derives. The seed corpus (every frame shape
# cut at every length) also runs as a plain test in every `go test`; this
# step lets the mutator look past it.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSummarize$$' -fuzztime 5s ./internal/packet

# The benchmark harness lives in a module of its own (bench/, replacing
# gamelens with ../), so tier-1 neither builds nor runs it: this is where an
# internal/ API change that would stop it compiling — or fail its 1/16-scale
# workloads' output checks — fails locally instead of in the benchmark
# driver.
benchgate:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# The engine scaling curve vs the single-threaded pipeline, the lifecycle
# memory-bound comparison, the rollup report-stream hot path, and the
# full-path steady-state benchmark. Fixed methodology: -benchtime 3x
# -count 3, and benchjson keeps each benchmark's fastest run (min-of-N is
# the standard noise filter — the fastest run is the least
# scheduler-disturbed) plus a _meta entry recording GOMAXPROCS and the CPU
# count the numbers are conditional on. Results land in BENCH_8.json
# (benchmark → ns/op, B/op, allocs/op, custom metrics) so the perf
# trajectory is machine-readable across PRs. BenchmarkEmitterDrain (in
# internal/engine; benchjson folds the multi-package stream into one file)
# isolates the per-report emission cost — ring pop → sinks → rollup fold →
# recycle — whose reports/s and B/op track the lock-free report path.
# BenchmarkStoreSealCompact (internal/rollup/store) measures the archive's
# full ingest→seal→compact→GC cycle on a fresh directory per iteration.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineShards|BenchmarkPipelineEviction|BenchmarkRollupIngest|BenchmarkSteadyState|BenchmarkEmitterDrain|BenchmarkStoreSealCompact' -benchmem -benchtime 3x -count 3 . ./internal/engine ./internal/rollup/store | $(GO) run ./cmd/benchjson -o BENCH_8.json

# One cheap iteration of the lifecycle, rollup and steady-state benches in
# short mode: a CI smoke that the bench code compiles and its invariants
# (report counts, shard equivalence, bounded detector) hold, without
# bench-grade cost.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineEviction|BenchmarkRollupIngest|BenchmarkSteadyState' -benchtime 1x -short .

# Rollup checkpoint round-trip smoke: the snapshot→restore→snapshot
# identity and the restart-resume equivalence, standalone and fast, so a
# broken checkpoint format fails CI in seconds rather than deep in the
# race matrix.
ckptsmoke:
	$(GO) test -run 'TestCheckpoint|TestAtomic' -count=1 ./internal/rollup ./internal/persist

# Multi-monitor merge smoke, end to end: the rollupmerge CLI folds two
# per-tap checkpoint files into a fleet view byte-identical to the
# single-tap run, and the library-level merge properties (partitioned
# byte-identity, overlap semantics, clock skew, geometry refusal) hold.
mergesmoke:
	$(GO) test -run 'TestRollupMerge|TestMerge|TestCountsMerge' -count=1 ./cmd/rollupmerge ./internal/rollup

# Crash-safety gate, short mode: the deterministic fault-injection suite —
# an injected ENOSPC that the checkpointer's bounded retry absorbs, a
# crash-restore round trip that recovers the newest valid generation (and
# falls back past a torn one), and the CLI contract that a final
# checkpoint failure exits non-zero with the error named. All faults come
# from internal/faultinject plans, so a failure replays exactly.
faultgate:
	$(GO) test -run 'TestFaultGate' -count=1 -short ./internal/rollup ./internal/faultinject ./cmd/classify

# Tiered-archive gate, short mode: the seal→compact→query round trip and
# the lossless-compaction property — a day partition byte-identical to the
# merge of its constituent hours, queries over live+archive equal to the
# unbounded reference — plus shard-grouping invariance (1..8), resume round
# trips, GC watermark coverage, and the store's torn-write/ENOSPC fault
# plans (TestStoreGate* includes the store fault tests).
storegate:
	$(GO) test -run 'TestStoreGate' -count=1 -short ./internal/rollup/store

# Shard-scaling inversion gate: replaying the bench capture with
# shards=GOMAXPROCS must not fall below 0.9x the single-shard run (the
# regression class this guards: a serialized handoff making more shards
# slower). Skips itself on a single-core box, where there is no
# parallelism to gate on.
scalegate:
	SCALEGATE=1 $(GO) test -run 'TestShardScaleGate' -count=1 -v .
