# Tier-1 gate and developer shortcuts.
#
# `make check` is the full gate: formatting, vet, build, the whole test
# suite under the race detector (the engine and fleet exercise real
# concurrency, so the race pass is load-bearing, not ceremonial), and then
# only gates that run in a different mode from that pass: the analyzers,
# the allocation gates (the zero-allocation steady-state pins skip under
# -race, so they get a plain-build pass of their own), a few seconds of
# fuzzing, a one-iteration short-mode bench smoke, the bench/ module, and
# the shard-scaling gate. ckptsmoke, mergesmoke, faultgate and storegate
# are `-run` filters over packages the race pass already runs in full:
# they stay as fast inner-loop targets and are not part of `check`.
# `make test` is the quicker ROADMAP tier-1 (build + tests without -race).

GO ?= go
GOFMT ?= gofmt

.PHONY: check test build fmt vet race bench benchsmoke ckptsmoke allocgate sinkgate mergesmoke scalegate lintgate lint faultgate storegate fuzzsmoke benchgate

check: fmt vet build race lintgate allocgate sinkgate fuzzsmoke benchsmoke benchgate scalegate

# Fail (and list the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The project-invariant analyzers (internal/analysis): borrow-escape,
# no-alloc, wall-clock, deterministic-JSON, and SPSC-affinity checks over
# every //gamelens: directive in the tree. Zero findings required — an
# unknown directive key is itself a finding, and so is a function-level key
# (borrowed among them) on a type declaration. `make lint` is the inner-loop
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
# StageFeatureExtractor.Push, a warm launch window (LaunchAccumulator.Add,
# the slot closes it triggers and Finish) and the whole title decision over
# it, Forest.PredictProbaInto, Rollup.Observe (percentile sketch insertion
# included), Sketch.Add/Merge, packet.Summarize (accepting and rejecting),
# the packet filter's ObserveSummary (a pending, a rejected and a gaming hit,
# and an insert/Expire cycle), and a shard's steady-state consume of one
# batch — must measure 0 allocs/op; TestSnapshotAllocs pins the window
# checkpoint at the same count for a 40- and a 400-subscriber window. The
# same pass holds the three per-packet structures to their byte budgets by
# name (the `Size$$` tests): the filter's record ≤ 96 B, packet.Summary ≤ 48 B,
# the engine's ring entry ≤ 72 B — what one non-gaming five-tuple and one
# queued packet cost, i.e. the `background` workload's heap_b_per_key.
allocgate:
	$(GO) test -run 'Allocs$$|Size$$' -count=1 ./internal/mlkit ./internal/features ./internal/titleclass ./internal/stageclass ./internal/rollup ./internal/sketch ./internal/packet ./internal/flowdetect ./internal/engine

# The report-path allocation pins, same plain-build rule as allocgate: one
# full emitter drain — shard report rings → Sink + BatchSink → the window's
# one-lock Rollup.ObserveReports fold — and the Rollup.ObserveReports and
# Rollup.ObserveBatch folds on their own must each measure 0 allocs/op, so
# what a report costs stays the one struct its finalization allocates: a
# regression that puts an allocation on the delivery path fails CI by name
# rather than as a B/op drift in the bench trajectory.
sinkgate:
	$(GO) test -run 'TestEmitterDrainAllocs|TestRollupObserveReportsAllocs|TestRollupObserveBatchAllocs' -count=1 ./internal/engine ./internal/rollup

# A few seconds of native fuzzing per target, each on a differential
# property whose seed corpus also runs as a plain test in every `go test`;
# this step lets the mutator look past the seeds. FuzzSummarize: the ingest
# parser errs iff packet.Decode errs, and otherwise yields the summary the
# decode derives, its 40-byte tuple converting to the decode's canonical
# FlowKey and back without loss (seeds: every frame shape cut at every length).
# FuzzLaunchAccumulator: the streaming launch window, fed capture timestamps
# and payload lengths — negative, huge and regressing ones included — never
# panics, holds memory bounded by the packet count alone, and equals the
# batch reference over the packets its reordering contract counts (seeds:
# orderly, stray-stamped, backwards and slot-hopping launches).
# FuzzRestoreReencode: whatever checkpoint rollup.Restore accepts snapshots
# again to the bytes the reflection reference encoder writes, and Restore
# accepts those (seeds: real snapshots cut and bit-flipped).
# FuzzPartitionReencode: the same property for the archive's one partition
# decoder, store.ReadPartitionFile, against encodePartition (seeds: real
# sealed and compacted partitions cut and bit-flipped). FuzzLoadForest: a
# model file mlkit.LoadForest accepts for a feature width predicts over a
# zero vector of that width without hanging or panicking, and saves to a
# fixed point of load→save (seeds: saved forests cut and bit-flipped, and
# the hostile table — cycles, negative and out-of-range children, splits
# past the width, empty trees, leaves without a distribution). FuzzTable: the
# packet filter's flat flow table, driven by an op stream (observe, late
# observe, Remove, Expire, Attach, Reset over a few dozen five-tuples),
# equals the map-backed detector it replaced after every step and keeps its
# index and record array sound (seeds: random streams). The launch
# window's, the table's and the three loaders' inputs are KB-sized, so the
# minimizer is capped in executions — left at its 60 s default it spends the
# whole smoke shrinking the first interesting input.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSummarize$$' -fuzztime 5s ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzTable$$' -fuzztime 5s -fuzzminimizetime 200x ./internal/flowdetect
	$(GO) test -run '^$$' -fuzz '^FuzzLaunchAccumulator$$' -fuzztime 5s -fuzzminimizetime 200x ./internal/features
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreReencode$$' -fuzztime 5s -fuzzminimizetime 200x ./internal/rollup
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionReencode$$' -fuzztime 5s -fuzzminimizetime 200x ./internal/rollup/store
	$(GO) test -run '^$$' -fuzz '^FuzzLoadForest$$' -fuzztime 5s -fuzzminimizetime 200x ./internal/mlkit

# The benchmark harness lives in a module of its own (bench/, replacing
# gamelens with ../), so tier-1 neither builds nor runs it: this is where an
# internal/ API change that would stop it compiling — or fail its 1/16-scale
# workloads' output checks — fails locally instead of in the benchmark
# driver.
benchgate:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# The benchmark (BENCHMARK.json): four tap workloads, their end-to-end
# metrics and, with --trace 1, the per-layer cost table. Arguments pass
# through BENCHARGS, e.g. `make bench BENCHARGS="--workload steady --seed 1"`;
# bench/README.md has the options.
bench:
	bash bench/run.sh $(BENCHARGS)

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
