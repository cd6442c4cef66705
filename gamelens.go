// Package gamelens classifies the context of cloud-game streaming sessions
// from passive network traffic — the game title within the first seconds of
// launch, the player activity stage (idle / passive / active) continuously,
// and the gameplay activity pattern — and uses those contexts to turn
// objective QoE measurements into effective QoE, after "Games Are Not Equal:
// Classifying Cloud Gaming Contexts for Effective User Experience
// Measurement" (ACM IMC 2025).
//
// The package is a thin facade over the implementation packages:
//
//   - internal/packet, internal/pcapio: wire formats (Ethernet/IP/UDP/RTP,
//     PCAP files)
//   - internal/flowdetect: the cloud-gaming packet filter
//   - internal/features: packet-group and volumetric attribute extraction
//   - internal/mlkit: random forests, SVM, KNN, metrics, importance
//   - internal/titleclass, internal/stageclass: the paper's two novel
//     classification processes
//   - internal/qoe: objective → effective QoE calibration
//   - internal/gamesim, internal/fleet: the lab and ISP-scale traffic
//     substrates standing in for the paper's datasets
//   - internal/core: the online Fig 6 pipeline
//   - internal/engine: the sharded multi-core front-end over the pipeline
//   - internal/rollup, internal/sketch, internal/persist: per-subscriber
//     sliding-window dashboard aggregates over the report stream —
//     including mergeable throughput/QoE percentile sketches — with
//     crash-safe JSON checkpoint/restore and multi-monitor merge
//
// # Concurrency model
//
// Pipeline is deliberately single-threaded: every structure it touches is
// per-flow, so there is nothing to lock, and one pipeline saturates one
// core. Engine is the multi-core deployment shape: it hash-partitions
// packets by canonical flow key across N shards (default GOMAXPROCS), each
// shard running its own Pipeline, and merges the per-shard session reports
// into one deterministic, sorted result. Packets enter only through
// EngineProducer handles (Engine.Producer), one per reader goroutine; the
// engine has no per-packet entry point of its own. The reader→shard
// handoff is lock-free: a producer owns a private single-producer/
// single-consumer batch ring to every shard plus a reverse ring recycling
// spent batches back, so the steady state moves no locks and no garbage —
// just two atomic word updates per batch. No frame byte crosses a lane:
// the method reads only the sizes, directions and timing of a flow's
// packets, so EngineProducer.HandleFrame parses the raw Ethernet frame
// once on the reader goroutine into a fixed-size summary (canonical
// five-tuple, direction, payload length, RTP probe) and a batch is a run
// of {timestamp, summary} values; the shard worker's per-packet work
// starts at the flow lookup. Because flows are independent and each flow's
// packets stay on one shard in arrival order, an N-shard Engine reports
// exactly what a single Pipeline would on the same capture — the property
// internal/engine's tests pin down. Use Pipeline for offline
// single-capture analysis; use Engine when ingesting at link rate or
// feeding from several capture threads (a producer is strictly
// single-goroutine, and each flow must stay on one producer).
//
// # Report path
//
// Emission is lock-free end to end, and one-way. Each shard pipeline
// finalizes flows on its own worker goroutine and pushes the reports into
// a private SPSC report ring; a single emitter goroutine drains every
// shard's ring and delivers to the user sinks — EngineConfig.Sink per
// report, EngineConfig.BatchSink per drained run — so a sink callback
// never runs concurrently with itself, and a slow sink backs up only the
// emitting shard's ring instead of stalling every worker behind a shared
// lock. A report is handed over, not lent: the finalization that emits it
// allocates it, and from the sink call on it belongs to the sink — the
// engine never writes to it again, whatever the mode.
// EngineConfig.StreamOnly decides one thing only: whether the engine also
// keeps the pointer so Finish can return the complete set.
//
// The aggregation tier is one Rollup (NewRollup): the emitter is the
// window's only writer and delivers one report per finished session, so
// there is nothing to fan out. Wire it to an engine with
// EngineConfig{BatchSink: ru.ObserveReports}: the emitter then folds each
// drained run under one lock acquisition instead of one per report, while
// dashboards and checkpoints read the same window under the same lock.
//
// # Flow lifecycle
//
// By default a Pipeline keeps every detected flow's session until Finish —
// right for bounded captures, unbounded for an ISP tap that runs
// indefinitely. Setting PipelineConfig.FlowTTL turns on lifecycle
// management: each flow tracks its last-seen packet timestamp, and
// amortized sweeps (driven by packet time, never wall clock, so PCAP
// replay and live capture behave identically) finalize and evict sessions
// idle past the TTL. Evicted sessions emit their SessionReport immediately
// through the configured ReportSink with Evicted set and End stamped;
// Finish finalizes and emits only the remainder. Every flow yields exactly
// one report either way (a flow idle past the TTL that later resumes is a
// new flow, as at any stateful middlebox), and with eviction disabled the
// streamed output is identical to the Finish-only result. Live residency
// vs cumulative volume is split in Engine.Stats: ActiveFlows/ShardFlows
// count resident sessions, Flows()/EvictedFlows the total ever seen. One
// residual caveat at engine scale: a shard's own eviction clock advances
// only with its own traffic, but the engine ticks every shard from the
// newest capture timestamp seen engine-wide (EngineConfig.TickInterval, on
// by default with a FlowTTL), so any traffic at the tap evicts quiet
// shards' flows; Engine.ExpireIdle remains for monitors whose whole feed
// goes silent (EngineProducer.ExpireIdle orders after that producer's feed).
//
// # Per-subscriber rollups
//
// Rollup is the operator-dashboard subsystem over the report stream (§5):
// it keys every SessionReport by the subscriber (client) address and
// maintains sliding-window aggregates — session counts, per-title and
// per-pattern share, per-stage minutes, the objective-vs-effective QoE mix
// — in a ring of fixed-width packet-time buckets per subscriber, so memory
// is O(subscribers × buckets) no matter how many reports the window has
// absorbed — subscribers seen within the window, that is: one whose every
// bucket has aged out is dropped. Every bucket also carries two mergeable
// percentile sketches (internal/sketch: deterministic fixed-centroid
// layout, 5% relative accuracy): per-session
// mean downstream Mbps and the continuous [0, 1] QoE proxy
// (SessionReport.EffectiveScore), so each SubscriberAggregate answers
// p50/p90/p99 drill-downs via its Counts' ThroughputPercentiles and
// QoEProxyPercentiles. The whole window round-trips through a
// canonical JSON checkpoint (Snapshot/Restore, or SaveFile/LoadFile for
// atomic write-temp-rename persistence): a restarted monitor resumes the
// day's aggregations exactly — the restart-resume equivalence is pinned by
// internal/rollup's tests.
//
// Multiple monitoring taps fold into one fleet view with Rollup.Merge (or
// the rollupmerge command over their checkpoint files): window geometry
// must match, disjoint subscriber sets union — over a partitioned
// subscriber population the merged checkpoint is byte-identical to a
// single tap that saw everything — and overlapping subscribers aggregate
// the union-sum of both taps' sessions (each session must be reported by
// exactly one tap).
//
//	ru := gamelens.NewRollup(gamelens.RollupConfig{Window: time.Hour})
//	eng := gamelens.NewEngine(gamelens.EngineConfig{
//	    BatchSink:  ru.ObserveReports,
//	    StreamOnly: true,
//	    Pipeline:   gamelens.PipelineConfig{FlowTTL: 2 * time.Minute},
//	}, models)
//	// ... periodically: ru.SaveFile("rollup.ckpt")
//	// after a restart: ru, err := gamelens.LoadRollup("rollup.ckpt")
//	// fleet view: fleet, _ := gamelens.LoadRollup("tap1.ckpt")
//	//             tap2, _ := gamelens.LoadRollup("tap2.ckpt")
//	//             err = fleet.Merge(tap2)
//
// # Historical archive
//
// The sliding window answers "the last hour"; the tiered historical store
// (ArchiveStore, internal/rollup/store) answers "last Tuesday". It taps the
// same report stream (compose ArchiveStore.BatchSink with the rollup's) and
// accumulates per-subscriber cells per hour of packet time; once the packet
// clock passes an hour by the linger margin the cell set seals into an
// immutable time-partitioned archive file. Sealed hours compact losslessly
// into days and days into weeks — the merge is rollup.Counts.Merge, the
// exact cell-wise addition the window itself aggregates with, so a day
// partition is byte-identical to the merge of its hours and nothing is
// re-sketched or approximated — and expired partitions are deleted under a
// per-tier retention policy (ArchiveConfig.Retain) only after their coarse
// successor is durable. Queries (Range, Total, TopImpaired) span the
// archive and the unsealed in-memory tail in one call, resolve each instant
// through exactly one tier, and return canonical address-sorted output:
// the same archive answers the same query byte-identically on every run.
// Drive it from the emitter via rollup.CheckpointerConfig.Archive (or wire
// ArchiveStore.Tick into EngineConfig.Checkpoint directly when
// checkpointing is off); cmd/classify -archive does exactly that, and
// cmd/rollupmerge queries archives and folds partition files back into
// fleet checkpoints.
//
// # Durability and failure model
//
// A monitor that runs for months will crash — power loss mid-write, a full
// disk, a panicking user sink. The durability tier bounds what each failure
// can cost:
//
// What survives a crash: the rollup window, up to the last checkpoint.
// internal/rollup's Checkpointer (what cmd/classify -checkpoint wires into
// EngineConfig.Checkpoint) snapshots the live window on the packet clock —
// never wall clock, so replay and live capture checkpoint identically —
// from the emitter, off the ingest path, so shard workers never wait on
// disk; the recovery point after a crash is at most one checkpoint
// interval (plus the drain batch in flight) behind. At startup
// rollup.Recover restores the newest generation that validates and
// quarantines corrupt ones aside under their own name (FILE.corrupt-K or
// FILE.gen-N.corrupt-K, first free K): nothing on disk is a
// cold start, everything corrupt is an error, because silently starting
// empty would hide data loss.
//
// Every write is atomic and torn-write-evident: write-temp, fsync,
// rename, fsync the parent directory (a crash between rename and
// directory sync must not lose the entry), with a CRC-footed format that
// rejects any byte-prefix truncation. Transient write failures (ENOSPC
// and friends) retry with bounded backoff; persistent ones count as a
// failed generation and the monitor keeps analyzing — durability degrades
// before liveness does.
//
// The historical archive extends the same contracts across tiers. Every
// archive document — partition, manifest, pending tail — rides the same
// atomic protocol and CRC footer. A compaction source is never deleted
// until its coarse successor is durable AND the tier's GC watermark has
// been durably advanced past it in the archive manifest; queries switch
// tiers on the watermark, so a crash anywhere in GC leaves orphans that
// are ignored and reaped at the next Open, never a coverage gap and never
// a double count. A torn or corrupt partition discovered at Open
// quarantines aside as name.corrupt-N, its sources are still present, and
// the next Tick recompacts a byte-identical replacement. A full disk costs
// one counted error per partition interval (never one per drain), ingest
// continues, and ArchiveConfig.MaxPending bounds the memory a persistently
// failing disk can pin by dropping whole oldest partitions with a counter
// (ArchiveStore.Stats().PendingDropped). A crash loses at most
// ArchiveConfig.FlushEvery entries of unsealed tail past the last drain —
// the sealed archive itself is never at risk.
//
// What a failing sink costs: nothing but its own reports. The emitter
// runs every user callback — Sink, BatchSink, the Checkpoint hook —
// supervised: a panic is recovered, counted (Stats.SinkPanics,
// CheckpointFailures), and poisons that callback so it is never called
// again, while emission and the other callbacks continue.
// Every report is then delivered exactly once or counted in
// Stats.SinkDropped — the accounting always balances against
// EmittedReports — and Finish always completes. The whole tier is tested
// against internal/faultinject's deterministic fault plans (fail the Nth
// write, tear it at byte k, ENOSPC forever, panic at report M), so every
// failure scenario above replays bit-for-bit (`make faultgate` is the
// short-mode slice of that suite).
//
// # Performance model
//
// The steady-state hot path — per packet and per closed slot, on every
// flow, forever — is allocation-free; garbage is confined to per-flow and
// per-event edges. What allocates when:
//
//   - Per packet: nothing. Engine batches (runs of fixed-size frame
//     summaries) recycle through each producer→shard lane's reverse ring
//     (a batch's memory shuttles between exactly one producer and one
//     shard forever), the frame parse allocates on neither its accept nor
//     its reject path, a packet finds its flow's detector record and
//     session in one lookup of the filter's flat table (a non-gaming
//     packet stops at a pointer-free 96-byte record), the pipeline's
//     slot accounting mutates fixed per-flow state, and a launch-window
//     packet lands in one of its flow's two open attribute-slot buffers
//     (features.LaunchAccumulator: the window is streamed slot by slot,
//     never buffered whole), warm once an accumulator has been through
//     one flow.
//   - Per closed slot: nothing. stageclass.Tracker.Push runs the feature
//     extractor, the stage forest, the transition matrix and the pattern
//     forest entirely in tracker-owned scratch; QoE levels accumulate into
//     fixed-size per-flow histograms. Pinned at 0 allocs/op by the
//     allocgate tests (`make check`).
//   - Per flow: session construction (tracker + scratch) at first packet,
//     a launch accumulator when the pipeline's small free list is empty
//     (it goes back there at the title decision, so a decided flow holds
//     no launch memory), and nothing for the decision itself: slot closes
//     and the forest run in pipeline-owned scratch.
//   - Per report: the SessionReport itself, one 160 B struct allocated at
//     the flow's finalization — beside the few dozen allocations and tens
//     of KB the same flow cost at birth — and nothing after it: the
//     emitter's drain (ring pop, Sink, BatchSink) is pinned at 0 allocs/op
//     by the sinkgate test, and a rollup absorbs each report with zero
//     allocations once its subscriber's window bucket is warm —
//     percentile sketch insertion included, since each sketch owns its
//     fixed centroid buffer (allocated once when the bucket rotates).
//     Retention mode (no StreamOnly) also grows Finish's return slice.
//   - Per checkpoint, partition seal and pending flush: a constant handful,
//     whatever the number of cells. The window checkpoint is written
//     straight out of the window's buckets, under its lock (one cut),
//     through one append-style cell encoder into a recycled buffer — no
//     copy of the window, no document tree, no reflection — and the
//     archive's partition files and pending tail go through the same
//     encoder. The bytes are those encoding/json wrote before (the differential tests keep that encoder as the
//     reference); TestSnapshotAllocs pins the count as independent of the
//     window's size.
//
// Scratch-buffer borrow rules, for callers composing the internals: every
// `...Into(x, dst)` method (mlkit.Classifier.PredictProbaInto,
// TransitionMatrix.ProbabilitiesInto, features.LaunchAttributesInto)
// writes through the dst you own and returns it. Two methods return
// borrowed views instead: StageFeatureExtractor.Push returns
// extractor-owned scratch overwritten by the next Push, and
// mlkit.Tree.PredictProba returns a read-only row of the tree's backing
// array. Copy either if you keep it past the next call. Trees store all
// leaf distributions in one contiguous array per tree (cache-dense walks,
// two allocations per tree), and Forest.PredictProbaInto accumulates votes
// without materializing any per-tree distribution.
//
// `make bench` runs the benchmark (bench/run.sh: four tap workloads, their
// end-to-end metrics and a per-layer cost table; see BENCHMARK.json),
// `make check`'s allocgate and sinkgate pin the 0-alloc guarantees (ingest
// and emission respectively), and its scalegate smoke fails if running
// shards=GOMAXPROCS ever drops below single-shard throughput.
//
// # Enforced invariants
//
// The contracts above are not comment-only: each is encoded as a
// machine-readable //gamelens: directive in the source and enforced by a
// static analyzer (internal/analysis, run by `make check`'s lintgate via
// cmd/gamelensvet) on every file of every build:
//
//   - //gamelens:borrowed (borrowcheck analyzer) marks the borrowed-view
//     producers — StageFeatureExtractor.Push, Tree.PredictProba; storing
//     their result to anything that outlives the call is a finding
//     (//gamelens:retain-ok escapes a documented transfer).
//   - //gamelens:noalloc (noalloc analyzer) marks the allocation-free
//     steady-state set — Sketch.Add, Rollup.Observe/ObserveBatch/ObserveReports,
//     Forest.PredictProbaInto, packet.Summarize, the emitter drain —
//     and rejects allocation-introducing constructs in them and their
//     in-package callees (//gamelens:alloc-ok escapes a deliberate cold
//     edge). The allocgate/sinkgate runtime pins stay the ground truth;
//     the analyzer adds breadth.
//   - The wallclock analyzer bans time.Now and friends everywhere except
//     functions marked //gamelens:wallclock-ok (operator-facing CLIs),
//     keeping replay and live capture on the packet clock.
//   - The detjson analyzer forbids unsorted map iteration inside
//     Snapshot/Marshal/checkpoint call graphs (//gamelens:sorted certifies
//     an order-neutralized iteration), guarding the byte-identical
//     checkpoint guarantees.
//   - //gamelens:single-goroutine (spscaffinity analyzer) marks
//     EngineProducer and the SPSC ring ends; sharing one across goroutines
//     or storing it into shared structures without //gamelens:transfer-ok
//     is a finding.
//
// The directive vocabulary is closed — a typo'd key fails lintgate rather
// than being ignored. See internal/analysis for the full table.
//
// Quickstart:
//
//	models, _ := gamelens.TrainDefaultModels(42)
//	pipe := gamelens.NewPipeline(gamelens.PipelineConfig{}, models)
//	// feed decoded packets: pipe.HandlePacket(ts, &dec, payload)
//	for _, report := range pipe.Finish() {
//	    fmt.Println(report)
//	}
//
// Multi-core ingest swaps NewPipeline for NewEngine:
//
//	eng := gamelens.NewEngine(gamelens.EngineConfig{}, models)
//	p := eng.Producer() // one per reader goroutine: p.HandleFrame(ts, frame)
//	reports := eng.Finish()
//
// A continuous monitor adds a TTL and a sink and never needs Finish until
// shutdown; StreamOnly keeps the engine from retaining the streamed
// reports for Finish's return value, so memory stays bounded by live
// flows alone:
//
//	eng := gamelens.NewEngine(gamelens.EngineConfig{
//	    Sink:       func(r *gamelens.SessionReport) { fmt.Println(r) },
//	    StreamOnly: true,
//	    Pipeline:   gamelens.PipelineConfig{FlowTTL: 2 * time.Minute},
//	}, models)
package gamelens

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/engine"
	"gamelens/internal/features"
	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/rollup"
	"gamelens/internal/rollup/store"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
)

// Re-exported types: the public API surface downstream users program
// against.
type (
	// Pipeline is the online Fig 6 analysis engine (single-threaded).
	Pipeline = core.Pipeline
	// PipelineConfig tunes the pipeline.
	PipelineConfig = core.Config
	// Engine is the sharded, concurrent front-end over Pipeline.
	Engine = engine.Engine
	// EngineConfig tunes the engine (shards, batching, overload policy).
	EngineConfig = engine.Config
	// EngineProducer is a single-goroutine ingest handle with lock-free
	// lanes to every shard (Engine.Producer); the raw-frame path is
	// EngineProducer.HandleFrame.
	EngineProducer = engine.Producer
	// SessionReport summarizes one streaming flow.
	SessionReport = core.SessionReport
	// ReportSink receives session reports incrementally as flows are
	// evicted (PipelineConfig.FlowTTL) or finalized at Finish.
	ReportSink = core.ReportSink
	// Rollup maintains per-subscriber sliding-window aggregates over the
	// report stream, with JSON checkpoint/restore.
	Rollup = rollup.Rollup
	// RollupConfig sizes the rollup window (span and bucket count).
	RollupConfig = rollup.Config
	// RollupEntry is one finished session attributed to a subscriber.
	RollupEntry = rollup.Entry
	// SubscriberAggregate is one subscriber's whole-window summary.
	SubscriberAggregate = rollup.Aggregate
	// ArchiveStore is the tiered historical rollup archive (the package
	// comment's historical-archive section).
	ArchiveStore = store.Store
	// ArchiveConfig tunes an archive (directory, tier spans, linger,
	// retention, pending-tail flush cadence, pending bound).
	ArchiveConfig = store.Config
	// ArchivePartition is one archive partition file decoded standalone
	// (ReadArchivePartition) — what cmd/rollupmerge folds into fleet views.
	ArchivePartition = store.Partition
)

// The archive tier names, re-exported for ArchiveConfig.Spans/Retain
// indexing.
const (
	ArchiveTierHour = store.TierHour
	ArchiveTierDay  = store.TierDay
	ArchiveTierWeek = store.TierWeek
)

// OpenArchive opens (or initializes) the tiered historical archive at
// cfg.Dir: geometry is pinned by the archive's own manifest (a caller that
// sets no spans adopts the manifest's), corrupt partitions quarantine
// aside, and the unsealed tail resumes from the last flush.
func OpenArchive(cfg ArchiveConfig) (*ArchiveStore, error) {
	return store.Open(cfg)
}

// ReadArchivePartition loads and fully validates one archive partition
// file standalone — the fold path cmd/rollupmerge uses to merge archive
// history into a fleet checkpoint (see Rollup.InjectCounts).
func ReadArchivePartition(path string) (*ArchivePartition, error) {
	return store.ReadPartitionFile(nil, path)
}

// Models bundles the two trained classifiers a pipeline needs.
type Models struct {
	Title *titleclass.Classifier // the §4.2 game-title classifier
	Stage *stageclass.Classifier // the §4.3 stage + pattern classifier
}

// TrainOptions sizes model training.
type TrainOptions struct {
	// SessionsPerTitle is the number of training sessions per catalog
	// title (default 8).
	SessionsPerTitle int
	// SessionLength bounds each training session (default 25 minutes).
	SessionLength time.Duration
	// TitleConfig / StageConfig override the model configurations; zero
	// values take the paper's deployed settings.
	TitleConfig titleclass.Config
	StageConfig stageclass.Config
}

// TrainDefaultModels generates a lab-style training corpus with the built-in
// traffic substrate and trains both classifiers with the paper's deployed
// settings. It is deterministic in seed.
func TrainDefaultModels(seed int64) (*Models, error) {
	return TrainModels(seed, TrainOptions{})
}

// TrainModels is TrainDefaultModels with explicit sizing.
func TrainModels(seed int64, opts TrainOptions) (*Models, error) {
	if opts.SessionsPerTitle <= 0 {
		opts.SessionsPerTitle = 8
	}
	if opts.SessionLength <= 0 {
		opts.SessionLength = 25 * time.Minute
	}
	rng := rand.New(rand.NewSource(seed))
	var sessions []*gamesim.Session
	for id := gamesim.TitleID(0); id < gamesim.NumTitles; id++ {
		for i := 0; i < opts.SessionsPerTitle; i++ {
			cfg := gamesim.RandomConfig(rng)
			sessions = append(sessions, gamesim.Generate(id, cfg, gamesim.LabNetwork(),
				seed+int64(id)*10007+int64(i)*37, gamesim.Options{SessionLength: opts.SessionLength}))
		}
	}
	return TrainModelsFromSessions(sessions, seed, opts)
}

// TrainModelsFromSessions trains both classifiers on caller-provided
// sessions (generated, or rebuilt from labeled PCAPs).
func TrainModelsFromSessions(sessions []*gamesim.Session, seed int64, opts TrainOptions) (*Models, error) {
	tcfg := opts.TitleConfig
	if tcfg.Seed == 0 {
		tcfg.Seed = seed + 1
	}
	title, err := titleclass.Train(sessions, tcfg)
	if err != nil {
		return nil, fmt.Errorf("gamelens: training title classifier: %w", err)
	}
	scfg := opts.StageConfig
	if scfg.Seed == 0 {
		scfg.Seed = seed + 2
	}
	stage, err := stageclass.Train(sessions, scfg)
	if err != nil {
		return nil, fmt.Errorf("gamelens: training stage classifier: %w", err)
	}
	return &Models{Title: title, Stage: stage}, nil
}

// NewPipeline assembles an online pipeline around trained models.
func NewPipeline(cfg PipelineConfig, m *Models) *Pipeline {
	return core.New(cfg, m.Title, m.Stage)
}

// NewEngine assembles a sharded multi-core engine around trained models.
// The zero EngineConfig shards across all available cores.
func NewEngine(cfg EngineConfig, m *Models) *Engine {
	return engine.New(cfg, m.Title, m.Stage)
}

// NewRollup builds an empty per-subscriber rollup window. The zero
// RollupConfig keeps a one-hour window in twelve buckets. Wire its
// ObserveReports into EngineConfig.BatchSink.
func NewRollup(cfg RollupConfig) *Rollup {
	return rollup.New(cfg)
}

// LoadRollup restores a rollup from a checkpoint file written by
// Rollup.SaveFile. A missing file surfaces the os.Open error unchanged so
// monitors can treat it as a cold start.
func LoadRollup(path string) (*Rollup, error) {
	return rollup.LoadFile(nil, path)
}

// SaveTitleModel writes the title classifier's forest as JSON. The
// classifier must have been trained with the default random-forest model.
func SaveTitleModel(w io.Writer, m *Models) error {
	f, ok := m.Title.Model().(*mlkit.Forest)
	if !ok {
		return fmt.Errorf("gamelens: title model is %T, not a forest", m.Title.Model())
	}
	return mlkit.SaveForest(w, f)
}

// LoadTitleModel reads a forest saved by SaveTitleModel and wraps it with
// the given classification config. The file is untrusted: a forest that
// splits on a feature outside the launch attribute vector, or votes for
// more classes than the catalog has titles, is rejected here rather than
// at the first inference.
func LoadTitleModel(r io.Reader, cfg titleclass.Config) (*titleclass.Classifier, error) {
	f, err := mlkit.LoadForest(r, features.NumLaunchAttrs)
	if err != nil {
		return nil, err
	}
	if f.NumClasses() > int(gamesim.NumTitles) {
		return nil, fmt.Errorf("gamelens: title forest has %d classes, the catalog %d titles", f.NumClasses(), gamesim.NumTitles)
	}
	return titleclass.FromModel(f, cfg), nil
}

// SaveStageModels writes the stage and pattern forests as two concatenated
// JSON documents.
func SaveStageModels(w io.Writer, m *Models) error {
	sf, ok := m.Stage.StageModel().(*mlkit.Forest)
	if !ok {
		return fmt.Errorf("gamelens: stage model is %T, not a forest", m.Stage.StageModel())
	}
	pf, ok := m.Stage.PatternModel().(*mlkit.Forest)
	if !ok {
		return fmt.Errorf("gamelens: pattern model is %T, not a forest", m.Stage.PatternModel())
	}
	if err := mlkit.SaveForest(w, sf); err != nil {
		return err
	}
	return mlkit.SaveForest(w, pf)
}

// LoadStageModels reads the two forests written by SaveStageModels and wraps
// them with the given configuration.
func LoadStageModels(r io.Reader, cfg stageclass.Config) (*stageclass.Classifier, error) {
	// A json.Decoder buffers past the first value, so the stream is framed
	// into raw documents before handing each to LoadForest.
	dec := json.NewDecoder(r)
	var rawStage, rawPattern json.RawMessage
	if err := dec.Decode(&rawStage); err != nil {
		return nil, fmt.Errorf("gamelens: stage forest: %w", err)
	}
	if err := dec.Decode(&rawPattern); err != nil {
		return nil, fmt.Errorf("gamelens: pattern forest: %w", err)
	}
	sf, err := mlkit.LoadForest(bytes.NewReader(rawStage), features.NumStageAttrs)
	if err != nil {
		return nil, fmt.Errorf("gamelens: stage forest: %w", err)
	}
	pf, err := mlkit.LoadForest(bytes.NewReader(rawPattern), len(features.TransitionAttrNames()))
	if err != nil {
		return nil, fmt.Errorf("gamelens: pattern forest: %w", err)
	}
	return stageclass.FromModels(sf, pf, cfg), nil
}
