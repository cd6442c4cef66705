// Package engine is the multi-core front-end over the single-threaded Fig 6
// pipeline (internal/core). core.Pipeline documents "shard flows across
// pipelines for multi-core operation (flows are independent)"; this package
// is that sharding. Frames are hash-partitioned by canonical flow key
// across N worker shards, each running its own core.Pipeline, so every
// packet of a flow is processed by the same shard in arrival order and the
// merged result is identical to one pipeline seeing the whole capture.
//
// # Concurrency model
//
// The handoff between ingest and shards is built from single-producer/
// single-consumer rings, not locks. Each ingest goroutine holds a Producer
// (Engine.Producer — the only way in; the engine has no per-packet entry
// point of its own), and each producer owns a private lane — a lock-free
// SPSC ring pair — to every shard. What crosses a lane is never a frame:
// the paper's method reads only the sizes, directions and timing of a
// flow's packets, so the producer reduces each frame to a packet.Summary
// (canonical five-tuple, direction, payload length, RTP probe, is-UDP) and
// appends {timestamp, summary} to a producer-local pending batch; a full
// batch moves to the shard worker as one ring slot write. Producers
// therefore never contend with each other on any lock or cache line, and
// adding shards adds throughput instead of serializing on a shared mutex.
//
// Batch ownership: the producer owns a batch while filling it, ownership
// transfers wholesale to the shard worker at the ring push, and the worker
// returns the emptied batch through the lane's free ring once it has
// replayed the entries into its pipeline. At every instant exactly one
// goroutine may touch a batch, and its entries are plain values with no
// view into any capture buffer, so nothing is ever copied defensively.
//
// HandleFrame parses the raw frame once, on the producer's goroutine
// (packet.Summarize — a single pass over the headers, ~16 ns); a frame that
// fails to parse is counted there (Stats.DecodeErrors) and goes no further.
// The shard's per-packet work starts at the flow lookup.
//
// # Report path
//
// Emission is a one-way handoff. Each shard worker owns a private SPSC
// report ring into which its pipeline pushes the *core.SessionReport each
// finalization allocates; a single emitter goroutine drains every shard's
// ring and delivers each drained run to the user sinks (Config.Sink per
// report, Config.BatchSink per run). From that call on a report belongs to
// whoever received it — the engine never writes to it again, in any mode —
// and without StreamOnly the emitter also keeps the pointer for Finish to
// return. No mutex exists anywhere on the steady-state report path: a slow
// sink backs up one shard's ring and blocks only that shard's emission,
// never the other shards' ingest.
//
// For long-running deployments the engine threads the core flow lifecycle
// through the shards: each shard's pipeline evicts its own idle flows
// (Config.Pipeline.FlowTTL), evicted and finished session reports stream
// through the emitter to Config.Sink, and
// Stats separates live residency (ActiveFlows, ShardFlows) from cumulative
// volume (Flows, EvictedFlows). A shard's own eviction clock only advances
// with its own traffic, but the engine also ticks every shard from the
// newest capture timestamp seen engine-wide (Config.TickInterval), so a
// shard whose flows have all gone silent still evicts on schedule as long
// as any traffic reaches the tap; manual ExpireIdle remains for monitors
// whose whole feed goes quiet. Eviction sweeps travel in-band: a sweep is
// a control message pushed through a producer's own lanes, so it orders
// with the producer that pushed it — FIFO with every packet that producer
// already handed in, while other producers' in-flight batches are swept by
// their own subsequent ticks. A caller that needs "sweep after everything I
// fed" calls Producer.ExpireIdle; Engine.ExpireIdle is out-of-band (a lane
// of its own, ordered with no producer's packets).
package engine

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/packet"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
)

// Config tunes the sharded engine.
type Config struct {
	// Shards is the number of worker pipelines (default
	// runtime.GOMAXPROCS(0)).
	Shards int
	// BatchSize is the number of packets accumulated before a shard send
	// (default 64). Larger batches cost latency; smaller ones cost
	// synchronization.
	BatchSize int
	// QueueDepth bounds each producer→shard lane, in batches (default 128,
	// rounded up to a power of two). A full lane blocks the producer
	// (lossless backpressure) unless DropOverload is set.
	QueueDepth int
	// DropOverload sheds load instead of blocking: when a lane is full the
	// pending batch is dropped and counted in Stats.Dropped, matching how a
	// passive tap behaves when a core falls behind. The dropped batch is
	// reset in place and refilled — shedding allocates nothing.
	DropOverload bool
	// FlushLatency is the batching latency budget for adaptive batch
	// sizing (default 25ms; negative disables adaptation). Each
	// producer→shard pair tracks its observed packet inter-arrival (in
	// packet time, so replay behaves like live capture) and flushes once
	// the pending batch would hold FlushLatency worth of traffic: low-rate
	// links flush after a couple of packets instead of waiting out
	// BatchSize, while high-rate links still amortize the handoff over
	// full batches. BatchSize remains the upper bound.
	FlushLatency time.Duration
	// Sink, when set, receives every merged SessionReport incrementally —
	// evicted flows as their Pipeline.FlowTTL expires, the rest at Finish
	// — always from the engine's single emitter goroutine, so no two calls
	// ever run concurrently. The engine installs its own per-shard report
	// ring as each shard pipeline's sink, so Pipeline.Sink is ignored; set
	// stream behavior here. The sink owns each report it is handed.
	Sink core.ReportSink
	// BatchSink, when set, receives each run of reports the emitter drains
	// from one shard's ring — one call per drained batch instead of one per
	// report, which is how a rollup consumer amortizes one lock
	// acquisition per batch (rollup.Rollup.ObserveReports). Called after
	// Sink has seen each report of the batch. The reports are handed over
	// like Sink's; the slice itself is the emitter's drain scratch, reused
	// for the next call.
	BatchSink func(reports []*core.SessionReport)
	// ReportQueue bounds each shard's report ring, in reports (default
	// 256, rounded up to a power of two). A full ring blocks that shard's
	// emission — and therefore its ingest, once its lanes also fill —
	// until the emitter drains; other shards are unaffected (backpressure
	// is per shard, never global).
	ReportQueue int
	// TickInterval is the automatic shard-clock tick cadence, in packet
	// time: whenever the newest capture timestamp observed engine-wide has
	// advanced TickInterval past the previous tick, the engine sweeps every
	// shard at that instant through the producer that observed it. A
	// shard's own lifecycle clock advances only with its own traffic —
	// exactly the clock that freezes when its flows go idle — so the
	// engine-wide clock is what bounds the idle-shard tail without operator
	// code. Zero takes the pipeline's sweep cadence
	// (Pipeline.SweepInterval, default FlowTTL/4); negative disables
	// automatic ticks (per-shard sweeps and manual ExpireIdle only).
	// Ignored unless Pipeline.FlowTTL is set.
	TickInterval time.Duration
	// Checkpoint, when set, is invoked by the emitter goroutine after each
	// non-empty drain — the hook a rollup.Checkpointer's Tick plugs into,
	// so checkpoints ride the report path's packet clock without a timer
	// goroutine and without ever blocking shard ingest (a slow checkpoint
	// backpressures emission exactly like a slow sink: per shard, never
	// globally). The hook reports whether it wrote a checkpoint
	// (Stats.CheckpointGenerations) and any write failure
	// (Stats.CheckpointFailures). Like the sinks it runs supervised: a
	// panic poisons the hook — it is never called again and counts one
	// failure — rather than killing the emitter.
	Checkpoint func() (wrote bool, err error)
	// StreamOnly makes the sinks the sole delivery path: reports are not
	// retained for Finish, which still finalizes the remaining sessions
	// (delivering them through the sinks) but returns nil. Without it the
	// engine keeps every report so Finish can return the complete set —
	// per-flow memory a monitor that runs indefinitely and already
	// consumes the stream should not pay. Ignored (reports are retained)
	// when neither sink is set, since they would otherwise be lost
	// entirely.
	StreamOnly bool
	// Pipeline configures each shard's core pipeline (including the flow
	// lifecycle: FlowTTL, SweepInterval).
	Pipeline core.Config
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.FlushLatency == 0 {
		c.FlushLatency = 25 * time.Millisecond
	}
	if c.ReportQueue <= 0 {
		c.ReportQueue = 256
	}
	return c
}

// Stats are the engine-level counters.
type Stats struct {
	// Shards is the worker count.
	Shards int
	// PacketsIn counts every frame handed to a Producer's HandleFrame,
	// summed over all producers.
	PacketsIn int64
	// Processed counts packets consumed: those the shard workers have
	// replayed into their pipelines plus the frames rejected at ingest (see
	// DecodeErrors), so after Finish, Processed + Dropped == PacketsIn.
	Processed int64
	// Dropped counts packets shed under DropOverload.
	Dropped int64
	// DecodeErrors counts raw frames that failed to
	// parse — exactly the frames packet.Decode rejects. The producer counts
	// them as it meets them and they are dropped silently, as a capture
	// loop skipping malformed frames would.
	DecodeErrors int64
	// ActiveFlows is the number of live (post-eviction) gaming flows
	// across all shards — the number actually resident in memory, which a
	// finite Pipeline.FlowTTL keeps bounded on long captures.
	ActiveFlows int
	// EvictedFlows counts sessions finalized by TTL eviction.
	EvictedFlows int64
	// EmittedReports counts reports the emitter has delivered (evictions
	// plus Finish finalizations). A live read can trail the shard report
	// rings by ReportBacklog; exact after Finish.
	EmittedReports int64
	// RecycledReports is always 0 since PR 21 (reports are handed over,
	// not recycled); removed with ROADMAP item 1.
	RecycledReports int64
	// ReportBacklog is the number of reports currently queued in the shard
	// report rings awaiting the emitter — the emitter queue depth. A live
	// gauge (racy but coherent per ring); 0 after Finish.
	ReportBacklog int
	// SinkPanics counts panics the emitter recovered from the user sinks
	// (Sink and BatchSink each contribute at most one: the first panic
	// poisons that sink and it is never called again). A poisoned engine
	// keeps draining — Finish completes, workers never wedge — it just
	// stops delivering to the dead sink.
	SinkPanics int64
	// SinkDropped counts per-report Sink deliveries skipped because the
	// sink was poisoned by an earlier panic — the "counted" half of the
	// exactly-once-or-counted contract (EmittedReports counts every report
	// that crossed the emitter, delivered or not).
	SinkDropped int64
	// CheckpointGenerations counts checkpoints the Config.Checkpoint hook
	// reported written; CheckpointFailures counts hook errors, plus one
	// for the panic if the hook poisoned itself.
	CheckpointGenerations int64
	CheckpointFailures    int64
	// ShardFlows is the number of live gaming flows each shard tracks,
	// post-eviction (use Flows for the cumulative count — dashboards that
	// chart ShardFlows see residency, not volume). Values are exact after
	// Finish; live reads trail by whatever is still queued — up to
	// QueueDepth batches per lane plus the pending partial ones.
	//
	// Coherence invariant: each shard's ShardFlows entry and its share of
	// EvictedFlows are sampled in one atomic read, published together by
	// the shard worker whenever a batch changed either. A live read can
	// therefore trail the queue, but it can never catch a flow
	// mid-eviction: per shard, live + evicted always equals the number of
	// flows the shard had created at a single sampling instant, which is
	// what keeps Flows() free of double counting (and monotonic) while
	// evictions race the read.
	ShardFlows []int
	// ShardBatch is each shard's current adaptive batch threshold, in
	// packets (== BatchSize when adaptation is disabled or the link runs
	// hot). With several producers, the last producer to route a packet to
	// the shard wins the entry.
	ShardBatch []int
}

// Flows returns the cumulative gaming-flow count: every flow ever tracked,
// live or evicted. ActiveFlows is the live subset. Because each shard's
// live/evicted pair is sampled coherently (see ShardFlows), a flow moving
// from live to evicted between a Stats call's reads is counted exactly
// once — pre-fix, sampling the two columns at different instants could
// double-report such a flow.
func (s Stats) Flows() int {
	total := 0
	for _, n := range s.ShardFlows {
		total += n
	}
	return total + int(s.EvictedFlows)
}

// paddedInt64 is an atomic counter on its own cache line, so two hot
// counters written by different goroutines never invalidate each other.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// entry is one queued packet: its capture timestamp and the summary the
// producer reduced its frame to. A plain value — handing a batch across the
// ring hands over everything the shard will read.
type entry struct {
	ts  time.Time
	sum packet.Summary
}

// batch is the unit of shard handoff: a run of entries, so a batch costs a
// single ring-slot write regardless of packet count. A batch with a
// non-zero expire is a control message: the worker advances its pipeline's
// lifecycle clock to that instant and sweeps, which is how eviction reaches
// a shard whose own traffic has gone quiet.
type batch struct {
	entries []entry
	expire  time.Time
}

// shardCounts is one shard's flow accounting, published as a unit: live and
// evicted are sampled from the shard pipeline at the same instant, so a
// reader summing them sees every flow the shard has ever created exactly
// once even while an eviction is moving flows from one column to the other.
type shardCounts struct {
	live    int64 // post-eviction resident sessions
	evicted int64 // sessions finalized by TTL eviction
}

type shard struct {
	pipe *core.Pipeline
	// lanes is the COW list of producer lanes feeding this shard; the
	// worker loads it once per drain pass, producers append via addQueue.
	lanes atomic.Pointer[[]*queue]
	// wake is the worker's doorbell: capacity one, producers ring it with a
	// non-blocking send after a push. A pending token means "look again",
	// so a producer pushing between the worker's empty drain and its
	// receive can never strand the worker asleep.
	wake   chan struct{}
	closed atomic.Bool

	// reports is the shard's emission lane: the shard pipeline's sink
	// pushes finalized reports here (producer: the worker, then Finish
	// after the workers exit), the emitter pops.
	reports *spscRing[*core.SessionReport]

	// counts is the worker's atomically published {live, evicted} pair
	// (nil until a batch first changes it). Publishing both in one store is
	// what keeps Stats.Flows() coherent: sampling them separately would
	// let a live read race an eviction and count the moving flow twice (or
	// drop it), depending on which column was read first.
	counts    atomic.Pointer[shardCounts]
	processed paddedInt64 // worker-written; padded away from producer-written effBatch
	// effBatch mirrors the adaptive batch threshold of whichever producer
	// last filled a batch for this shard, for Stats.ShardBatch. Producer-
	// written, so it sits on its own line away from the worker's counters.
	_        [56]byte
	effBatch atomic.Int64
	_        [56]byte
}

// addQueue registers one producer lane with the shard (copy-on-write; the
// engine serializes registrations under prodMu).
func (s *shard) addQueue(q *queue) {
	var lanes []*queue
	if old := s.lanes.Load(); old != nil {
		lanes = append(lanes, *old...)
	}
	lanes = append(lanes, q)
	s.lanes.Store(&lanes)
}

// wakeUp rings the shard's doorbell without blocking.
func (s *shard) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// publish snapshots the pipeline's flow accounting into the atomic pair —
// only when it moved, so the batches between flow births and evictions
// (nearly all of them) publish without allocating. Called only from the
// shard's worker goroutine (the pipeline's owner).
func (s *shard) publish() {
	c := shardCounts{live: int64(s.pipe.NumFlows()), evicted: s.pipe.EvictedFlows()}
	if c != s.load() {
		moved := c // the escaping copy, made only on this branch
		s.counts.Store(&moved)
	}
}

// load returns the last published pair (zero before any batch).
func (s *shard) load() shardCounts {
	if c := s.counts.Load(); c != nil {
		return *c
	}
	return shardCounts{}
}

// Engine fans frames out to sharded pipelines and merges their session
// reports.
type Engine struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	// prodMu guards producer registration and the producers list (Stats
	// sums per-producer counters under it; packet paths never take it).
	prodMu    sync.Mutex
	producers []*Producer
	// ctl is the control-only producer behind Engine.ExpireIdle, created on
	// first use; ctlMu makes its callers one at a time (the lanes are SPSC).
	// No packet ever crosses it.
	ctlMu sync.Mutex
	ctl   *Producer

	finished atomic.Bool

	// Automatic shard-clock ticks (see Config.TickInterval): clockNs is
	// the newest capture timestamp observed engine-wide among those that
	// made a sweep due (Producer.tick), nextTickNs the packet-time instant
	// the next sweep is due. tickEvery is 0 when ticks are disabled.
	tickEvery  int64 // nanos
	clockNs    atomic.Int64
	nextTickNs atomic.Int64

	// The report path (emitter.go): shard pipelines emit into per-shard
	// SPSC rings, the emitter goroutine drains them, feeds the sinks and,
	// when retain is set, keeps the pointers in streamed for Finish.
	// streamed and emitScratch are emitter-goroutine property until
	// emitWG.Wait() in Finish hands them over; no lock guards any of it.
	emitWake    chan struct{}
	emitClosed  atomic.Bool
	emitWG      sync.WaitGroup
	emitScratch []*core.SessionReport
	retain      bool
	streamed    []*core.SessionReport
	emitted     atomic.Int64

	// Supervision state (emitter.go). The poisoned flags are plain bools:
	// they are emitter-goroutine property, like emitScratch. The counters
	// are atomic for Stats.
	sinkPoisoned  bool
	batchPoisoned bool
	ckptPoisoned  bool
	sinkPanics    atomic.Int64
	sinkDropped   atomic.Int64
	ckptGens      atomic.Int64
	ckptFailures  atomic.Int64

	finishOnce sync.Once
	reports    []*core.SessionReport
}

// New assembles an engine around trained classifiers. The classifiers are
// shared across shards (prediction is read-only).
func New(cfg Config, titles *titleclass.Classifier, stages *stageclass.Classifier) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	if cfg.Pipeline.FlowTTL > 0 && cfg.TickInterval >= 0 {
		every := cfg.TickInterval
		if every == 0 {
			if every = cfg.Pipeline.SweepInterval; every <= 0 {
				every = core.DefaultSweepInterval(cfg.Pipeline.FlowTTL)
			}
		}
		e.tickEvery = int64(every)
	}
	e.retain = !(cfg.StreamOnly && (cfg.Sink != nil || cfg.BatchSink != nil))
	e.emitWake = make(chan struct{}, 1)
	for i := range e.shards {
		s := &shard{
			wake:    make(chan struct{}, 1),
			reports: newSPSCRing[*core.SessionReport](cfg.ReportQueue),
		}
		// Each shard pipeline gets its own sink closure bound to its own
		// report ring — the per-shard edge that replaced the old shared
		// sinkMu. See Config.Sink for the user-facing contract.
		pipeCfg := cfg.Pipeline
		pipeCfg.Sink = func(r *core.SessionReport) { e.pushReport(s, r) }
		s.pipe = core.New(pipeCfg, titles, stages)
		s.effBatch.Store(int64(cfg.BatchSize))
		e.shards[i] = s
		e.wg.Add(1)
		go e.run(s)
	}
	e.emitScratch = make([]*core.SessionReport, 0, len(e.shards[0].reports.slots))
	e.emitWG.Add(1)
	go e.runEmitter()
	return e
}

// Producer returns a new ingest handle with a private lock-free lane to
// every shard — the only way into the engine: give each capture goroutine
// its own Producer and the handoff runs with no shared locks at all. The
// handle is recorded for Stats and Finish. See the Producer type for the
// single-goroutine contract.
func (e *Engine) Producer() *Producer {
	e.prodMu.Lock()
	defer e.prodMu.Unlock()
	p := newProducer(e)
	//gamelens:transfer-ok registration before any goroutine owns p; read again only after Finish's wg.Wait
	e.producers = append(e.producers, p)
	return p
}

// run is one shard's worker loop: drain every lane, feed the shard
// pipeline, recycle batches, sleep on the doorbell when idle.
func (e *Engine) run(s *shard) {
	defer e.wg.Done()
	for {
		if s.drain() == 0 {
			if s.closed.Load() {
				// Closed and drained: one final pass in case a producer
				// pushed between the empty drain and the close flag, then
				// exit.
				if s.drain() == 0 {
					break
				}
				continue
			}
			<-s.wake
		}
	}
	s.publish()
}

// drain consumes every batch currently queued across the shard's lanes,
// returning the number of batches consumed. Within a lane batches are
// strictly FIFO (the equivalence invariant: per-flow order is per-lane
// order); across lanes the interleaving is arbitrary, which is fine
// because distinct producers own disjoint flows.
func (s *shard) drain() int {
	lanes := s.lanes.Load()
	if lanes == nil {
		return 0
	}
	total := 0
	for _, q := range *lanes {
		for {
			b, ok := q.data.pop()
			if !ok {
				break
			}
			total++
			s.consume(q, b)
		}
	}
	return total
}

// consume replays one batch into the shard pipeline and recycles it.
func (s *shard) consume(q *queue, b batch) {
	if !b.expire.IsZero() {
		s.pipe.ExpireIdle(b.expire)
		s.publish()
		return
	}
	for i := range b.entries {
		e := &b.entries[i]
		s.pipe.HandleSummary(e.ts, &e.sum)
	}
	s.publish()
	s.processed.v.Add(int64(len(b.entries)))
	b.entries = b.entries[:0]
	q.free.push(b) // sized so this cannot fail; see newQueue
}

// ShardIndex returns the shard a flow key routes to. The hash (FNV-1a over
// the canonical five-tuple) is fixed, so routing is deterministic across
// runs and processes: the same flow always lands on the same shard of an
// N-shard engine.
func ShardIndex(key packet.FlowKey, shards int) int {
	k := packet.TupleOf(key.Canonical())
	return shardOf(&k, shards)
}

// shardOf is ShardIndex of a key that is already canonical (a summary's).
func shardOf(key *packet.Tuple, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	// The tuple's first 37 bytes are what this hash has always mixed, in
	// the order it mixed them: both addresses in 16-byte form, the ports
	// big-endian, the protocol.
	h := uint64(offset64)
	for _, b := range key[:37] {
		h ^= uint64(b)
		h *= prime64
	}
	// FNV-1a's low bits barely mix (the prime is odd, so h%2^k follows a
	// tiny state machine); finalize murmur3-style before reducing so small
	// shard counts still see a uniform spread.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(shards))
}

// ExpireIdle advances every shard's lifecycle clock to now (a packet-time
// instant, not wall time) and sweeps flows idle past Pipeline.FlowTTL,
// emitting their reports through the merged sink — the manual sweep for a
// monitor whose whole feed went quiet, when no packet advances any clock
// and the automatic ticks (Config.TickInterval) have nothing to run on.
// The sweep is out-of-band: it crosses a control-only lane of its own, so
// it orders with no producer's packets; to sweep after everything a
// producer fed, call that producer's ExpireIdle. Safe from any goroutine,
// alongside running producers; the sweep runs asynchronously on the shard
// workers. A no-op without a FlowTTL and after Finish.
func (e *Engine) ExpireIdle(now time.Time) {
	if e.cfg.Pipeline.FlowTTL <= 0 {
		return
	}
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	if e.finished.Load() {
		return
	}
	if e.ctl == nil {
		e.ctl = e.Producer()
	}
	e.ctl.ExpireIdle(now)
}

// Stats reports the engine counters. ShardFlows/ActiveFlows entries are
// exact after Finish; while packets are in flight they trail by the queued
// backlog.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:                len(e.shards),
		EmittedReports:        e.emitted.Load(),
		SinkPanics:            e.sinkPanics.Load(),
		SinkDropped:           e.sinkDropped.Load(),
		CheckpointGenerations: e.ckptGens.Load(),
		CheckpointFailures:    e.ckptFailures.Load(),
		ShardFlows:            make([]int, len(e.shards)),
		ShardBatch:            make([]int, len(e.shards)),
	}
	e.prodMu.Lock()
	for _, p := range e.producers {
		st.PacketsIn += p.packetsIn.v.Load()
		st.Dropped += p.dropped.v.Load()
		st.DecodeErrors += p.rejected.Load()
	}
	st.Processed = st.DecodeErrors // rejected at ingest is consumed
	e.prodMu.Unlock()
	for i, s := range e.shards {
		c := s.load() // one atomic read: live and evicted from the same instant
		st.ShardFlows[i] = int(c.live)
		st.ActiveFlows += int(c.live)
		st.ShardBatch[i] = int(s.effBatch.Load())
		st.EvictedFlows += c.evicted
		st.Processed += s.processed.v.Load()
		st.ReportBacklog += s.reports.len()
	}
	return st
}

// Finish flushes queued packets, stops the shard workers, finalizes every
// still-live session (emitting each through the merged sink), and returns
// the complete merged report set — streamed evictions plus end-of-capture
// finalizations, every flow exactly once — sorted by flow start time (ties
// broken by flow key) so the combined result is deterministic regardless
// of shard count and drain interleaving. Under Config.StreamOnly the sink
// has already delivered everything and Finish returns nil. Finish is
// idempotent; no producer may be used after — or concurrently with — it.
func (e *Engine) Finish() []*core.SessionReport {
	e.finishOnce.Do(func() {
		// Flush every producer's pending batches. Producers are contracted
		// to have stopped, so Finish is the sole goroutine touching their
		// pendings here (the control-only producer never has any).
		e.prodMu.Lock()
		producers := append([]*Producer(nil), e.producers...)
		e.prodMu.Unlock()
		for _, p := range producers {
			p.Flush()
		}
		for _, s := range e.shards {
			s.closed.Store(true)
			s.wakeUp()
		}
		e.wg.Wait()
		e.finished.Store(true)
		// Per-shard Finish emits the remaining sessions through each
		// shard's report ring; the workers have exited (wg.Wait is the
		// happens-before edge), so this goroutine is now each ring's legal
		// single producer. The emitter is still running and drains
		// concurrently — a full ring just backpressures pushReport.
		for _, s := range e.shards {
			s.pipe.Finish()
		}
		// Close the emitter with the same drained+flag protocol the shard
		// workers use: every report pushed above is delivered (exactly
		// once) before emitWG.Wait returns, after which streamed is ours.
		e.emitClosed.Store(true)
		e.wakeEmitter()
		e.emitWG.Wait()
		e.reports = append(e.reports, e.streamed...)
		sort.Slice(e.reports, func(i, j int) bool {
			a, b := e.reports[i], e.reports[j]
			if !a.Flow.FirstSeen.Equal(b.Flow.FirstSeen) {
				return a.Flow.FirstSeen.Before(b.Flow.FirstSeen)
			}
			return a.Flow.Key.String() < b.Flow.Key.String()
		})
	})
	return e.reports
}
