package engine

import (
	"runtime"
	"sync/atomic"
	"time"

	"gamelens/internal/packet"
)

// queue is one producer→shard handoff lane: a data ring carrying filled
// batches toward the shard worker and a free ring carrying drained batches
// back for reuse. Both directions are single-producer/single-consumer by
// construction — the producer goroutine is the only pusher of data and the
// only popper of free, the shard worker the reverse — so the whole lane is
// lock-free.
type queue struct {
	data *spscRing[batch]
	free *spscRing[batch]
}

func newQueue(depth int) *queue {
	data := newSPSCRing[batch](depth)
	// Batches in circulation per lane are bounded by the data ring's real
	// (rounded) capacity plus the producer's pending batch plus the one the
	// worker is draining, so a free ring this size never overflows and no
	// batch ever leaks to the GC — dropped ones included.
	return &queue{data: data, free: newSPSCRing[batch](len(data.slots) + 2)}
}

// pair is a producer's per-shard state: its lane to that shard, the batch
// being filled, and the adaptive-batching estimate for the traffic this
// producer routes there.
type pair struct {
	q       *queue
	pending batch
	lastNs  int64 // newest packet timestamp routed here, Unix ns; 0 before the first
	gapNs   int64 // ns between packets on this lane, exponentially smoothed
}

// Producer is one ingest goroutine's handle into the engine. Each producer
// owns a private SPSC lane to every shard, so concurrent producers never
// contend on a lock or a cache line: HandleFrame appends the frame's summary
// to the producer-local pending batch and hands full batches to the shard
// worker through the lane's ring.
//
// A Producer is strictly single-goroutine — the lanes are SPSC, so calling
// any method concurrently from two goroutines corrupts the handoff. Feed
// all packets of a flow through one producer (the usual arrangement: one
// producer per capture port or per PCAP reader, which preserves per-flow
// arrival order automatically). Flush at quiet points so tail packets are
// not stuck behind the batch threshold, and Close when done, before
// Engine.Finish.
//
//gamelens:single-goroutine one owner at a time; hand off only via Close/Finish ordering
type Producer struct {
	e         *Engine
	pairs     []pair
	_         [64]byte // producers are long-lived; keep their hot counters off neighbors' lines
	packetsIn paddedInt64
	dropped   paddedInt64
	// rejected counts frames HandleFrame could not parse. They end here —
	// consumed, never routed — so Stats adds them to Processed as well as
	// to DecodeErrors. Rarely written, so it goes unpadded.
	rejected atomic.Int64
}

// newProducer wires a producer's lanes into every shard. Callers go through
// Engine.Producer, which also registers the producer for Stats and Finish.
func newProducer(e *Engine) *Producer {
	p := &Producer{e: e, pairs: make([]pair, len(e.shards))}
	for i := range p.pairs {
		q := newQueue(e.cfg.QueueDepth)
		p.pairs[i].q = q
		e.shards[i].addQueue(q)
	}
	return p
}

// HandleFrame routes one raw Ethernet frame to its flow's shard. The
// analysis reads only a flow's packet sizes, directions and timing, so the
// producer parses the frame once, here on the reader goroutine
// (packet.Summarize), and queues the fixed-size summary; no frame byte
// crosses to the shard and the caller may reuse its read buffer
// immediately. A frame that fails to parse is counted in Stats.DecodeErrors
// and otherwise ignored, which is what a capture loop wants (no per-frame
// error plumbing).
func (p *Producer) HandleFrame(ts time.Time, frame []byte) {
	var s packet.Summary
	if err := packet.Summarize(frame, &s); err != nil {
		p.reject()
	} else {
		p.enqueue(shardOf(&s.Key, len(p.e.shards)), ts, &s)
	}
	if p.e.tickEvery > 0 {
		p.tick(ts)
	}
}

// reject accounts for one frame that failed to parse.
func (p *Producer) reject() {
	p.packetsIn.v.Add(1)
	p.rejected.Add(1)
}

// tick runs an expire sweep when ts has reached the instant the next one is
// due, a whole TickInterval after the last. Nothing else is per packet: one
// atomic load and a compare. Only a timestamp that makes a sweep due is
// folded into the engine-wide clock — whatever the clock missed was earlier
// than the due instant, so the maximum it holds at a sweep is the maximum
// any producer has seen. The CAS on nextTickNs then elects exactly one
// producer per interval to sweep, at the clock instant, through its own
// lanes, in-band with its stream.
func (p *Producer) tick(ts time.Time) {
	e := p.e
	now := ts.UnixNano()
	next := e.nextTickNs.Load()
	if next != 0 && now < next {
		return
	}
	for {
		cur := e.clockNs.Load()
		if cur >= now {
			now = cur
			break
		}
		if e.clockNs.CompareAndSwap(cur, now) {
			break
		}
	}
	if next == 0 {
		// First packet: schedule the first sweep one interval out.
		e.nextTickNs.CompareAndSwap(0, now+e.tickEvery)
		return
	}
	if !e.nextTickNs.CompareAndSwap(next, now+e.tickEvery) {
		return // another producer owns this tick
	}
	p.ExpireIdle(time.Unix(0, now))
}

// enqueue appends one summary to shard si's pending batch and hands the
// batch over once it reaches the lane's threshold. No lock: the pending
// batch and the lane's producer end belong to this producer's goroutine.
func (p *Producer) enqueue(si int, ts time.Time, s *packet.Summary) {
	p.packetsIn.v.Add(1)
	pr := &p.pairs[si]
	b := &pr.pending
	if b.entries == nil {
		*b = pr.newBatch(p.e.cfg.BatchSize)
	}
	b.entries = append(b.entries, entry{ts: ts, sum: *s})
	n, limit := len(b.entries), p.e.cfg.BatchSize
	if budget := int64(p.e.cfg.FlushLatency); budget > 0 {
		pr.observe(ts.UnixNano())
		// The batch is full at budget / mean-gap packets, clamped to
		// [1, BatchSize]. n reaches ⌊budget/gap⌋ exactly when (n+1)·gap
		// exceeds the budget, so the per-packet test is a multiply and the
		// divide waits for the flush, where the threshold is mirrored into
		// the shard's effBatch for Stats.
		if n < limit && int64(n+1)*pr.gapNs <= budget {
			return
		}
		eff := int64(limit)
		if pr.gapNs > 0 {
			eff = max(1, min(eff, budget/pr.gapNs))
		}
		if sh := p.e.shards[si]; sh.effBatch.Load() != eff {
			sh.effBatch.Store(eff) // only when it moved: a store is an atomic exchange
		}
	} else if n < limit {
		return
	}
	p.flushShard(si)
}

// observe folds one packet timestamp into the lane's inter-arrival
// estimate, the quantity adaptive batching keeps batching latency near
// Config.FlushLatency with: an EWMA of the gap between consecutive packets
// (α = 1/20, so it smooths over ~20 packets; integer nanoseconds, so it
// settles to within 20 ns). Each producer tracks its own estimate per
// shard — its lane is the thing being batched. Timestamps can regress
// across flows; negative gaps are ignored, and gaps are capped at one
// second before smoothing — any sustained gap that long already means
// "flush immediately" (budget/1s < 1 packet), and the cap keeps a single
// long idle period from dominating the estimate once traffic resumes.
func (pr *pair) observe(now int64) {
	if pr.lastNs == 0 {
		pr.lastNs = now
		return
	}
	gap := now - pr.lastNs
	if gap < 0 {
		return
	}
	pr.lastNs = now
	gap = min(gap, int64(time.Second))
	if pr.gapNs == 0 {
		pr.gapNs = gap
	} else {
		pr.gapNs += (gap - pr.gapNs) / 20
	}
}

// newBatch recycles a drained batch from the lane's free ring or allocates
// a fresh one.
func (pr *pair) newBatch(batchSize int) batch {
	if b, ok := pr.q.free.pop(); ok {
		return b
	}
	return batch{entries: make([]entry, 0, batchSize)}
}

// flushShard hands shard si's pending batch to its worker. Under
// DropOverload a full lane drops the pending batch in place: the drop is a
// slice reset — the batch never leaves the producer, so shedding load
// allocates nothing and leaks nothing. Otherwise the push blocks until the
// worker frees a slot (lossless backpressure).
func (p *Producer) flushShard(si int) {
	pr := &p.pairs[si]
	b := &pr.pending
	n := len(b.entries)
	if n == 0 {
		return
	}
	if p.e.cfg.DropOverload {
		if pr.q.data.push(*b) {
			pr.pending = batch{}
			p.e.shards[si].wakeUp()
		} else {
			p.dropped.v.Add(int64(n))
			b.entries = b.entries[:0]
		}
		return
	}
	out := *b
	pr.pending = batch{}
	p.pushBlocking(si, out)
}

// pushBlocking pushes b into shard si's lane, waiting out a full ring. The
// producer yields while it waits (essential when producer and worker share
// a core) and re-wakes the worker each round in case the first wake token
// was consumed for an earlier batch. If the engine has already finished —
// a contract violation, producers must stop first — the batch is shed as
// dropped rather than spinning against workers that will never drain.
func (p *Producer) pushBlocking(si int, b batch) {
	s := p.e.shards[si]
	for spins := 0; !p.pairs[si].q.data.push(b); spins++ {
		s.wakeUp()
		if p.e.finished.Load() {
			p.dropped.v.Add(int64(len(b.entries)))
			return
		}
		if spins < 64 {
			runtime.Gosched()
		} else {
			//gamelens:wallclock-ok backpressure backoff; never read into data
			time.Sleep(50 * time.Microsecond)
		}
	}
	s.wakeUp()
}

// pushControl enqueues an expire control message (see batch.expire) into
// shard si's lane, after flushing the pending batch so the sweep stays
// ordered after every packet this producer already handed in. Control
// batches carry no buffers — pushing one allocates nothing. Under
// DropOverload the control is best-effort, like packet batches: a shard
// that can't keep up sheds the sweep rather than stalling the caller; the
// next sweep catches up.
func (p *Producer) pushControl(si int, now time.Time) {
	p.flushShard(si)
	b := batch{expire: now}
	if p.e.cfg.DropOverload {
		if p.pairs[si].q.data.push(b) {
			p.e.shards[si].wakeUp()
		}
		return
	}
	p.pushBlocking(si, b)
}

// ExpireIdle advances every shard's lifecycle clock to now (a packet-time
// instant) and sweeps flows idle past Pipeline.FlowTTL, in-band: the
// producer's pending batches are flushed first and the sweep follows them
// through the same lanes, so it is FIFO with every packet this producer
// already handed in. Batches another producer has queued or pending are
// swept by that producer's next tick (see the package doc's
// eviction-ordering note). The sweep runs asynchronously on the shard
// workers and evicts nothing without a FlowTTL.
func (p *Producer) ExpireIdle(now time.Time) {
	for si := range p.pairs {
		p.pushControl(si, now)
	}
}

// Flush pushes every partially filled batch to its shard without waiting
// for the workers to drain them. Call at quiet points of a long-running
// capture so tail packets are not stuck behind the batch threshold.
func (p *Producer) Flush() {
	for si := range p.pairs {
		p.flushShard(si)
	}
}

// Close flushes the producer's pending batches. The producer's lanes stay
// registered with the shards (an empty lane costs the worker one atomic
// load per drain pass) and its counters keep contributing to Stats; the
// handle must not be used again. Close before Engine.Finish.
func (p *Producer) Close() {
	p.Flush()
}
