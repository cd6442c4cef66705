// Flow lifecycle management: TTL-based eviction of idle flows and
// incremental report emission, the pieces that let the Fig 6 pipeline run
// indefinitely at a passive ISP tap (§5) instead of accumulating every
// flow's session until the capture ends.
//
// Time here is packet time, never wall time: the lifecycle clock is the
// maximum capture timestamp observed, so replaying a day-long PCAP in
// seconds evicts exactly the flows a live tap would have evicted, and runs
// are deterministic regardless of host speed.

package core

import (
	"sort"
	"time"

	"gamelens/internal/trace"
)

// ReportSink receives session reports incrementally: each flow's report is
// delivered exactly once, either when the flow is evicted after FlowTTL of
// idleness or when Finish finalizes the remainder. A Pipeline invokes its
// sink synchronously from HandlePacket/Finish on the calling goroutine;
// sinks shared across pipelines (the sharded engine's merged sink) must be
// concurrency-safe. The report is handed over: the sink owns it from the
// call on (see SessionReport).
type ReportSink func(*SessionReport)

// lifecycle tracks the packet clock and drives amortized eviction sweeps.
type lifecycle struct {
	ttl   time.Duration
	every time.Duration
	sink  ReportSink

	clock     time.Time // max packet timestamp observed
	nextSweep time.Time

	created int64
	evicted int64
	emitted int64
}

func newLifecycle(cfg Config) lifecycle {
	return lifecycle{ttl: cfg.FlowTTL, every: cfg.SweepInterval, sink: cfg.Sink}
}

// observe advances the packet clock and reports whether an eviction sweep
// is due. Sweeps are amortized: at most one per SweepInterval of packet
// time, so the per-packet cost is a comparison.
func (lc *lifecycle) observe(ts time.Time) bool {
	if lc.clock.Before(ts) {
		lc.clock = ts
	}
	if lc.ttl <= 0 {
		return false
	}
	if lc.nextSweep.IsZero() {
		lc.nextSweep = ts.Add(lc.every)
		return false
	}
	if lc.clock.Before(lc.nextSweep) {
		return false
	}
	lc.nextSweep = lc.clock.Add(lc.every)
	return true
}

// cutoff is the idle horizon: flows last seen before it are evicted.
func (lc *lifecycle) cutoff() time.Time { return lc.clock.Add(-lc.ttl) }

// emit delivers one finalized report to the sink, if any.
func (lc *lifecycle) emit(r *SessionReport) {
	lc.emitted++
	if lc.sink != nil {
		lc.sink(r)
	}
}

// sweep evicts every session idle past the TTL: each is finalized (pending
// title force-decided, pattern force-inferred by Report), emitted to the
// sink with Evicted set, and dropped from the flow table. Victims are
// emitted in (start, key) order so streamed output is deterministic even
// though Go map iteration is not. The detector's flow table is expired at
// the same cutoff, so rejected and pending flows stop accumulating too.
func (p *Pipeline) sweep() int {
	cutoff := p.lc.cutoff()
	var victims []*FlowSession
	for _, fs := range p.flows {
		if fs.LastSeen.Before(cutoff) {
			victims = append(victims, fs)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if !victims[i].Start.Equal(victims[j].Start) {
			return victims[i].Start.Before(victims[j].Start)
		}
		return victims[i].Flow.Key.String() < victims[j].Flow.Key.String()
	})
	for _, fs := range victims {
		p.lc.emit(p.finalize(fs, true))
		delete(p.flows, fs.Flow.Key)
		p.det.Remove(fs.Flow.Key)
		p.lc.evicted++
	}
	p.det.Expire(cutoff)
	return len(victims)
}

// finalize closes out one session: a pending title decision is forced (the
// launch window may not have elapsed on a short or truncated flow) and the
// report is stamped with the session's packet-time bounds and eviction
// status. The report is allocated here, at the per-flow edge, and belongs
// to whoever it is emitted to.
func (p *Pipeline) finalize(fs *FlowSession, evicted bool) *SessionReport {
	if fs.launch != nil {
		p.decideTitle(fs)
	}
	r := fs.Report()
	r.End = fs.LastSeen
	r.Evicted = evicted
	return r
}

// ExpireIdle forces an eviction sweep as of the given packet time,
// regardless of the amortized sweep schedule, and returns how many sessions
// were evicted. Long-running deployments call it at quiet points when no
// packets are arriving to advance the clock (the sharded engine's
// ExpireIdle routes here); it is a no-op unless FlowTTL is set.
func (p *Pipeline) ExpireIdle(now time.Time) int {
	if p.cfg.FlowTTL <= 0 {
		return 0
	}
	if p.lc.clock.Before(now) {
		p.lc.clock = now
	}
	return p.sweep()
}

// CreatedFlows returns the cumulative number of gaming-flow sessions ever
// tracked, including evicted ones. Until Finish frees the remaining
// sessions, CreatedFlows() - EvictedFlows() == NumFlows() (the live count).
func (p *Pipeline) CreatedFlows() int64 { return p.lc.created }

// EvictedFlows returns how many sessions TTL eviction has finalized.
func (p *Pipeline) EvictedFlows() int64 { return p.lc.evicted }

// EmittedReports returns how many reports have been produced so far
// (evictions plus Finish finalizations).
func (p *Pipeline) EmittedReports() int64 { return p.lc.emitted }

// DefaultSweepInterval is the sweep cadence a zero Config.SweepInterval
// resolves to: a quarter TTL, but never finer than the native slot so sweep
// cost stays negligible next to slot work. Exported so the sharded engine
// can derive its automatic tick cadence from the same rule.
func DefaultSweepInterval(ttl time.Duration) time.Duration {
	every := ttl / 4
	if every < trace.SlotDuration {
		every = trace.SlotDuration
	}
	return every
}
