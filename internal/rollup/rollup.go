// Package rollup maintains the per-subscriber sliding-window aggregates the
// paper's §5 operator dashboards watch: session counts, per-title share,
// per-stage minutes, the objective-vs-effective QoE mix, and per-subscriber
// throughput and QoE-proxy percentile sketches, keyed by the subscriber
// (client) address on the access side of each streaming flow.
//
// It consumes the report stream the flow lifecycle already produces — every
// core.SessionReport emitted through a ReportSink, whether by TTL eviction
// mid-run or by Finish — and buckets each report into a ring of fixed-width
// time buckets per subscriber, so memory is O(subscribers × buckets)
// regardless of how many reports the window has absorbed — subscribers seen
// within the window: one whose every bucket has aged out is dropped. Time is
// packet time throughout, the same clock the lifecycle runs on: the rollup's
// clock is the newest report end (or Advance instant) observed, so PCAP
// replay and live capture aggregate identically. Aggregation is pure
// addition, so the window state is independent of ingest order with one
// boundary exception: entries older than the already-slid window are dropped as
// late, and whether an entry beats the clock past its horizon depends on
// arrival order. Feeding a deterministic order (population-ordered fleet
// records, the engine's sorted Finish output) is therefore exactly
// deterministic; a live multi-shard sink whose window is shorter than the
// capture span can differ run-to-run only in which horizon-straddling
// entries were late (counted in Stats.Late).
//
// # Drill-down percentiles
//
// Beyond the additive sums, every window bucket carries two quantile
// sketches (internal/sketch: deterministic fixed-centroid layout, 5%
// relative accuracy over [0.001, 100000]): the per-session mean downstream
// Mbps, and the continuous QoE proxy (Entry.QoEProxy, the mean graded-slot
// effective level in [0, 1]). Because the sketches aggregate by pure
// cell-wise addition exactly like every other Counts field, they inherit
// all the window invariants — order-independence, byte-identical
// checkpoints across engine shard counts, exact multi-monitor merge — and
// sketch insertion is allocation-free once a bucket is warm, so
// Rollup.Observe's steady state stays at 0 allocs/op. Query them with
// Counts.ThroughputPercentiles and Counts.QoEProxyPercentiles (p50/p90/p99)
// or Counts.ThroughputQuantile / QoEProxyQuantile for arbitrary marks.
//
// The whole window state round-trips through a canonical JSON checkpoint
// (Snapshot/Restore): a restarted monitor resumes the day's aggregations
// exactly where the last checkpoint left them instead of losing the window.
// Checkpoints from multiple monitoring taps fold into one fleet view with
// Merge (see merge.go and cmd/rollupmerge).
package rollup

import (
	"math"
	"net/netip"
	"sort"
	"sync"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/flowdetect"
	"gamelens/internal/qoe"
	"gamelens/internal/sketch"
	"gamelens/internal/trace"
)

// sketchCfg is the one fixed geometry every rollup sketch uses: 5% relative
// accuracy over [1e-3, 1e5], covering lobby-grade kbps through
// multi-gigabit Mbps and the [0, 1] QoE proxy alike (~185 centroids,
// ~1.5 KB per warm sketch). One package-wide geometry means any two rollup
// sketches are mergeable by construction; Restore rejects checkpoints
// sketched with any other geometry.
var sketchCfg = sketch.Config{Alpha: 0.05, Min: 1e-3, Max: 1e5}

// Config sizes the sliding window.
type Config struct {
	// Window is the sliding aggregation span (default 1 hour). The
	// effective span is Window rounded down to a whole number of buckets.
	Window time.Duration
	// Buckets is the ring resolution (default 12): the window is divided
	// into this many fixed-width buckets, and aggregates slide forward one
	// bucket at a time as the packet clock advances. A checkpoint restores
	// only up to 4096 buckets (see Restore).
	Buckets int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Hour
	}
	if c.Buckets <= 0 {
		c.Buckets = 12
	}
	return c
}

// width is the per-bucket span.
func (c Config) width() time.Duration {
	w := c.Window / time.Duration(c.Buckets)
	if w <= 0 {
		w = 1
	}
	return w
}

// Entry is one finished session attributed to a subscriber — the
// rollup-facing distillation of a SessionReport (FromReport) or of a fleet
// deployment record. Aggregation is pure addition over entries, so feeding
// the same entry set in any order yields the same window state.
type Entry struct {
	// Subscriber is the client-side address the session is attributed to.
	Subscriber netip.Addr
	// End is the session's last packet timestamp; it selects the bucket
	// and advances the rollup clock.
	End time.Time
	// Title is the classified catalog title name, or "" when the title
	// classifier was not confident (long-tail sessions).
	Title string
	// Pattern is the inferred gameplay-activity pattern, used to group the
	// sessions Title could not name.
	Pattern string
	// StageMinutes are the classified per-stage minutes (launch excluded
	// by the pipeline's accounting).
	StageMinutes [trace.NumStages]float64
	// MeanDownMbps is the session-average downstream throughput.
	MeanDownMbps float64
	// Objective and Effective are the session QoE grades.
	Objective qoe.Level
	Effective qoe.Level
	// QoEProxy is the session's continuous experience score in [0, 1]
	// (core.SessionReport.EffectiveScore: the mean graded-slot effective
	// level), sketched per bucket for the percentile drill-down views.
	QoEProxy float64
	// Evicted marks sessions finalized by TTL eviction rather than Finish.
	Evicted bool
}

// ClientAddr returns the subscriber-side address of a detected flow: the
// endpoint that is not the streaming server. On the canonical key the
// server is whichever side carries Flow.ServerPort (ties resolve to Src,
// matching the detector's down-direction test).
func ClientAddr(f *flowdetect.Flow) netip.Addr {
	if f.Key.SrcPort == f.ServerPort {
		return f.Key.Dst
	}
	return f.Key.Src
}

// FromReport distills one pipeline/engine session report into an Entry. A
// report with a zero End (built straight from FlowSession.Report without
// finalization) falls back to the flow's last-seen timestamp.
func FromReport(r *core.SessionReport) Entry {
	e := Entry{
		Subscriber:   ClientAddr(r.Flow),
		End:          r.End,
		StageMinutes: r.StageMinutes,
		MeanDownMbps: r.MeanDownMbps,
		Objective:    r.Objective,
		Effective:    r.Effective,
		QoEProxy:     r.EffectiveScore,
		Evicted:      r.Evicted,
	}
	if e.End.IsZero() {
		e.End = r.Flow.LastSeen
	}
	if r.Title.Known {
		e.Title = r.Title.Title.String()
	} else {
		// Long-tail view: group by the (possibly force-inferred) pattern,
		// mirroring the Fig 11b/12b/13b aggregation.
		e.Pattern = r.Pattern.Pattern.String()
	}
	return e
}

// Counts is one additive aggregate: a bucket's contents, or a whole-window
// sum of buckets.
type Counts struct {
	// Sessions counts finished sessions; Evicted is the subset finalized
	// by TTL eviction.
	Sessions int64 `json:"sessions"`
	Evicted  int64 `json:"evicted,omitempty"`
	// Titles counts sessions per classified catalog title; Patterns counts
	// the unknown-title sessions per inferred gameplay pattern; Unknown
	// counts sessions with neither (so Titles + Patterns + Unknown always
	// sums to Sessions and dashboard shares add up).
	Titles   map[string]int64 `json:"titles,omitempty"`
	Patterns map[string]int64 `json:"patterns,omitempty"`
	Unknown  int64            `json:"unknown,omitempty"`
	// StageMinutes sums classified per-stage minutes, indexed by
	// trace.Stage.
	StageMinutes [trace.NumStages]float64 `json:"stage_minutes"`
	// MbpsSum sums per-session mean downstream Mbps (divide by Sessions
	// for the mean; see MeanDownMbps).
	MbpsSum float64 `json:"mbps_sum"`
	// Objective and Effective count sessions per QoE level, indexed by
	// qoe.Level; the Unknown counterparts hold sessions whose level was
	// outside [0, qoe.NumLevels), so each axis also sums to Sessions.
	Objective        [qoe.NumLevels]int64 `json:"objective"`
	Effective        [qoe.NumLevels]int64 `json:"effective"`
	ObjectiveUnknown int64                `json:"objective_unknown,omitempty"`
	EffectiveUnknown int64                `json:"effective_unknown,omitempty"`
	// Throughput and QoEProxy are the drill-down percentile sketches: the
	// distribution of per-session MeanDownMbps and of the [0, 1] QoE proxy
	// across the bucket's sessions (see the package comment's drill-down
	// section for accuracy bounds). Nil only on a Counts that never
	// absorbed an entry.
	Throughput *sketch.Sketch `json:"throughput,omitempty"`
	QoEProxy   *sketch.Sketch `json:"qoe_proxy,omitempty"`
}

// finiteOrZero guards the float sums: one NaN or infinite measurement
// must not poison a sum forever — and the canonical JSON checkpoint
// cannot encode non-finite values at all, so a poisoned sum would make
// Snapshot itself fail. (The sketches handle the same inputs themselves:
// NaN joins the exact-zero centroid, ±Inf clamps into an edge centroid.)
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Add folds one entry in — the single ingest primitive every aggregate
// (live-window bucket, historical-store partition cell) shares.
func (c *Counts) Add(e Entry) {
	c.Sessions++
	if e.Evicted {
		c.Evicted++
	}
	switch {
	case e.Title != "":
		if c.Titles == nil {
			//gamelens:alloc-ok first-touch warm-up, amortized over the bucket's life
			c.Titles = make(map[string]int64)
		}
		c.Titles[e.Title]++
	case e.Pattern != "":
		if c.Patterns == nil {
			//gamelens:alloc-ok first-touch warm-up, amortized over the bucket's life
			c.Patterns = make(map[string]int64)
		}
		c.Patterns[e.Pattern]++
	default:
		c.Unknown++
	}
	for st, m := range e.StageMinutes {
		c.StageMinutes[st] += finiteOrZero(m)
	}
	c.MbpsSum += finiteOrZero(e.MeanDownMbps)
	if e.Objective >= 0 && int(e.Objective) < qoe.NumLevels {
		c.Objective[e.Objective]++
	} else {
		c.ObjectiveUnknown++
	}
	if e.Effective >= 0 && int(e.Effective) < qoe.NumLevels {
		c.Effective[e.Effective]++
	} else {
		c.EffectiveUnknown++
	}
	if c.Throughput == nil {
		c.Throughput = sketch.New(sketchCfg)
	}
	c.Throughput.Add(e.MeanDownMbps)
	if c.QoEProxy == nil {
		c.QoEProxy = sketch.New(sketchCfg)
	}
	c.QoEProxy.Add(e.QoEProxy)
}

// reset clears the aggregate in place for bucket rotation, retaining the
// allocated containers: maps are emptied (Go map clears keep the bucket
// arrays warm) and the percentile sketches reset their centroid buffers.
// Pre-pooling, every rotation rebuilt both sketches from scratch — two
// ~1.5 KB centroid allocations per subscriber per bucket width, the
// dominant garbage source of a long-running rollup. The checkpoint bytes
// cannot tell the difference: empty maps and empty sketches serialize
// exactly as their nil counterparts would after the rotated bucket absorbs
// its first entry.
func (c *Counts) reset() {
	clear(c.Titles)
	clear(c.Patterns)
	if c.Throughput != nil {
		c.Throughput.Reset()
	}
	if c.QoEProxy != nil {
		c.QoEProxy.Reset()
	}
	titles, patterns := c.Titles, c.Patterns
	thr, qoeSk := c.Throughput, c.QoEProxy
	*c = Counts{Titles: titles, Patterns: patterns, Throughput: thr, QoEProxy: qoeSk}
}

// Merge folds another aggregate in (window summation over buckets, and the
// fleet-view fold of Rollup.Merge). Sketch geometry is uniform package-wide
// (Restore enforces sketchCfg), so the sketch merges cannot mismatch.
func (c *Counts) Merge(o *Counts) {
	c.Sessions += o.Sessions
	c.Evicted += o.Evicted
	//gamelens:sorted commutative map-to-map sum; iteration order invisible
	for k, n := range o.Titles {
		if c.Titles == nil {
			c.Titles = make(map[string]int64)
		}
		c.Titles[k] += n
	}
	//gamelens:sorted commutative map-to-map sum; iteration order invisible
	for k, n := range o.Patterns {
		if c.Patterns == nil {
			c.Patterns = make(map[string]int64)
		}
		c.Patterns[k] += n
	}
	c.Unknown += o.Unknown
	for st := range o.StageMinutes {
		c.StageMinutes[st] += o.StageMinutes[st]
	}
	c.MbpsSum += o.MbpsSum
	for l := range o.Objective {
		c.Objective[l] += o.Objective[l]
		c.Effective[l] += o.Effective[l]
	}
	c.ObjectiveUnknown += o.ObjectiveUnknown
	c.EffectiveUnknown += o.EffectiveUnknown
	if o.Throughput != nil {
		if c.Throughput == nil {
			c.Throughput = sketch.New(sketchCfg)
		}
		c.Throughput.Merge(o.Throughput)
	}
	if o.QoEProxy != nil {
		if c.QoEProxy == nil {
			c.QoEProxy = sketch.New(sketchCfg)
		}
		c.QoEProxy.Merge(o.QoEProxy)
	}
}

// Clone returns an independent deep copy (maps and sketches included), for
// folds that must not alias the source rollup's state.
func (c *Counts) Clone() Counts {
	out := *c
	if c.Titles != nil {
		out.Titles = make(map[string]int64, len(c.Titles))
		//gamelens:sorted copy into a fresh map; order invisible
		for k, n := range c.Titles {
			out.Titles[k] = n
		}
	}
	if c.Patterns != nil {
		out.Patterns = make(map[string]int64, len(c.Patterns))
		//gamelens:sorted copy into a fresh map; order invisible
		for k, n := range c.Patterns {
			out.Patterns[k] = n
		}
	}
	if c.Throughput != nil {
		out.Throughput = c.Throughput.Clone()
	}
	if c.QoEProxy != nil {
		out.QoEProxy = c.QoEProxy.Clone()
	}
	return out
}

// Percentiles summarizes a sketched distribution at the dashboard's three
// marks.
type Percentiles struct {
	P50, P90, P99 float64
}

// percentilesOf reads the marks off one sketch (zeros when no sessions have
// been sketched).
func percentilesOf(s *sketch.Sketch) Percentiles {
	if s == nil {
		return Percentiles{}
	}
	return Percentiles{P50: s.Quantile(0.5), P90: s.Quantile(0.9), P99: s.Quantile(0.99)}
}

// ThroughputPercentiles returns the p50/p90/p99 of per-session mean
// downstream Mbps across the aggregate's sessions, within the sketch
// accuracy bound (5% relative error).
func (c *Counts) ThroughputPercentiles() Percentiles { return percentilesOf(c.Throughput) }

// clamp01 caps a QoE-proxy quantile at 1: the metric is defined on [0, 1],
// but a session scoring exactly 1.0 lands in a centroid whose
// representative sits up to Alpha above it — the sketch's generic accuracy
// contract must not leak an impossible score onto a dashboard.
func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// QoEProxyPercentiles returns the p50/p90/p99 of the continuous [0, 1] QoE
// proxy across the aggregate's sessions (clamped to the metric's range).
func (c *Counts) QoEProxyPercentiles() Percentiles {
	p := percentilesOf(c.QoEProxy)
	return Percentiles{P50: clamp01(p.P50), P90: clamp01(p.P90), P99: clamp01(p.P99)}
}

// ThroughputQuantile returns an arbitrary quantile (q in [0, 1]) of
// per-session mean downstream Mbps; 0 when the aggregate is empty.
func (c *Counts) ThroughputQuantile(q float64) float64 {
	if c.Throughput == nil {
		return 0
	}
	return c.Throughput.Quantile(q)
}

// QoEProxyQuantile returns an arbitrary quantile of the [0, 1] QoE proxy
// (clamped to the metric's range).
func (c *Counts) QoEProxyQuantile(q float64) float64 {
	if c.QoEProxy == nil {
		return 0
	}
	return clamp01(c.QoEProxy.Quantile(q))
}

// MeanDownMbps returns the mean of the per-session throughput means.
func (c *Counts) MeanDownMbps() float64 {
	if c.Sessions == 0 {
		return 0
	}
	return c.MbpsSum / float64(c.Sessions)
}

// GoodShare returns the fraction of sessions graded Good on the given
// axis (true = effective, false = objective).
func (c *Counts) GoodShare(effective bool) float64 {
	if c.Sessions == 0 {
		return 0
	}
	if effective {
		return float64(c.Effective[qoe.Good]) / float64(c.Sessions)
	}
	return float64(c.Objective[qoe.Good]) / float64(c.Sessions)
}

// noBucket marks a ring slot that has never been written. Real bucket
// numbers can be negative — synthetic captures may start before the Unix
// epoch, and floorDiv keeps the numbering monotonic across it — so -1 is
// not a safe sentinel; math.MinInt64 corresponds to a packet time no
// time.Time can even represent.
const noBucket = math.MinInt64

// bucket is one ring slot: the absolute bucket number it currently holds
// (end-time nanos / width, floored) and that span's aggregate. idx noBucket
// marks a slot that has never been written.
type bucket struct {
	idx    int64
	counts Counts
}

// subscriber is one client address's ring of window buckets. newest is the
// largest bucket number any slot holds (noBucket on an empty ring): once the
// window horizon reaches it the subscriber has aged out whole, which is how
// dropAgedLocked finds it without walking the ring.
type subscriber struct {
	ring   []bucket
	newest int64
}

func newSubscriber(buckets int) *subscriber {
	s := &subscriber{ring: make([]bucket, buckets), newest: noBucket}
	for i := range s.ring {
		s.ring[i].idx = noBucket
	}
	return s
}

// Rollup is the subsystem root. All methods are safe for concurrent use:
// the engine's merged sink already serializes report delivery, but a
// monitor snapshots (and a dashboard reads) while ingest continues, so the
// rollup carries its own lock.
type Rollup struct {
	mu   sync.Mutex
	cfg  Config
	wNs  int64 // bucket width in nanos
	subs map[netip.Addr]*subscriber

	clockNs  int64 // newest packet-time instant observed, unix nanos
	hasClock bool

	ingested int64
	late     int64
}

// New builds an empty rollup.
func New(cfg Config) *Rollup {
	cfg = cfg.withDefaults()
	return &Rollup{
		cfg:  cfg,
		wNs:  int64(cfg.width()),
		subs: make(map[netip.Addr]*subscriber),
	}
}

// Stats are the rollup's observability counters.
type Stats struct {
	// Subscribers is the number of client addresses resident: those with a
	// bucket inside the window as of the clock's current bucket (a
	// subscriber whose every bucket has aged out is dropped when the clock
	// crosses the bucket boundary that ages it out), which is what a Restore
	// of a Snapshot taken at the same instant reports.
	Subscribers int
	// Ingested counts entries folded into the window since the start of
	// the run (checkpoints carry it across restarts).
	Ingested int64
	// Late counts entries dropped at Observe: end time already aged out of
	// the window, an invalid subscriber address, or an unstamped (zero)
	// End.
	Late int64
}

// Stats returns the counters.
func (r *Rollup) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{Subscribers: len(r.subs), Ingested: r.ingested, Late: r.late}
}

// Config returns the window geometry (with defaults resolved). A restored
// rollup reports the checkpoint's geometry, so callers can detect a
// mismatch with what they would have configured.
func (r *Rollup) Config() Config { return r.cfg }

// Clock returns the rollup's packet-time clock (zero before any entry).
func (r *Rollup) Clock() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hasClock {
		return time.Time{}
	}
	return time.Unix(0, r.clockNs)
}

// FloorDiv is integer division rounding toward negative infinity, so bucket
// numbering is monotonic across the epoch.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// pos maps an absolute bucket number onto its ring slot.
func (r *Rollup) pos(idx int64) int {
	p := int(idx % int64(r.cfg.Buckets))
	if p < 0 {
		p += r.cfg.Buckets
	}
	return p
}

// advanceLocked moves the clock forward (never backward) to ns. Buckets age
// out only when the clock enters a new bucket, so that is when — and the only
// time — the subscriber map is swept.
func (r *Rollup) advanceLocked(ns int64) {
	if r.hasClock && ns <= r.clockNs {
		return
	}
	crossed := !r.hasClock || FloorDiv(ns, r.wNs) != FloorDiv(r.clockNs, r.wNs)
	r.clockNs, r.hasClock = ns, true
	if crossed {
		r.dropAgedLocked()
	}
}

// dropAgedLocked forgets every subscriber whose newest bucket has slid out
// of the window. The clock is monotonic, so such a subscriber can never
// contribute to a query or a checkpoint again (Snapshot, Subscribers, Total
// and Merge already skip it); without this a months-long monitor would hold
// a ring — and two warm sketch buffers per slot ever written — for every
// address it ever saw. One comparison per resident subscriber per bucket
// width, under the lock the caller holds, allocating nothing.
func (r *Rollup) dropAgedLocked() {
	horizon := r.horizonLocked()
	for addr, sub := range r.subs {
		if sub.newest <= horizon {
			delete(r.subs, addr)
		}
	}
}

// Observe folds one entry into its subscriber's window. Entries at or ahead
// of the clock advance it; entries older than the window (relative to the
// advanced clock) are counted in Stats.Late and dropped — the window has
// already slid past them, exactly as it would have live.
//
//gamelens:noalloc
func (r *Rollup) Observe(e Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(e)
}

// ObserveBatch folds a run of entries under one lock acquisition — the
// emitter-drain fast path: the engine delivers each drained report-ring
// batch as a slice, and paying the mutex once per batch instead of once
// per report keeps the rollup off the profile during eviction storms.
// Semantically identical to calling Observe per entry in slice order, and
// just as allocation-free in steady state (pinned by
// TestRollupObserveBatchAllocs).
//
//gamelens:noalloc
func (r *Rollup) ObserveBatch(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range entries {
		r.observeLocked(entries[i])
	}
}

// ObserveReports distills one batch of session reports and folds it under a
// single lock acquisition — the engine BatchSink fast path (pass the method
// value: engine.Config{BatchSink: r.ObserveReports}). Identical to
// Observe(FromReport(rep)) per report in slice order, and allocation-free
// once the subscribers' buckets are warm (pinned by
// TestRollupObserveReportsAllocs).
//
//gamelens:noalloc
func (r *Rollup) ObserveReports(reports []*core.SessionReport) {
	if len(reports) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rep := range reports {
		r.observeLocked(FromReport(rep))
	}
}

// observeLocked is Observe's body; the caller holds r.mu.
func (r *Rollup) observeLocked(e Entry) {
	// An invalid subscriber or an unstamped End cannot be bucketed: a zero
	// instant's UnixNano is not even representable, and letting it move the
	// clock would park the window in year 1677 (the same hazard Advance
	// guards against). FromReport stamps End from the flow's last-seen
	// time, so only hand-built entries can hit this.
	if !e.Subscriber.IsValid() || e.End.IsZero() {
		r.late++
		return
	}
	end := e.End.UnixNano()
	r.advanceLocked(end)
	b := r.slotLocked(e.Subscriber, FloorDiv(end, r.wNs))
	if b == nil {
		r.late++
		return
	}
	b.counts.Add(e)
	r.ingested++
}

// slotLocked returns the ring slot holding bucket idx of addr's window,
// creating the subscriber on first sight and rotating the slot forward when
// it still holds an older bucket — or nil when idx is late: already slid out
// of the window, or behind what its slot has rotated to (possible only
// through out-of-order arrivals more than a window apart). It is the one
// placement rule Observe and InjectCounts share; the caller holds r.mu and
// has advanced the clock.
func (r *Rollup) slotLocked(addr netip.Addr, idx int64) *bucket {
	if !r.liveLocked(idx) {
		return nil
	}
	sub := r.subs[addr]
	if sub == nil {
		//gamelens:alloc-ok per-subscriber cold edge, once per new subscriber
		sub = newSubscriber(r.cfg.Buckets)
		r.subs[addr] = sub
	}
	b := &sub.ring[r.pos(idx)]
	if b.idx != idx {
		if b.idx > idx {
			return nil
		}
		// Rotate the slot in place: keep the old bucket's maps and sketch
		// buffers (reset, not reallocated), so steady-state rotation is
		// allocation-free (pinned by TestRollupRotationAllocs).
		b.idx = idx
		b.counts.reset()
		sub.newest = max(sub.newest, idx)
	}
	return b
}

// InjectCounts folds a pre-aggregated cell into the bucket containing at —
// the archive-refold path: cmd/rollupmerge uses it to fold historical-store
// partition files (internal/rollup/store) back into a fleet window
// alongside tap checkpoints. The whole cell lands in one bucket (a
// partition is one cell spanning its whole tier width; the window cannot
// re-spread it), the clock advances to at, and a cell older than the slid
// window is dropped with its sessions counted late — exactly Observe's
// contract lifted from one entry to a summed aggregate.
func (r *Rollup) InjectCounts(at time.Time, addr netip.Addr, c *Counts) {
	if c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !addr.IsValid() || at.IsZero() {
		r.late += c.Sessions
		return
	}
	ns := at.UnixNano()
	r.advanceLocked(ns)
	b := r.slotLocked(addr, FloorDiv(ns, r.wNs))
	if b == nil {
		r.late += c.Sessions
		return
	}
	b.counts.Merge(c)
	r.ingested += c.Sessions
}

// Advance pushes the window clock to now (a packet-time instant) without
// ingesting anything: buckets older than the slid window stop contributing
// to queries and snapshots. Monitors call it alongside Engine.ExpireIdle so
// the dashboard ages out even when no sessions are finishing. A zero
// instant is ignored — its UnixNano is not even representable, and an
// unstamped timestamp must not move a clock that pre-epoch capture times
// legitimately hold below zero.
func (r *Rollup) Advance(now time.Time) {
	if now.IsZero() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked(now.UnixNano())
}

// horizonLocked is the newest bucket number the clock has aged out: the
// window is the Buckets buckets above it. Meaningful only once hasClock.
func (r *Rollup) horizonLocked() int64 {
	return FloorDiv(r.clockNs, r.wNs) - int64(r.cfg.Buckets)
}

// liveLocked reports whether an absolute bucket number is inside the
// current window.
func (r *Rollup) liveLocked(idx int64) bool {
	return r.hasClock && idx > r.horizonLocked()
}

// Aggregate is one subscriber's whole-window summary.
type Aggregate struct {
	Subscriber netip.Addr
	Window     Counts
}

// Subscribers returns the per-subscriber window aggregates, sorted by
// address, omitting subscribers whose buckets have all aged out.
func (r *Rollup) Subscribers() []Aggregate {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Aggregate, 0, len(r.subs))
	for addr, sub := range r.subs {
		agg := Aggregate{Subscriber: addr}
		for i := range sub.ring {
			b := &sub.ring[i]
			if b.idx != noBucket && r.liveLocked(b.idx) {
				agg.Window.Merge(&b.counts)
			}
		}
		if agg.Window.Sessions > 0 {
			out = append(out, agg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Subscriber.Compare(out[j].Subscriber) < 0
	})
	return out
}

// Total returns the fleet-wide window aggregate (every live bucket of every
// subscriber summed).
func (r *Rollup) Total() Counts {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total Counts
	for _, sub := range r.subs {
		for i := range sub.ring {
			b := &sub.ring[i]
			if b.idx != noBucket && r.liveLocked(b.idx) {
				total.Merge(&b.counts)
			}
		}
	}
	return total
}
