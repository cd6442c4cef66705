// Package core wires the whole Fig 6 methodology into an online pipeline: a
// cloud-gaming packet filter feeding, per detected streaming flow, the
// game-title classification process (first N seconds), the continuous
// player-activity-stage classifier with gameplay-activity-pattern inference,
// and context-calibrated effective-QoE measurement. The per-slot step of
// the last two — stage, pattern, demand context, QoE grades — is Accounting
// (accounting.go), and nothing else in the tree implements it: the packet
// path below folds packets into slots for it, internal/fleet feeds it
// simulated slots.
//
// The launch window is streamed, not buffered. A new session takes a
// features.LaunchAccumulator (from the pipeline's free list when it has
// one) and feed pushes every downstream packet's offset and size into it;
// upstream packets are never stored. The accumulator holds the samples of
// at most two attribute slots (T = 1 s each) — it closes slot s when a
// packet of slot s+2 arrives — so a packet delivered up to one slot width
// out of order still counts, exactly as if in order, and one later than
// that (or stamped before the flow's first packet) is ignored by the title
// decision. The decision is made by the first packet, of either direction,
// one slot width past the window (6 s into the flow at the deployed N =
// 5 s), or by eviction or Finish on a shorter flow. Ownership: the
// accumulator belongs to the session until that decision and to the
// pipeline's free list (launchFreeMax entries) after it, so a decided flow
// holds no launch memory and cannot regrow any.
package core

import (
	"fmt"
	"sort"
	"time"

	"gamelens/internal/features"
	"gamelens/internal/flowdetect"
	"gamelens/internal/packet"
	"gamelens/internal/qoe"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// Config tunes the pipeline.
type Config struct {
	// LaunchWindow is how long after flow start the stream is treated as
	// the game launch stage (stage classification is suppressed there;
	// title classification uses its first N seconds). Cloud launch scenes
	// run tens of seconds (§3.2).
	LaunchWindow time.Duration
	// QoSLag is the measured game-streaming lag (input-to-display, ~RTT
	// plus queueing) attached to QoE slots when the deployment has an
	// external latency feed; 0 uses a healthy default, and a negative
	// value means a measured lag of zero (the engine.Config.FlushLatency
	// idiom — zero-means-default fields take negative for an explicit
	// zero, so no real measurement is unexpressible).
	QoSLag time.Duration
	// QoSLoss is the measured path loss rate for QoE grading.
	QoSLoss float64
	// FlowTTL is the idle timeout, in packet time, after which a tracked
	// flow is finalized, reported (with Evicted set), and dropped. Zero
	// disables eviction: every session lives until Finish, the bounded-
	// capture behavior. ISP-scale monitors need a finite TTL or memory
	// grows with every flow ever seen.
	FlowTTL time.Duration
	// SweepInterval bounds how often eviction sweeps run, in packet time
	// (default FlowTTL/4, floored at one native slot). Smaller intervals
	// tighten the eviction deadline; larger ones amortize the sweep.
	SweepInterval time.Duration
	// Sink, when set, receives every SessionReport incrementally: evicted
	// flows as their TTL expires mid-run, remaining flows at Finish. Each
	// flow is reported exactly once. Called synchronously on the
	// HandlePacket/Finish goroutine.
	Sink ReportSink
}

func (c Config) withDefaults() Config {
	if c.LaunchWindow <= 0 {
		c.LaunchWindow = 50 * time.Second
	}
	if c.QoSLag == 0 {
		c.QoSLag = 8 * time.Millisecond
	} else if c.QoSLag < 0 {
		c.QoSLag = 0
	}
	if c.FlowTTL > 0 && c.SweepInterval <= 0 {
		c.SweepInterval = DefaultSweepInterval(c.FlowTTL)
	}
	return c
}

// Pipeline is the online analysis engine. It is not safe for concurrent use;
// shard flows across pipelines for multi-core operation (flows are
// independent).
type Pipeline struct {
	cfg    Config
	det    *flowdetect.Table[FlowSession]
	titles *titleclass.Classifier
	stages *stageclass.Classifier
	// flows indexes the live sessions for the sweep and Finish; the packet
	// path reaches a session through its detector entry instead.
	flows map[packet.FlowKey]*FlowSession
	lc    lifecycle

	// Hoisted per-slot constants: closeSlot runs once per native slot per
	// flow, so the config lookups it used to repeat live here instead.
	vol    features.VolumetricConfig
	native int // native slots per I-wide tracker slot
	lagMs  float64

	// titleSc is the title-decision scratch every flow's launch
	// accumulator borrows; launchFree holds up to launchFreeMax decided
	// flows' accumulators for the next flows adopted (package doc).
	titleSc    titleclass.Scratch
	launchFree []*features.LaunchAccumulator
}

// New assembles a pipeline around trained classifiers.
func New(cfg Config, titles *titleclass.Classifier, stages *stageclass.Classifier) *Pipeline {
	cfg = cfg.withDefaults()
	vol := stages.Config().Volumetric
	native := int(vol.I / trace.SlotDuration)
	if native < 1 {
		native = 1
	}
	return &Pipeline{
		cfg:    cfg,
		det:    flowdetect.NewTable[FlowSession](flowdetect.Config{}),
		titles: titles,
		stages: stages,
		flows:  make(map[packet.FlowKey]*FlowSession),
		lc:     newLifecycle(cfg),
		vol:    vol,
		native: native,
		lagMs:  cfg.QoSLag.Seconds() * 1000,
	}
}

// FlowSession is the per-streaming-flow analysis state and its outputs.
type FlowSession struct {
	Flow *flowdetect.Flow
	// Start is the first packet's timestamp.
	Start time.Time
	// LastSeen is the latest packet's timestamp; the TTL eviction sweep
	// compares it against the packet clock.
	LastSeen time.Time

	// Title is the launch-window classification (valid once TitleDecided).
	Title        titleclass.Result
	TitleDecided bool

	// Accounting is the flow's stage, pattern and QoE state; closeSlot
	// pushes every closed tracker slot through it.
	Accounting

	launch    *features.LaunchAccumulator // nil once the title is decided
	curSlot   trace.Slot
	slotIdx   int
	bytesDown int64
	secs      float64
	// pendingI accumulates native 100 ms slots into the I-wide slot the
	// stage tracker consumes; pendingN counts the natives gathered so far.
	pendingI trace.Slot
	pendingN int
	// peakMbps and peakFPS are the running maxima used as the detected
	// streaming settings for effective-QoE calibration (prior work [32]
	// detects resolution/frame-rate classes; the observed peaks are its
	// passive equivalent).
	peakMbps float64
	peakFPS  float64
}

// SessionReport is the final or interim summary for one flow.
//
// Ownership: a report is allocated by the finalization that emits it and
// handed over, never lent. Whoever receives it — Finish's caller, a
// ReportSink, the sharded engine's sinks in every mode — owns it from then
// on; nothing in the tree writes to it again, and the Flow it points to is
// never reused.
type SessionReport struct {
	Flow         *flowdetect.Flow
	Title        titleclass.Result
	Pattern      stageclass.PatternResult
	PatternKnown bool
	StageMinutes [trace.NumStages]float64
	MeanDownMbps float64
	Objective    qoe.Level
	Effective    qoe.Level
	// EffectiveScore is the session's continuous effective-QoE proxy in
	// [0, 1]: the mean graded-slot level (qoe.SessionScoreFromCounts over
	// the same per-flow histogram Effective majority-votes), preserved so
	// the rollup's percentile sketches see the within-session QoE mix the
	// discrete grade collapses.
	EffectiveScore float64
	// End is the session's last packet timestamp (the report covers
	// [Flow.FirstSeen, End]). Zero on reports built directly from
	// FlowSession.Report without finalization.
	End time.Time
	// Evicted marks a report produced by TTL eviction of an idle flow
	// rather than by Finish at end of capture.
	Evicted bool
}

// String renders a one-line summary.
func (r *SessionReport) String() string {
	pattern := "undecided"
	if r.PatternKnown {
		pattern = r.Pattern.Pattern.String()
	}
	suffix := ""
	if r.Evicted {
		suffix = " [evicted]"
	}
	return fmt.Sprintf("%v title=%v pattern=%s %.1f Mbps QoE obj=%v eff=%v%s",
		r.Flow.Key, r.Title, pattern, r.MeanDownMbps, r.Objective, r.Effective, suffix)
}

// HandlePacket feeds one decoded frame. Returns the flow session when the
// frame belongs to a detected cloud-gaming flow, else nil. It is
// HandleSummary of the frame's summary; callers holding raw frames get there
// directly through packet.Summarize.
func (p *Pipeline) HandlePacket(ts time.Time, dec *packet.Decoded, payload []byte) *FlowSession {
	var s packet.Summary
	dec.SummaryInto(payload, &s)
	return p.HandleSummary(ts, &s)
}

// HandleSummary feeds one frame summary. Returns the flow session when the
// frame belongs to a detected cloud-gaming flow, else nil. The detector
// hands a Gaming flow's session back with its verdict, so a packet costs one
// table lookup — and a non-gaming packet touches no Flow at all.
//
// Every frame advances the packet clock, and when FlowTTL is configured a
// due eviction sweep runs before the frame is processed — so idle flows are
// evicted by any traffic at the tap, not only by their own packets.
func (p *Pipeline) HandleSummary(ts time.Time, s *packet.Summary) *FlowSession {
	if p.lc.observe(ts) {
		p.sweep()
	}
	state, f, fs := p.det.ObserveSummary(ts, s)
	if state != flowdetect.Gaming {
		return nil
	}
	if fs == nil {
		fs = p.adopt(f)
	}
	// Guard against intra-flow timestamp reordering (multi-queue taps):
	// an older packet must not regress LastSeen and age the flow toward
	// eviction it hasn't earned.
	if ts.After(fs.LastSeen) {
		fs.LastSeen = ts
	}
	p.feed(fs, ts, s)
	return fs
}

// adopt gives a flow the detector has just judged Gaming its session and
// hangs it beside the detector's Flow. The session is always new: the
// detector's last-seen never trails the session's, so the sweep cannot
// expire a flow's record from under a session it keeps.
func (p *Pipeline) adopt(f *flowdetect.Flow) *FlowSession {
	fs := &FlowSession{
		Flow:       f,
		Start:      f.FirstSeen,
		Accounting: NewAccounting(p.stages, p.cfg.LaunchWindow),
	}
	if n := len(p.launchFree); n > 0 {
		fs.launch, p.launchFree = p.launchFree[n-1], p.launchFree[:n-1]
	} else {
		fs.launch = new(features.LaunchAccumulator)
	}
	p.titles.Begin(fs.launch, &p.titleSc)
	p.flows[f.Key] = fs
	p.lc.created++
	p.det.Attach(f.Key, fs)
	return fs
}

// feed routes one payload record into the per-flow state.
func (p *Pipeline) feed(fs *FlowSession, ts time.Time, s *packet.Summary) {
	offset := ts.Sub(fs.Start)
	size := int(s.PayloadLen)
	dir := trace.Up
	if s.SrcPort() == fs.Flow.ServerPort {
		dir = trace.Down
		fs.bytesDown += int64(size)
	}

	// Launch window: downstream packets stream into the accumulator until
	// a packet of either direction is past the window by its reordering
	// horizon. A decided flow has no accumulator, so a straggler stamped
	// back inside the window touches nothing.
	if acc := fs.launch; acc != nil {
		if acc.Done(offset) {
			p.decideTitle(fs)
		} else if dir == trace.Down {
			acc.Add(offset, size)
		}
	}

	// Native-slot aggregation; closed slots go to the stage tracker.
	idx := int(offset / trace.SlotDuration)
	for idx > fs.slotIdx {
		p.closeSlot(fs)
	}
	if idx == fs.slotIdx {
		fs.curSlot.Add(dir, size)
	}
}

// launchFreeMax caps the accumulators a pipeline keeps for reuse. Flow
// births and title decisions interleave, so a couple serve a tap however
// many flows it tracks (a miss costs one accumulator's buffer growth); past
// it the garbage collector takes over.
const launchFreeMax = 2

// decideTitle finishes the flow's launch window — at its end, or earlier
// when eviction or Finish forces it — classifies the title, and hands the
// accumulator to the free list.
func (p *Pipeline) decideTitle(fs *FlowSession) {
	fs.Title = p.titles.Decide(fs.launch, &p.titleSc)
	fs.TitleDecided = true
	if len(p.launchFree) < launchFreeMax {
		p.launchFree = append(p.launchFree, fs.launch)
	}
	fs.launch = nil
}

// closeSlot finalizes the current native slot and advances.
func (p *Pipeline) closeSlot(fs *FlowSession) {
	// Accumulate native slots into the I-wide slot the tracker expects.
	fs.pendingI.DownBytes += fs.curSlot.DownBytes
	fs.pendingI.DownPkts += fs.curSlot.DownPkts
	fs.pendingI.UpBytes += fs.curSlot.UpBytes
	fs.pendingI.UpPkts += fs.curSlot.UpPkts
	fs.pendingN++
	fs.curSlot = trace.Slot{}
	fs.slotIdx++
	fs.secs += trace.SlotDuration.Seconds()
	if fs.pendingN < p.native {
		return
	}
	slot := fs.pendingI
	fs.pendingI = trace.Slot{}
	fs.pendingN = 0

	mbps := slot.DownThroughputMbps(p.vol.I)
	fps := estimateFrameRate(slot, p.vol.I)
	if mbps > fs.peakMbps {
		fs.peakMbps = mbps
	}
	if fps > fs.peakFPS {
		fs.peakFPS = fps
	}
	fs.Push(slot, qoe.SlotQoS{
		DownMbps:  mbps,
		FrameRate: fps,
		LagMs:     p.lagMs,
		LossRate:  p.cfg.QoSLoss,
	}, fs.peakMbps, fs.peakFPS, fs.Title)
}

// estimateFrameRate derives a frame-rate estimate from the slot's packet
// structure, after prior work [32]: video frames arrive as bursts of
// MTU-sized packets, so the per-slot full-sized packet count divided by a
// typical packets-per-frame ratio tracks the encoder's output rate.
//
// The mean payload size is computed once and shared by the packets-per-frame
// ratio (continuous, no rounding: 1 + meanSize/500, so larger packets imply
// bigger frames) and the small-payload rescale, which only ever scales the
// estimate down (to zero for a payload-less slot). The final estimate is
// capped at the slot's own packet rate — a frame needs at least one packet,
// so a slot holding a single jumbo packet can never report more frames per
// second than packets it actually contains — and at the 130 fps ceiling of
// commercial cloud streaming.
func estimateFrameRate(slot trace.Slot, i time.Duration) float64 {
	if slot.DownPkts == 0 {
		return 0
	}
	meanSize := slot.DownBytes / slot.DownPkts
	pktsPerFrame := 1.0 + meanSize/500 // larger packets, bigger frames
	frames := slot.DownPkts / pktsPerFrame
	fps := frames / i.Seconds()
	// Small-payload lobby traffic encodes few real frames.
	if meanSize < 400 {
		fps *= meanSize / 400
	}
	if maxFPS := slot.DownPkts / i.Seconds(); fps > maxFPS {
		fps = maxFPS
	}
	if fps > 130 {
		fps = 130
	}
	return fps
}

// Report summarizes the flow session in a new report, which references
// nothing the session retains and is the caller's to keep.
func (fs *FlowSession) Report() *SessionReport {
	obj, eff, score := fs.Grades()
	pattern, known := fs.Pattern()
	r := &SessionReport{
		Flow:           fs.Flow,
		Title:          fs.Title,
		Pattern:        pattern,
		PatternKnown:   known,
		StageMinutes:   fs.StageMinutes,
		Objective:      obj,
		Effective:      eff,
		EffectiveScore: score,
	}
	if fs.secs > 0 {
		r.MeanDownMbps = float64(fs.bytesDown) * 8 / fs.secs / 1e6
	}
	return r
}

// NumFlows returns the number of live gaming-flow sessions (created minus
// evicted; zero after Finish frees them). It is O(1), for callers (like the
// sharded engine) that export live counters.
func (p *Pipeline) NumFlows() int { return len(p.flows) }

// DetectorFlows returns how many flows the cloud-gaming packet filter
// currently tracks — gaming, pending and rejected alike. Eviction and
// Finish free a session's detector entry along with the session, and the
// sweep expires pending/rejected flows at the same idle cutoff, so with a
// FlowTTL this count is bounded by concurrently-live flows (pinned by
// BenchmarkPipelineEviction's det_flows metric).
func (p *Pipeline) DetectorFlows() int { return p.det.NumFlows() }

// Sessions returns all live (not yet evicted) gaming-flow sessions, in
// (start, key) order — the same total order the eviction sweep emits in,
// so streamed output stays deterministic even when flows share a
// first-packet timestamp.
func (p *Pipeline) Sessions() []*FlowSession {
	out := make([]*FlowSession, 0, len(p.flows))
	for _, fs := range p.flows {
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Flow.Key.String() < out[j].Flow.Key.String()
	})
	return out
}

// Finish finalizes every still-live session — force-deciding pending title
// classifications (e.g. at end of a capture shorter than the window) — and
// returns their reports, emitting each to the configured Sink as well.
// Sessions already evicted by the TTL sweep were reported when they
// expired and are not re-reported; with eviction disabled Finish returns
// every session, the bounded-capture behavior. Call it once, at end of
// input.
//
// Finish frees the per-flow state completely: the finalized sessions and
// their detector entries are dropped, so a pipeline held after Finish
// (e.g. for its counters) retains no per-flow memory.
func (p *Pipeline) Finish() []*SessionReport {
	var out []*SessionReport
	for _, fs := range p.Sessions() {
		r := p.finalize(fs, false)
		p.lc.emit(r)
		out = append(out, r)
		delete(p.flows, fs.Flow.Key)
	}
	// Rejected and pending flows have no session to finalize; reset the
	// whole filter table so nothing survives end of input.
	p.det.Reset()
	return out
}
