// Package flowdetect implements the "Cloud Gaming Packet Filter" stage of
// the pipeline (Fig 6): it watches decoded frames, tracks transport flows,
// and flags the RTP streaming flows of commercial cloud-gaming platforms
// using adapted state-of-the-art signatures (§4.1): known server port
// ranges, sustained high downstream rate with MTU-sized payloads, RTP header
// sanity, and the asymmetric bidirectional pattern of video-down /
// input-up traffic.
package flowdetect

import (
	"fmt"
	"time"

	"gamelens/internal/packet"
)

// Platform identifies a commercial cloud-gaming service.
type Platform int

// Platforms with built-in port signatures.
const (
	PlatformUnknown Platform = iota
	GeForceNOW
	XboxCloud
	AmazonLuna
	PSCloudStreaming
)

// String names the platform.
func (p Platform) String() string {
	switch p {
	case GeForceNOW:
		return "GeForce NOW"
	case XboxCloud:
		return "Xbox Cloud Gaming"
	case AmazonLuna:
		return "Amazon Luna"
	case PSCloudStreaming:
		return "PS5 Cloud Streaming"
	default:
		return "unknown"
	}
}

// portSignatures are the server-port conventions of the four platforms the
// paper's filter covers, as inclusive UDP port ranges. GeForce NOW's
// 49003–49006 and PS Remote/Cloud streaming's 9295–9304 are published; the
// Xbox and Luna ranges follow the deployments observed in prior measurement
// work.
var portSignatures = [...]struct {
	lo, hi   uint16
	platform Platform
}{
	{49003, 49006, GeForceNOW},
	{9002, 9006, XboxCloud},
	{9988, 9999, AmazonLuna},
	{9295, 9304, PSCloudStreaming},
}

// The streaming signature a flow must meet once MinDownPkts of evidence is
// in (§4.1).
const (
	minDownMbps     = 1.5 // sustained downstream rate
	minMeanPayload  = 700 // mean downstream payload, bytes: video rides near the MTU
	minRTPValidFrac = 0.9 // share of downstream payloads that parse as RTP
)

// State is a flow's classification status.
type State int

// Flow states.
const (
	// Pending flows have not accumulated enough evidence.
	Pending State = iota
	// Gaming flows match the cloud-game streaming signature.
	Gaming
	// Rejected flows failed the signature and are no longer evaluated.
	Rejected
)

// String names the state.
func (s State) String() string {
	switch s {
	case Gaming:
		return "gaming"
	case Rejected:
		return "rejected"
	default:
		return "pending"
	}
}

// Config tunes the detector.
type Config struct {
	// MinDownPkts is the evidence needed before a verdict (default 200).
	MinDownPkts int
	// RequireKnownPort restricts Gaming verdicts to flows on known
	// platform ports (default false: unknown-port flows that otherwise
	// match are reported as PlatformUnknown).
	RequireKnownPort bool
}

func (c Config) withDefaults() Config {
	if c.MinDownPkts <= 0 {
		c.MinDownPkts = 200
	}
	return c
}

// Flow is the tracked state of one bidirectional transport conversation,
// keyed canonically.
type Flow struct {
	Key      packet.FlowKey // canonical
	State    State
	Platform Platform
	// ServerPort is the port of the endpoint streaming the video down.
	ServerPort uint16

	DownPkts, UpPkts    int
	DownBytes, UpBytes  int64
	RTPValid, RTPSeen   int
	FirstSeen, LastSeen time.Time
}

// DownMbps returns the mean downstream rate over the flow's lifetime.
func (f *Flow) DownMbps() float64 {
	d := f.LastSeen.Sub(f.FirstSeen).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(f.DownBytes) * 8 / d / 1e6
}

// MeanDownPayload returns the mean downstream payload size.
func (f *Flow) MeanDownPayload() float64 {
	if f.DownPkts == 0 {
		return 0
	}
	return float64(f.DownBytes) / float64(f.DownPkts)
}

// String summarizes the flow.
func (f *Flow) String() string {
	return fmt.Sprintf("%v [%v/%v] down=%d up=%d %.1fMbps", f.Key, f.State, f.Platform, f.DownPkts, f.UpPkts, f.DownMbps())
}

// Detector tracks flows and applies the gaming signature.
type Detector = Table[struct{}]

// New returns a detector with the given configuration.
func New(cfg Config) *Detector { return NewTable[struct{}](cfg) }

// Table is the detector with one caller-owned pointer per tracked flow:
// each table entry carries a *S beside its Flow record, handed back by
// ObserveSummary, so a caller that keeps per-flow state of its own (the
// pipeline's sessions) finds it with the detector's map lookup instead of
// repeating the lookup in a second map. The Flow record stays a separate
// plain allocation — it never points at S, so a report that retains a *Flow
// past eviction retains nothing else.
type Table[S any] struct {
	cfg   Config
	flows map[packet.FlowKey]entry[S]
}

type entry[S any] struct {
	flow *Flow
	sess *S
}

// NewTable returns a detector whose entries can each carry a *S.
func NewTable[S any](cfg Config) *Table[S] {
	return &Table[S]{cfg: cfg.withDefaults(), flows: make(map[packet.FlowKey]entry[S])}
}

// platformFor maps a server port to its platform.
func platformFor(port uint16) Platform {
	for _, r := range portSignatures {
		if port >= r.lo && port <= r.hi {
			return r.platform
		}
	}
	return PlatformUnknown
}

// knownServerPort picks the endpoint of a flow's first frame that looks
// like the server: the port matching a platform signature (the frame's
// source first), else the numerically smaller port.
func (d *Table[S]) knownServerPort(src, dst uint16) uint16 {
	if platformFor(src) != PlatformUnknown {
		return src
	}
	if platformFor(dst) != PlatformUnknown {
		return dst
	}
	if src < dst {
		return src
	}
	return dst
}

// Observe feeds one decoded frame with its capture timestamp and transport
// payload. It returns the flow's state after the update. Non-UDP and non-IP
// frames are ignored (state Rejected).
func (d *Table[S]) Observe(ts time.Time, dec *packet.Decoded, payload []byte) State {
	var s packet.Summary
	dec.SummaryInto(payload, &s)
	f, _ := d.ObserveSummary(ts, &s)
	if f == nil {
		return Rejected
	}
	return f.State
}

// ObserveSummary feeds one frame summary with its capture timestamp and
// returns the flow's record after the update, with whatever Attach hung on
// its entry. Non-UDP frames are ignored: (nil, nil).
func (d *Table[S]) ObserveSummary(ts time.Time, s *packet.Summary) (*Flow, *S) {
	if !s.UDP {
		return nil, nil
	}
	e := d.flows[s.Key]
	f := e.flow
	if f == nil {
		f = &Flow{Key: s.Key, FirstSeen: ts, ServerPort: d.knownServerPort(s.SrcPort(), s.DstPort())}
		d.flows[s.Key] = entry[S]{flow: f}
	}
	f.LastSeen = ts
	if s.SrcPort() == f.ServerPort {
		f.DownPkts++
		f.DownBytes += int64(s.PayloadLen)
		f.RTPSeen++
		if s.RTP {
			f.RTPValid++
		}
	} else {
		f.UpPkts++
		f.UpBytes += int64(s.PayloadLen)
	}
	if f.State == Pending && f.DownPkts >= d.cfg.MinDownPkts {
		d.judge(f)
	}
	return f, e.sess
}

// Attach hangs sess on the tracked flow's table entry (a no-op for an
// untracked key); every later ObserveSummary of the flow returns it until
// the entry is removed.
func (d *Table[S]) Attach(key packet.FlowKey, sess *S) {
	if e, ok := d.flows[key]; ok {
		e.sess = sess
		d.flows[key] = e
	}
}

// judge applies the signature once enough downstream evidence exists.
func (d *Table[S]) judge(f *Flow) {
	plat := platformFor(f.ServerPort)
	if d.cfg.RequireKnownPort && plat == PlatformUnknown {
		f.State = Rejected
		return
	}
	if f.MeanDownPayload() < minMeanPayload ||
		f.DownMbps() < minDownMbps ||
		float64(f.RTPValid)/float64(f.RTPSeen) < minRTPValidFrac {
		f.State = Rejected
		return
	}
	f.State = Gaming
	f.Platform = plat
}

// Flow returns the tracked flow for a (possibly non-canonical) key, or nil.
func (d *Table[S]) Flow(key packet.FlowKey) *Flow {
	return d.flows[key.Canonical()].flow
}

// GamingFlows returns all flows currently in the Gaming state.
func (d *Table[S]) GamingFlows() []*Flow {
	var out []*Flow
	for _, e := range d.flows {
		if e.flow.State == Gaming {
			out = append(out, e.flow)
		}
	}
	return out
}

// Remove drops the tracked flow for a (possibly non-canonical) key, if any.
// The pipeline calls it as it finalizes a gaming session — eviction or
// Finish — so the detector entry is freed with the session rather than
// waiting out the idle cutoff.
func (d *Table[S]) Remove(key packet.FlowKey) {
	delete(d.flows, key.Canonical())
}

// Reset drops every tracked flow — gaming, pending and rejected alike.
// The pipeline calls it from Finish: rejected flows are never removed
// individually (nothing references them back), so only a full reset makes
// end-of-input actually free the whole filter table.
func (d *Table[S]) Reset() {
	d.flows = make(map[packet.FlowKey]entry[S])
}

// Expire drops flows idle since before cutoff and returns how many were
// removed; long-running monitors call this periodically.
func (d *Table[S]) Expire(cutoff time.Time) int {
	n := 0
	for k, e := range d.flows {
		if e.flow.LastSeen.Before(cutoff) {
			delete(d.flows, k)
			n++
		}
	}
	return n
}

// NumFlows returns the number of tracked flows.
func (d *Table[S]) NumFlows() int { return len(d.flows) }
