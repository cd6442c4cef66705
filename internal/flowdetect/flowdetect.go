// Package flowdetect implements the "Cloud Gaming Packet Filter" stage of
// the pipeline (Fig 6): it watches decoded frames, tracks transport flows,
// and flags the RTP streaming flows of commercial cloud-gaming platforms
// using adapted state-of-the-art signatures (§4.1): known server port
// ranges, sustained high downstream rate with MTU-sized payloads, RTP header
// sanity, and the asymmetric bidirectional pattern of video-down /
// input-up traffic.
//
// Ownership. The filter sits in front of everything, and nearly every
// five-tuple it tracks is not a game stream, so a tracked tuple is a
// pointer-free record inside the Table (table.go) and nothing else: the
// table owns it, nobody outside ever holds it, and it goes when the flow is
// removed or expires. A Flow — the public, pointer-carrying account — is
// born at a Gaming verdict and only there; the table updates it while the
// flow is tracked, and whoever kept the pointer (a session, a report) owns
// it afterwards.
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

// Flow is the account of one bidirectional transport conversation, keyed
// canonically. The table keeps one per Gaming flow, allocated at the verdict
// (a Pending or Rejected flow has only Table.Lookup's copy).
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
	return downMbps(f.DownBytes, f.LastSeen.Sub(f.FirstSeen))
}

// MeanDownPayload returns the mean downstream payload size.
func (f *Flow) MeanDownPayload() float64 {
	return meanPayload(f.DownBytes, f.DownPkts)
}

// downMbps and meanPayload are the signature's two rates, shared by the
// public Flow and the table's records so a verdict and a report agree to
// the bit.
func downMbps(bytes int64, lifetime time.Duration) float64 {
	d := lifetime.Seconds()
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d / 1e6
}

func meanPayload(bytes int64, pkts int) float64 {
	if pkts == 0 {
		return 0
	}
	return float64(bytes) / float64(pkts)
}

// String summarizes the flow.
func (f *Flow) String() string {
	return fmt.Sprintf("%v [%v/%v] down=%d up=%d %.1fMbps", f.Key, f.State, f.Platform, f.DownPkts, f.UpPkts, f.DownMbps())
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
func knownServerPort(src, dst uint16) uint16 {
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
