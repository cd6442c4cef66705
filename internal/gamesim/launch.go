package gamesim

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gamelens/internal/trace"
)

// MaxPayload is the fixed payload size of "full" packets: the path-MTU-sized
// RTP datagrams that carry the bulk of the video stream (§3.2 cites 1432
// bytes on GeForce NOW).
const MaxPayload = 1432

// launchSeg is one segment of a title's launch animation: for its duration,
// the stream carries full packets (MaxPayload, rate scaled by the client's
// bitrate), steady packets in one or more narrow payload-size bands, and
// sparse packets with random payload sizes.
type launchSeg struct {
	dur        float64   // seconds
	bands      []float64 // steady band payload sizes, bytes
	bandRates  []float64 // packets/s per band
	sparseRate float64   // packets/s
	fullMul    float64   // multiplier on the base full-packet rate
}

// LaunchSig is a title's launch signature: the deterministic per-title
// schedule of packet-group behaviour that Fig 3 visualizes. Signatures are
// invariant across client configurations except for the full-packet rate,
// which scales with the stream bitrate — this is what makes packet-group
// attributes beat flow-volumetric attributes (Table 3).
type LaunchSig struct {
	segs  []launchSeg
	total float64 // seconds
}

// Duration returns the launch-stage length.
func (s *LaunchSig) Duration() time.Duration {
	return time.Duration(s.total * float64(time.Second))
}

var (
	sigMu    sync.Mutex
	sigCache = map[int64]*LaunchSig{}
)

// launchSigFor derives (and caches) the title's launch signature from its
// launch seed. Every session of the title shares this signature.
func launchSigFor(t Title) *LaunchSig {
	sigMu.Lock()
	defer sigMu.Unlock()
	if s, ok := sigCache[t.launchSeed]; ok {
		return s
	}
	rng := rand.New(rand.NewSource(t.launchSeed))
	sig := &LaunchSig{}
	// 8–13 segments of 2.5–8 s, totalling roughly 40–60 s.
	nSeg := 8 + rng.Intn(6)
	for i := 0; i < nSeg; i++ {
		seg := launchSeg{
			dur:        2.5 + rng.Float64()*5.5,
			sparseRate: 4 + rng.Float64()*55,
			fullMul:    0.4 + rng.Float64()*0.9,
		}
		nBands := 1 + rng.Intn(3)
		for b := 0; b < nBands; b++ {
			seg.bands = append(seg.bands, 220+rng.Float64()*1000)
			seg.bandRates = append(seg.bandRates, 25+rng.Float64()*95)
		}
		sig.segs = append(sig.segs, seg)
		sig.total += seg.dur
	}
	sigCache[t.launchSeed] = sig
	return sig
}

// GenerateLaunch emits the downstream and upstream payload records of the
// first `detail` of a session of title t: the full launch stage (with the
// title's signature) followed, if detail is longer, by early idle-stage
// gameplay traffic. Packets are returned sorted by timestamp. Per-session
// variation (segment timing offsets, rate noise, a single per-session steady
// size scale) and network impairments (jitter, loss) are applied, mirroring
// what a real capture at an access gateway would see.
func GenerateLaunch(t Title, cfg ClientConfig, net NetworkConditions, rng *rand.Rand, detail time.Duration) []trace.Pkt {
	sig := launchSigFor(t)
	peak := cfg.PeakDownMbps(t)
	// Launch animations are pre-rendered content: their bitrate tracks the
	// client's streaming settings only weakly (Fig 3(a) vs (c) show similar
	// full-packet density on FHD60 and HD30), so the config's influence is
	// damped to the 0.3 power around a per-title reference rate.
	ref := 22 * t.Demand // FHD60-class reference
	launchMbps := 0.35 * ref * math.Pow(peak/ref, 0.3)
	baseFullPPS := launchMbps * 1e6 / 8 / MaxPayload

	// Per-session consistent perturbations (Fig 3(c): tiny variations only).
	sizeScale := 1 + (rng.Float64()-0.5)*0.03 // ±1.5%
	timeOffset := (rng.Float64() - 0.5) * 0.4 // ±0.2 s
	rateScale := 1 + (rng.Float64()-0.5)*0.16 // ±8%

	var pkts []trace.Pkt
	limit := detail.Seconds()
	start := timeOffset
	for _, seg := range sig.segs {
		if start >= limit {
			break
		}
		end := start + seg.dur
		if end > limit {
			end = limit
		}
		// Full packets: Poisson at the config-scaled rate.
		emitPoisson(&pkts, rng, start, end, baseFullPPS*seg.fullMul*rateScale, func() int { return MaxPayload })
		// Steady bands: near-constant sizes within the band.
		for b, size := range seg.bands {
			sz := size * sizeScale
			emitPoisson(&pkts, rng, start, end, seg.bandRates[b]*rateScale, func() int {
				return clampPayload(sz * (1 + (rng.Float64()-0.5)*0.02)) // ±1%
			})
		}
		// Sparse packets: uniformly random sizes.
		emitPoisson(&pkts, rng, start, end, seg.sparseRate*rateScale, func() int {
			return clampPayload(90 + rng.Float64()*1280)
		})
		start += seg.dur
	}
	// Post-launch early-gameplay (idle lobby) traffic until `detail`:
	// unpredictable mid-size packets at the idle volumetric level.
	if start < limit {
		idleMbps := 0.12 * peak
		idlePPS := idleMbps * 1e6 / 8 / 900
		emitPoisson(&pkts, rng, start, limit, idlePPS, func() int {
			return clampPayload(250 + rng.Float64()*1182)
		})
	}
	// Upstream keep-alives and UI inputs: small and slow during launch.
	emitUpstream(&pkts, rng, 0, limit, 6, 80, 60)

	applyNetwork(pkts, net, rng)
	pkts = dropLost(pkts, net.LossRate, rng)
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].T < pkts[j].T })
	return pkts
}

// emitPoisson appends downstream packets with exponential inter-arrivals at
// the given rate over [start, end) seconds, sizes drawn from sizeFn.
func emitPoisson(pkts *[]trace.Pkt, rng *rand.Rand, start, end, rate float64, sizeFn func() int) {
	if rate <= 0 || end <= start {
		return
	}
	t := start + rng.ExpFloat64()/rate
	for t < end {
		if t >= 0 {
			*pkts = append(*pkts, trace.Pkt{
				T:    time.Duration(t * float64(time.Second)),
				Dir:  trace.Down,
				Size: sizeFn(),
			})
		}
		t += rng.ExpFloat64() / rate
	}
}

// emitUpstream appends upstream packets at the given rate with sizes around
// base ± spread/2.
func emitUpstream(pkts *[]trace.Pkt, rng *rand.Rand, start, end, rate, base, spread float64) {
	if rate <= 0 || end <= start {
		return
	}
	t := start + rng.ExpFloat64()/rate
	for t < end {
		if t >= 0 {
			*pkts = append(*pkts, trace.Pkt{
				T:    time.Duration(t * float64(time.Second)),
				Dir:  trace.Up,
				Size: clampPayload(base + (rng.Float64()-0.5)*spread),
			})
		}
		t += rng.ExpFloat64() / rate
	}
}

func clampPayload(v float64) int {
	if v < 40 {
		return 40
	}
	if v > MaxPayload {
		return MaxPayload
	}
	return int(v)
}

// applyNetwork adds per-packet delay jitter.
func applyNetwork(pkts []trace.Pkt, net NetworkConditions, rng *rand.Rand) {
	if net.Jitter <= 0 {
		return
	}
	j := float64(net.Jitter)
	for i := range pkts {
		d := time.Duration(rng.NormFloat64() * j)
		if pkts[i].T+d >= 0 {
			pkts[i].T += d
		}
	}
}

// dropLost removes packets independently with probability lossRate.
func dropLost(pkts []trace.Pkt, lossRate float64, rng *rand.Rand) []trace.Pkt {
	if lossRate <= 0 {
		return pkts
	}
	out := pkts[:0]
	for _, p := range pkts {
		if rng.Float64() >= lossRate {
			out = append(out, p)
		}
	}
	return out
}
