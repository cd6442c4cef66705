// Package qoe measures cloud-game streaming quality the way the paper's §5.3
// deployment does, in two steps. The objective layer reproduces the ISP's
// existing observability module: it maps flow QoS (throughput, estimated
// frame rate, lag, loss) onto bad/medium/good levels using fixed expected
// ranges. The effective layer calibrates those expectations with the
// gameplay context — game title (or pattern) demand and player activity
// stage — so a Hearthstone lobby at 3 Mbps and 25 fps is not mislabeled as
// degraded experience. Latency and loss expectations stay uncalibrated, as
// in the paper: a lossy or laggy path is bad regardless of context.
package qoe

import (
	"fmt"
	"math"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/trace"
)

// Level is a user-experience grade.
type Level int

// Experience levels, worst to best.
const (
	Bad Level = iota
	Medium
	Good
	numLevels
)

// NumLevels is the number of experience levels.
const NumLevels = int(numLevels)

// String names the level.
func (l Level) String() string {
	switch l {
	case Bad:
		return "bad"
	case Medium:
		return "medium"
	case Good:
		return "good"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// SlotQoS is the per-slot flow measurement the observability module consumes:
// throughput, the frame rate estimated from the stream (prior work [32]
// derives it from QoS attributes), and the path quality.
type SlotQoS struct {
	DownMbps  float64
	FrameRate float64
	LagMs     float64
	LossRate  float64
}

// Objective thresholds of the partner ISP's observability module (§5.3): a
// slot with frame rate below 30 fps and/or throughput below 8 Mbps is bad;
// comfortable margins above both are good.
const (
	objBadFPS    = 30.0
	objGoodFPS   = 45.0
	objBadMbps   = 8.0
	objGoodMbps  = 12.0
	badLagMs     = 100.0
	goodLagMs    = 70.0
	badLossRate  = 0.02
	goodLossRate = 0.005
)

// Objective grades a slot with the uncalibrated expected ranges.
func Objective(q SlotQoS) Level {
	if q.FrameRate < objBadFPS || q.DownMbps < objBadMbps || q.LagMs > badLagMs || q.LossRate > badLossRate {
		return Bad
	}
	if q.FrameRate >= objGoodFPS && q.DownMbps >= objGoodMbps && q.LagMs <= goodLagMs && q.LossRate <= goodLossRate {
		return Good
	}
	return Medium
}

// Context is the gameplay context attached to a slot by the classification
// pipeline: what fraction of the generic demand this title needs, and what
// the player is doing.
type Context struct {
	// Demand is the title's bitrate demand factor (gamesim catalog), or a
	// pattern-level default when only the activity pattern is known.
	Demand float64
	// Stage is the classified player activity stage for the slot.
	Stage trace.Stage
	// SettingsMbps is the session's nominal active-stage bitrate as
	// detected from the stream (resolution/device detection is prior work
	// [32]); 0 when unknown. A subscriber streaming at SD has a low
	// bitrate by choice, not degradation.
	SettingsMbps float64
	// SettingsFPS is the detected nominal streaming frame rate; 0 when
	// unknown (60 assumed).
	SettingsFPS float64
}

// PatternDemand returns the coarse demand factor used when only the
// gameplay activity pattern is known (§5.2 observes slightly higher demand
// for spectate-and-play games).
func PatternDemand(p gamesim.Pattern) float64 {
	if p == gamesim.SpectateAndPlay {
		return 1.0
	}
	return 0.95
}

// stageDemand scales expectations by player activity stage: idle scenes
// render and ship a small fraction of active-stage data, passive slightly
// less than active (§3.3).
func stageDemand(s trace.Stage) (mbpsFrac, fpsFrac float64) {
	switch s {
	case trace.StageIdle:
		return 0.10, 0.35
	case trace.StagePassive:
		return 0.60, 0.80
	case trace.StageLaunch:
		return 0.25, 0.40
	default: // active
		return 1.0, 1.0
	}
}

// Effective grades a slot after calibrating the throughput and frame-rate
// expectations with the gameplay context: the title's demand factor, the
// player activity stage, and the detected streaming settings. Calibration
// only ever relaxes the objective expectations (min of the two scales), and
// the latency and loss thresholds stay objective, so genuine path faults are
// never hidden.
func Effective(q SlotQoS, ctx Context) Level {
	if ctx.Demand <= 0 {
		ctx.Demand = 1
	}
	mbpsFrac, fpsFrac := stageDemand(ctx.Stage)
	activeMbps := ctx.SettingsMbps
	if activeMbps <= 0 {
		activeMbps = objGoodMbps * ctx.Demand
	}
	badMbps := math.Min(objBadMbps*ctx.Demand, 0.40*activeMbps) * mbpsFrac
	goodMbps := math.Min(objGoodMbps*ctx.Demand, 0.60*activeMbps) * mbpsFrac
	nomFPS := ctx.SettingsFPS
	if nomFPS <= 0 {
		nomFPS = 60
	}
	badFPS := math.Min(objBadFPS, 0.45*nomFPS) * fpsFrac
	goodFPS := math.Min(objGoodFPS, 0.70*nomFPS) * fpsFrac
	if q.FrameRate < badFPS || q.DownMbps < badMbps || q.LagMs > badLagMs || q.LossRate > badLossRate {
		return Bad
	}
	if q.FrameRate >= goodFPS && q.DownMbps >= goodMbps && q.LagMs <= goodLagMs && q.LossRate <= goodLossRate {
		return Good
	}
	return Medium
}

// SessionLevelFromCounts reduces a per-slot level histogram to the session's
// overall grade: the majority level, as the paper reports per-session QoE
// (§5.3). The histogram is the fixed-size form kept per session, so a
// session of any length grades in O(1) memory. Ties: Good seeds the scan and
// another level must strictly outnumber the running winner to displace it.
func SessionLevelFromCounts(counts [NumLevels]int64) Level {
	best := Good
	for l := Level(0); int(l) < NumLevels; l++ {
		if counts[l] > counts[best] {
			best = l
		}
	}
	return best
}

// SessionScoreFromCounts reduces a per-level histogram to a continuous
// session experience score in [0, 1]: the mean graded-slot level normalized
// by the best grade (0 = every slot Bad, 1 = every slot Good). The
// majority-vote SessionLevelFromCounts answers "how was the session
// overall"; the score preserves how much of the session each grade covered
// — two subscribers can both grade Medium while one spent half its slots
// Bad — which is what the rollup's percentile sketches distribute over. A
// histogram with no graded slots scores 1, matching the Good seed of
// SessionLevelFromCounts. Integer sums with one final division, so the
// score is independent of accumulation order.
func SessionScoreFromCounts(counts [NumLevels]int64) float64 {
	var total, weighted int64
	for l, n := range counts {
		total += n
		weighted += int64(l) * n
	}
	if total == 0 {
		return 1
	}
	return float64(weighted) / float64(total*int64(NumLevels-1))
}

// EstimateSessionQoS derives the per-I-slot QoS series of a generated
// session: throughput from the volumetric slots, frame rate with the
// QoS-derived estimator of prior work (nominal fps degraded by bandwidth
// starvation and loss), and path lag from the session's network conditions.
func EstimateSessionQoS(s *gamesim.Session, i time.Duration) []SlotQoS {
	re := trace.Rebin(s.Slots, i)
	out := make([]SlotQoS, len(re))
	// Game streaming lag is input-to-display: the full RTT plus queueing.
	lagMs := s.Net.RTT.Seconds() * 1000
	if s.Net.BandwidthMbps > 0 && s.Net.BandwidthMbps < s.PeakDownMbps {
		// A saturated bottleneck queues: lag grows with the starvation ratio.
		lagMs += 40 * (s.PeakDownMbps/s.Net.BandwidthMbps - 1)
	}
	spans := s.Spans
	for k, slot := range re {
		mbps := slot.DownThroughputMbps(i)
		st := trace.StageAt(spans, time.Duration(k)*i)
		_, fpsFrac := stageDemand(st)
		fps := float64(s.Config.FPS) * fpsFrac
		// Bandwidth starvation stalls encoding: frame rate collapses with
		// the delivered/demanded ratio.
		if s.Net.BandwidthMbps > 0 {
			demand := s.PeakDownMbps * fpsFrac
			if demand > 0 && s.Net.BandwidthMbps < demand {
				fps *= s.Net.BandwidthMbps / demand
			}
		}
		fps *= 1 - 4*s.Net.LossRate // retransmission-free video drops frames on loss
		if fps < 0 {
			fps = 0
		}
		out[k] = SlotQoS{
			DownMbps:  mbps,
			FrameRate: fps,
			LagMs:     lagMs,
			LossRate:  s.Net.LossRate,
		}
	}
	return out
}

// GradeSession computes the paper's two per-session grades for a generated
// session: the objective level, and the effective level calibrated with the
// session's true context (title demand and per-slot ground-truth stage).
// The pipeline's online path grades with *classified* contexts instead; this
// helper is the ground-truth reference used by experiments.
func GradeSession(s *gamesim.Session, i time.Duration) (objective, effective Level) {
	var obj, eff [NumLevels]int64
	for k, q := range EstimateSessionQoS(s, i) {
		st := trace.StageAt(s.Spans, time.Duration(k)*i)
		obj[Objective(q)]++
		eff[Effective(q, Context{
			Demand: s.Title.Demand, Stage: st,
			SettingsMbps: s.PeakDownMbps, SettingsFPS: float64(s.Config.FPS),
		})]++
	}
	return SessionLevelFromCounts(obj), SessionLevelFromCounts(eff)
}
