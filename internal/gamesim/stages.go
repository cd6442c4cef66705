package gamesim

import (
	"math/rand"
	"time"

	"gamelens/internal/trace"
)

// patternModel holds the semi-Markov player-activity model of one gameplay
// activity pattern: the stage-transition probabilities of Fig 5 and base
// mean dwell times chosen so the stationary playtime shares match the
// paper's (spectate-and-play: 21% idle / 55.6% active / 23.4% passive;
// continuous-play: 20.3% / 65.4% / 4.3%).
type patternModel struct {
	// trans[from][to] for from,to in {idle, active, passive}.
	idleToActive    float64 // remainder goes to passive
	activeToPassive float64 // remainder goes to idle
	passiveToActive float64 // remainder goes to idle

	idleDwell, activeDwell, passiveDwell float64 // seconds
}

var patternModels = map[Pattern]patternModel{
	SpectateAndPlay: {
		idleToActive:    0.68,
		activeToPassive: 0.61,
		passiveToActive: 0.77,
		// Visit-rate solution of the Fig 5(a) chain gives dwell ratios
		// 21 : 31.8 : 16.9 for the target shares; scaled to realistic
		// match/lobby lengths.
		idleDwell: 50, activeDwell: 76, passiveDwell: 41,
	},
	ContinuousPlay: {
		idleToActive:    0.96,
		activeToPassive: 0.08,
		passiveToActive: 0.96,
		// Fig 5(b) chain: dwell ratios 20.3 : 60.5 : 34.0.
		idleDwell: 24.4, activeDwell: 73, passiveDwell: 41,
	},
}

// GenerateStages builds the ground-truth stage timeline of one session of
// title t lasting roughly sessionLen: the launch stage (the title's launch
// signature duration) followed by a semi-Markov walk over idle, active and
// passive stages, closed by a final idle period ("back to the hub").
func GenerateStages(t Title, sessionLen time.Duration, rng *rand.Rand) []trace.Span {
	m := patternModels[t.Pattern]
	sig := launchSigFor(t)
	var spans []trace.Span
	cur := time.Duration(0)
	add := func(st trace.Stage, d time.Duration) {
		spans = append(spans, trace.Span{Stage: st, Start: cur, End: cur + d})
		cur += d
	}
	add(trace.StageLaunch, sig.Duration())

	dwell := func(st trace.Stage) time.Duration {
		var mean float64
		switch st {
		case trace.StageIdle:
			mean = m.idleDwell * t.IdleDwell
		case trace.StageActive:
			mean = m.activeDwell * t.ActiveDwell
		case trace.StagePassive:
			mean = m.passiveDwell * t.PassiveDwell
		}
		d := rng.ExpFloat64() * mean
		if d < 5 {
			d = 5
		}
		return time.Duration(d * float64(time.Second))
	}

	st := trace.StageIdle // sessions always enter the lobby first
	for cur < sessionLen {
		add(st, dwell(st))
		switch st {
		case trace.StageIdle:
			if rng.Float64() < m.idleToActive {
				st = trace.StageActive
			} else {
				st = trace.StagePassive
			}
		case trace.StageActive:
			if rng.Float64() < m.activeToPassive {
				st = trace.StagePassive
			} else {
				st = trace.StageIdle
			}
		case trace.StagePassive:
			if rng.Float64() < m.passiveToActive {
				st = trace.StageActive
			} else {
				st = trace.StageIdle
			}
		}
	}
	// Close with a short idle tail if the walk didn't end idle.
	if spans[len(spans)-1].Stage != trace.StageIdle {
		add(trace.StageIdle, time.Duration(8+rng.Intn(15))*time.Second)
	}
	return spans
}

// StageShares returns the fraction of non-launch playtime spent per stage
// (indexed by trace.Stage; the launch entry holds the launch share of the
// whole session).
func StageShares(spans []trace.Span) [trace.NumStages]float64 {
	var dur [trace.NumStages]time.Duration
	var total, play time.Duration
	for _, s := range spans {
		dur[s.Stage] += s.Duration()
		total += s.Duration()
		if s.Stage != trace.StageLaunch {
			play += s.Duration()
		}
	}
	var out [trace.NumStages]float64
	if play > 0 {
		for st := 1; st < trace.NumStages; st++ {
			out[st] = float64(dur[trace.Stage(st)]) / float64(play)
		}
	}
	if total > 0 {
		out[trace.StageLaunch] = float64(dur[trace.StageLaunch]) / float64(total)
	}
	return out
}
