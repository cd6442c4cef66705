package fleet

import (
	"sort"

	"gamelens/internal/gamesim"
	"gamelens/internal/qoe"
	"gamelens/internal/trace"
)

// Aggregate is the roll-up of one group of sessions behind Fig 11, 12, 13.
type Aggregate struct {
	Sessions int
	// MeanStageMinutes is the average per-session minutes spent in each
	// classified stage (Fig 11).
	MeanStageMinutes [trace.NumStages]float64
	// Throughputs holds the per-session mean downstream Mbps, sorted
	// (Fig 12 box ranges).
	Throughputs []float64
	// ObjectiveShare and EffectiveShare are session fractions per QoE
	// level (Fig 13).
	ObjectiveShare [qoe.NumLevels]float64
	EffectiveShare [qoe.NumLevels]float64
}

// TitleAggregate is the roll-up per classified title (Fig 11a, 12a, 13a).
type TitleAggregate struct {
	Title gamesim.TitleID
	Aggregate
}

// PatternAggregate is the same roll-up for long-tail sessions grouped by
// inferred gameplay activity pattern (Fig 11b, 12b, 13b).
type PatternAggregate struct {
	Pattern gamesim.Pattern
	Aggregate
}

// Validation is the §5 field-validation summary: online title classification
// vs offline server logs.
type Validation struct {
	// CatalogSessions is how many sessions played catalog titles.
	CatalogSessions int
	// KnownResults is how many of those the classifier labeled confidently.
	KnownResults int
	// Correct is how many confident labels matched the server log.
	Correct int
	// PatternSessions / PatternCorrect validate the pattern inference on
	// long-tail sessions.
	PatternSessions int
	PatternCorrect  int
}

// TitleAccuracy returns the confident-label accuracy.
func (v Validation) TitleAccuracy() float64 {
	if v.KnownResults == 0 {
		return 0
	}
	return float64(v.Correct) / float64(v.KnownResults)
}

// PatternAccuracy returns the long-tail pattern accuracy.
func (v Validation) PatternAccuracy() float64 {
	if v.PatternSessions == 0 {
		return 0
	}
	return float64(v.PatternCorrect) / float64(v.PatternSessions)
}

// aggregate is the one grouped fold: group tells which of n groups a record
// belongs to, or that it belongs to none. Groups come back indexed by group,
// empty ones included.
func aggregate(records []*SessionRecord, n int, group func(*SessionRecord) (int, bool)) []Aggregate {
	aggs := make([]Aggregate, n)
	for _, r := range records {
		g, ok := group(r)
		if !ok {
			continue
		}
		agg := &aggs[g]
		agg.Sessions++
		for st := range r.StageMinutes {
			agg.MeanStageMinutes[st] += r.StageMinutes[st]
		}
		agg.Throughputs = append(agg.Throughputs, r.MeanDownMbps)
		agg.ObjectiveShare[r.Objective]++
		agg.EffectiveShare[r.Effective]++
	}
	for g := range aggs {
		agg := &aggs[g]
		if agg.Sessions == 0 {
			continue
		}
		count := float64(agg.Sessions)
		for st := range agg.MeanStageMinutes {
			agg.MeanStageMinutes[st] /= count
		}
		for l := range agg.ObjectiveShare {
			agg.ObjectiveShare[l] /= count
			agg.EffectiveShare[l] /= count
		}
		sort.Float64s(agg.Throughputs)
	}
	return aggs
}

// AggregateByTitle rolls sessions up per *classified* title, in title order
// (unknown-title sessions are skipped, titles nobody played are omitted):
// the view the operator sees online.
func AggregateByTitle(records []*SessionRecord) []*TitleAggregate {
	var out []*TitleAggregate
	for id, agg := range aggregate(records, int(gamesim.NumTitles), func(r *SessionRecord) (int, bool) {
		return int(r.TitleResult.Title), r.TitleResult.Known
	}) {
		if agg.Sessions > 0 {
			out = append(out, &TitleAggregate{gamesim.TitleID(id), agg})
		}
	}
	return out
}

// AggregateByPattern rolls the sessions the classifier could NOT name (the
// long tail) up by inferred gameplay activity pattern, one entry per
// pattern.
func AggregateByPattern(records []*SessionRecord) []*PatternAggregate {
	var out []*PatternAggregate
	for p, agg := range aggregate(records, gamesim.NumPatterns, func(r *SessionRecord) (int, bool) {
		return int(r.PatternResult.Pattern), !r.TitleResult.Known
	}) {
		out = append(out, &PatternAggregate{gamesim.Pattern(p), agg})
	}
	return out
}

// Validate compares the online classifications against the ground truth (the
// offline server logs of §5).
func Validate(records []*SessionRecord) Validation {
	var v Validation
	for _, r := range records {
		if r.InCatalog {
			v.CatalogSessions++
			if r.TitleResult.Known {
				v.KnownResults++
				if r.TitleResult.Title == r.Title.ID {
					v.Correct++
				}
			}
		} else {
			v.PatternSessions++
			if r.PatternResult.Pattern == r.Pattern {
				v.PatternCorrect++
			}
		}
	}
	return v
}

// Percentile returns the p-quantile (0..1) of a sorted slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
