// The cross-tier query path. A query range maps every instant to exactly
// one source — the unsealed pending tail, or the one archive tier covering
// it — via the GC watermarks: the hour tier covers everything at or above
// its watermark, the day tier covers [day watermark, hour watermark), the
// week tier covers [week watermark, day watermark). Because watermarks
// advance only in whole successor-span steps, a coarse partition is either
// entirely the covering source for its span or entirely shadowed by finer
// partitions — a range is never double-counted across tiers.
//
// Resolution follows the covering tier: a partition (or pending cell)
// contributes whole if its span intersects the query range. Results are
// canonical — subscribers sorted by address, per-subscriber merges in
// ascending partition-start order — so the same archive state answers the
// same query byte-identically on every run.

package store

import (
	"sort"
	"time"

	"gamelens/internal/rollup"
)

// visibleLocked reports whether the tier partition starting at startNs is
// its range's covering tier.
func (s *Store) visibleLocked(tier Tier, startNs int64) bool {
	endNs := startNs + s.spansNs[tier]
	switch tier {
	case TierHour:
		return s.gc[TierHour] == watermarkUnset || startNs >= s.gc[TierHour]
	case TierDay:
		return s.gc[TierHour] != watermarkUnset && endNs <= s.gc[TierHour] &&
			(s.gc[TierDay] == watermarkUnset || startNs >= s.gc[TierDay])
	default:
		return s.gc[TierDay] != watermarkUnset && endNs <= s.gc[TierDay] &&
			(s.gc[TierWeek] == watermarkUnset || startNs >= s.gc[TierWeek])
	}
}

// slice is one time-ordered contribution to a query: a visible partition's
// cells or a pending partition's.
type slice struct {
	startNs int64
	cells   []rollup.Aggregate
}

// slicesLocked collects every contribution intersecting [fromNs, toNs),
// sorted by start (contributions never overlap, so start order is total
// time order).
func (s *Store) slicesLocked(fromNs, toNs int64) [][]rollup.Aggregate {
	var out []slice
	for t := TierHour; t < numTiers; t++ {
		spanNs := s.spansNs[t]
		//gamelens:sorted contributions are sorted by start just below
		for start, p := range s.parts[t] {
			if start+spanNs <= fromNs || start >= toNs {
				continue
			}
			if !s.visibleLocked(t, start) {
				continue
			}
			out = append(out, slice{startNs: start, cells: p.Subs})
		}
	}
	hourNs := s.spansNs[TierHour]
	//gamelens:sorted contributions are sorted by start just below
	for start, p := range s.pending {
		if start+hourNs <= fromNs || start >= toNs {
			continue
		}
		out = append(out, slice{startNs: start, cells: sortedCells(p.subs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].startNs < out[j].startNs })
	runs := make([][]rollup.Aggregate, len(out))
	for i := range out {
		runs[i] = out[i].cells
	}
	return runs
}

// Range returns the per-subscriber aggregates over [from, to) — archive
// and unsealed tail together — sorted by address. Resolution is the
// covering tier's partition span: a partition intersecting the range
// contributes whole.
func (s *Store) Range(from, to time.Time) []rollup.Aggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return foldCells(s.slicesLocked(from.UnixNano(), to.UnixNano()))
}

// Total returns the fleet-wide aggregate over [from, to): every
// subscriber's range aggregate folded in address order. Fleet percentiles
// are Total(...).ThroughputPercentiles() / QoEProxyPercentiles() — the
// sketches merge exactly, so the fleet distribution is the true union of
// the per-session samples, not an average of averages.
func (s *Store) Total(from, to time.Time) rollup.Counts {
	var total rollup.Counts
	for _, agg := range s.Range(from, to) {
		total.Merge(&agg.Window)
	}
	return total
}

// TopImpaired returns the k most impaired subscribers over [from, to):
// ranked by the share of sessions whose effective QoE fell below "good"
// (descending), ties broken toward more sessions, then by address — a
// total order, so the cut at k is deterministic.
func (s *Store) TopImpaired(from, to time.Time, k int) []rollup.Aggregate {
	aggs := s.Range(from, to)
	impairment := func(a *rollup.Aggregate) float64 { return 1 - a.Window.GoodShare(true) }
	sort.SliceStable(aggs, func(i, j int) bool {
		ii, ij := impairment(&aggs[i]), impairment(&aggs[j])
		if ii != ij {
			return ii > ij
		}
		if aggs[i].Window.Sessions != aggs[j].Window.Sessions {
			return aggs[i].Window.Sessions > aggs[j].Window.Sessions
		}
		return aggs[i].Subscriber.Compare(aggs[j].Subscriber) < 0
	})
	if k >= 0 && len(aggs) > k {
		aggs = aggs[:k]
	}
	return aggs
}
