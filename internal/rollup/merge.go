// Multi-monitor merge: N taps — one per vantage point of the access
// network — each maintain their own rollup and checkpoint independently;
// Merge folds them into one fleet view, the cmd/rollupmerge CLI's engine.
//
// Semantics, precisely:
//
//   - Geometry must match exactly (Window and Buckets, after defaults).
//     Re-bucketing on the fly would smear aggregates across bucket
//     boundaries, so a mismatch is an error, never a best effort.
//   - The merged clock is the max of the two clocks, and the merged window
//     is measured from it: buckets that have aged out of the merged window
//     — on either side — are dropped silently, exactly as a single tap
//     silently prunes buckets its own advancing clock ages out (they stay
//     in Stats.Ingested, never move to Late). That keeps the accounting
//     identical to the single-tap run even when the taps' clocks are
//     skewed by more than a window, and sweeping both sides makes Merge
//     direction-symmetric: a.Merge(b) and b.Merge(a) reach byte-identical
//     checkpoints.
//   - Disjoint subscriber sets (the expected deployment: each tap covers
//     its own access segment) simply union. Merging per-tap state over a
//     partitioned entry stream reproduces the single-tap rollup exactly —
//     byte-identical checkpoints — because every aggregate, sketches
//     included, is pure cell-wise addition.
//   - Overlapping subscribers (a household whose flows split across taps,
//     e.g. multipath or asymmetric routing) are defined explicitly: buckets
//     with the same absolute index add cell-wise, so the subscriber's
//     window is the union-sum of what each tap saw. Merge assumes each
//     *session* was reported by exactly one tap; a session duplicated to
//     two taps is counted twice, like any double-reported entry would be.
//   - Stats.Ingested and Stats.Late accumulate across taps (the fleet view
//     counts everything any tap absorbed).

package rollup

import (
	"errors"
	"fmt"
	"net/netip"
)

// Merge folds tap's window state into r, leaving tap untouched (everything
// is deep-copied). Both rollups may keep ingesting afterwards; r and tap
// are locked one at a time, never together, so Merge cannot deadlock
// against concurrent Observes or a crossing Merge.
func (r *Rollup) Merge(tap *Rollup) error {
	if r == tap {
		return errors.New("rollup: cannot merge a rollup into itself")
	}
	// cfg is immutable after construction, so the geometry check needs no
	// lock — and refusing here skips the deep copy below entirely.
	if tap.cfg != r.cfg {
		return fmt.Errorf("rollup: window geometry mismatch: cannot merge %v/%d buckets into %v/%d",
			tap.cfg.Window, tap.cfg.Buckets, r.cfg.Window, r.cfg.Buckets)
	}

	// Extract tap's state under its own lock first — deep copies, so the
	// fold below can own what it inserts. Only slots live under tap's own
	// clock are copied: the merged clock is never older than tap's, so a
	// bucket tap has already aged out is one the fold would drop anyway, and
	// cloning it first cost two sketch buffers per stale slot.
	type tapBucket struct {
		addr   netip.Addr
		idx    int64
		counts Counts
	}
	tap.mu.Lock()
	tapClockNs, tapHasClock := tap.clockNs, tap.hasClock
	tapIngested, tapLate := tap.ingested, tap.late
	var buckets []tapBucket
	//gamelens:sorted extraction order is erased by the commutative fold below
	for addr, sub := range tap.subs {
		for i := range sub.ring {
			b := &sub.ring[i]
			if b.idx != noBucket && tap.liveLocked(b.idx) {
				buckets = append(buckets, tapBucket{addr: addr, idx: b.idx, counts: b.counts.Clone()})
			}
		}
	}
	tap.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	if tapHasClock {
		r.advanceLocked(tapClockNs)
	}
	r.ingested += tapIngested
	r.late += tapLate
	// Sweep r's own buckets that the merged clock just aged out — silently,
	// as Snapshot would prune them — so both directions end identically
	// (the incoming stale buckets get the same treatment in the fold
	// below).
	//gamelens:sorted per-subscriber sweep; no cross-subscriber order effect
	for _, sub := range r.subs {
		for i := range sub.ring {
			b := &sub.ring[i]
			if b.idx != noBucket && !r.liveLocked(b.idx) {
				*b = bucket{idx: noBucket}
			}
		}
	}
	// Fold order over the map-ordered bucket list is irrelevant: each
	// (subscriber, index) cell adds independently, and liveness is judged
	// against the already-merged clock.
	for _, b := range buckets {
		if !r.liveLocked(b.idx) {
			continue // aged out of the merged window: prune, as a snapshot would
		}
		sub := r.subs[b.addr]
		if sub == nil {
			sub = newSubscriber(r.cfg.Buckets)
			r.subs[b.addr] = sub
		}
		// After the sweep above, every occupied slot in r is live, so the
		// slot either holds exactly this bucket number or is free: two
		// distinct live bucket numbers cannot share a ring slot (they
		// would differ by at least Buckets widths, a whole window).
		slot := &sub.ring[r.pos(b.idx)]
		if slot.idx == b.idx {
			slot.counts.Merge(&b.counts)
		} else if slot.idx == noBucket {
			*slot = bucket{idx: b.idx, counts: b.counts}
			sub.newest = max(sub.newest, b.idx)
		}
	}
	return nil
}
