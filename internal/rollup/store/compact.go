// Seal, compaction and GC — the archive's write side, all driven from
// Tick on the packet clock.
//
// Seal: a pending hour partition whose end the clock has passed by the
// linger margin is encoded canonically and written through the crash-safe
// persist protocol. A failed seal (full disk) is retried once per hour
// interval — never per drain — and the partition stays pending, so the
// failure costs durability latency, not data, until MaxPending evicts it.
//
// Compaction: once a coarse period (day, week) is closed — clock past its
// end plus linger, every finer partition inside it sealed and (for weeks)
// day-compacted — its fine partitions merge cell-wise in start order into
// one coarse partition. The merge is rollup.Counts.Merge, the exact
// addition the live window itself uses, so compaction is lossless by
// construction and byte-deterministic by the canonical cell order.
// Sources are NOT deleted here; that is GC's job, under retention.
//
// GC: a fine partition is removable once the clock passes its end by the
// tier's retention AND its compacted successor is durable. The watermark
// advances only in whole successor-span steps (so tier coverage hands
// over at aligned boundaries, never splitting a coarse cell), is written
// durably to the manifest BEFORE any file is deleted, and deletion is
// best-effort — orphans below the watermark are invisible to queries and
// reaped at the next Open.

package store

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"gamelens/internal/rollup"
)

// sealDueLocked writes every pending partition the clock has closed.
// force ignores the once-per-interval retry gate (Final's last chance).
func (s *Store) sealDueLocked(force bool) error {
	if !force && s.clockNs < s.sealRetryNs {
		return nil
	}
	hourNs := s.spansNs[TierHour]
	sealedAny := false
	for _, start := range sortedKeys(s.pending, cmp.Compare[int64]) {
		if start+hourNs+int64(s.cfg.Linger) > s.clockNs {
			break // this and every later partition is still open
		}
		if err := s.writePartition(TierHour, start, sortedCells(s.pending[start].subs)); err != nil {
			s.sealFailures++
			s.sealRetryNs = s.clockNs + hourNs
			return fmt.Errorf("store: sealing %s: %w", partName(TierHour, start), err)
		}
		delete(s.pending, start)
		s.sealed++
		s.markSealedBelowLocked(start + hourNs)
		s.pendingDirty = true
		sealedAny = true
	}
	if sealedAny {
		// Shrink the durable tail now: the sealed partitions' cells are
		// on disk twice until this flush lands, and Open's sealed-file-
		// wins reconciliation is what makes that window safe.
		return s.flushPendingLocked()
	}
	return nil
}

// compactLocked folds closed fine periods into their coarse successors,
// day first so a week can pick up days minted in the same Tick.
func (s *Store) compactLocked() error {
	if s.clockNs < s.compactRetryNs {
		return nil
	}
	for coarse := TierDay; coarse < numTiers; coarse++ {
		fine := coarse - 1
		spanNs := s.spansNs[coarse]
		periods := map[int64]bool{}
		//gamelens:sorted a set of period starts; visited in sorted order just below
		for start := range s.parts[fine] {
			periods[rollup.FloorDiv(start, spanNs)*spanNs] = true
		}
		for _, period := range sortedKeys(periods, cmp.Compare[int64]) {
			if _, done := s.parts[coarse][period]; done {
				continue
			}
			if period+spanNs+int64(s.cfg.Linger) > s.clockNs {
				continue // period still open
			}
			if !s.periodSettledLocked(fine, period, spanNs) {
				continue // a finer stage has not finished; retry next Tick
			}
			if err := s.compactPeriodLocked(fine, coarse, period, spanNs); err != nil {
				s.compactFailures++
				s.compactRetryNs = s.clockNs + s.spansNs[TierHour]
				return err
			}
			s.compactions++
		}
	}
	return nil
}

// periodSettledLocked reports whether every finer stage inside
// [period, period+spanNs) has finished: no hour partition is still
// pending in memory, and — when compacting weeks — every day inside the
// period that has hour-tier data has already been day-compacted.
func (s *Store) periodSettledLocked(fine Tier, period, spanNs int64) bool {
	//gamelens:sorted existence scan; order invisible
	for start := range s.pending {
		if start >= period && start < period+spanNs {
			return false
		}
	}
	if fine == TierDay {
		dayNs := s.spansNs[TierDay]
		//gamelens:sorted existence scan; order invisible
		for start := range s.parts[TierHour] {
			if start < period || start >= period+spanNs {
				continue
			}
			day := rollup.FloorDiv(start, dayNs) * dayNs
			if _, done := s.parts[TierDay][day]; !done {
				return false
			}
		}
	}
	return true
}

// compactPeriodLocked merges the fine partitions of one closed period —
// in partition start order, cell-wise per subscriber — and writes the
// coarse result.
func (s *Store) compactPeriodLocked(fine, coarse Tier, period, spanNs int64) error {
	var sources [][]rollup.Aggregate
	for _, start := range sortedKeys(s.parts[fine], cmp.Compare[int64]) {
		if start >= period && start < period+spanNs {
			sources = append(sources, s.parts[fine][start].Subs)
		}
	}
	if len(sources) == 0 {
		return nil // an empty period compacts to nothing
	}
	if err := s.writePartition(coarse, period, foldCells(sources)); err != nil {
		return fmt.Errorf("store: compacting %s: %w", partName(coarse, period), err)
	}
	return nil
}

// foldCells merges runs of cells — each sorted by address, the runs in the
// order given (callers pass time order, so every float sum adds up in one
// reproducible order) — cell-wise per subscriber, and returns the sums
// sorted by address. The results own their maps and sketches; the inputs are
// only read.
func foldCells(runs [][]rollup.Aggregate) []rollup.Aggregate {
	merged := map[netip.Addr]*rollup.Counts{}
	for _, cells := range runs {
		for i := range cells {
			acc := merged[cells[i].Subscriber]
			if acc == nil {
				acc = &rollup.Counts{}
				merged[cells[i].Subscriber] = acc
			}
			acc.Merge(&cells[i].Window)
		}
	}
	return sortedCells(merged)
}

// gcLocked advances the per-tier watermarks past expired, successor-
// covered partitions — durably, manifest first — then deletes the files.
func (s *Store) gcLocked() error {
	type sweep struct {
		tier     Tier
		toDelete []int64
	}
	var sweeps []sweep
	changed := false
	oldGC := s.gc
	for fine := TierHour; fine < numTiers; fine++ {
		if s.cfg.Retain[fine] < 0 {
			continue // retained forever
		}
		// The watermark aligns to the successor tier's span (weeks, the
		// top tier, align to themselves: expiry there is final deletion).
		alignNs := s.spansNs[TierWeek]
		if fine < TierWeek {
			alignNs = s.spansNs[fine+1]
		}
		cutoff := s.clockNs - int64(s.cfg.Retain[fine])
		bound := rollup.FloorDiv(cutoff, alignNs) * alignNs
		if s.gc[fine] != watermarkUnset && bound <= s.gc[fine] {
			continue
		}
		starts := sortedKeys(s.parts[fine], cmp.Compare[int64])
		below, _ := slices.BinarySearch(starts, bound)
		starts = starts[:below]
		if len(starts) == 0 {
			continue // nothing to collect; don't churn the manifest
		}
		// Never advance past a partition whose compacted successor is
		// not durable: clamp the watermark down to that period's start.
		if fine < TierWeek {
			for _, start := range starts {
				period := rollup.FloorDiv(start, alignNs) * alignNs
				if _, ok := s.parts[fine+1][period]; !ok {
					bound = period
					break
				}
			}
		}
		if s.gc[fine] != watermarkUnset && bound <= s.gc[fine] {
			continue
		}
		del := starts[:0]
		for _, start := range starts {
			if start < bound {
				del = append(del, start)
			}
		}
		if len(del) == 0 {
			continue
		}
		s.gc[fine] = bound
		changed = true
		sweeps = append(sweeps, sweep{tier: fine, toDelete: del})
	}
	if !changed {
		return nil
	}
	if err := s.writeManifest(); err != nil {
		s.gc = oldGC // stay honest: nothing below the durable watermark may be deleted
		return fmt.Errorf("store: gc watermark: %w", err)
	}
	for _, sw := range sweeps {
		for _, start := range sw.toDelete {
			if s.cfg.FS.Remove(s.partPath(sw.tier, start)) == nil {
				s.removed++
			}
			// Out of the index either way: below the watermark the file
			// is dead to queries, and Open reaps stragglers.
			delete(s.parts[sw.tier], start)
		}
	}
	return nil
}
