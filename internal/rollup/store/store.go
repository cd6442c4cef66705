// Package store is the tiered historical rollup archive: it seals
// expiring live-window aggregates into time-partitioned files (hour tier),
// compacts them losslessly into coarser tiers (hour→day→week) with the
// sketch's exact cell-wise merge, garbage-collects expired partitions
// under a retention policy, and serves queries — per-subscriber time-range
// aggregates, fleet percentiles, top-K impaired — spanning the unsealed
// tail and the archive with canonical deterministic output.
//
// The store taps the same report stream as the live rollup window
// (Observe/ObserveBatch/ObserveReports) and accumulates per-subscriber cells
// per hour partition in memory; once the packet clock passes a partition's
// end by the linger margin, Tick seals it to disk through the crash-safe
// persist protocol (write-temp, fsync, rename, fsync dir) with the shared CRC
// integrity footer. Everything advances on the packet clock: Tick rides
// the engine emitter's drain path via rollup.CheckpointerConfig.Archive,
// so sealing, compaction and GC never touch the wall clock and replay
// byte-identically.
//
// Crash-safety contracts, in faultinject vocabulary: a source partition is
// never deleted until its compacted successor is durable AND the tier's GC
// watermark has been durably advanced past it in the manifest (queries
// switch tiers on the watermark, so a crash between manifest write and
// file removal leaves orphans that are ignored and re-deleted, never
// double-counted). A torn or corrupt partition quarantines aside as
// name.corrupt-N (persist.Quarantine, as checkpoints do), its sources are
// retained, and the next Tick recompacts byte-identically. A failed seal
// (full disk) is retried at most once per partition interval and never blocks
// ingest; MaxPending bounds the memory a persistently failing disk can
// pin, dropping whole oldest partitions with a counter.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/persist"
	"gamelens/internal/rollup"
)

// Tier indexes the three archive granularities, finest first. The names
// are logical: tests shrink the spans, production keeps the defaults.
type Tier int

const (
	TierHour Tier = iota
	TierDay
	TierWeek
	numTiers
)

// tierNames are baked into partition file names (hour-<startNs>.part).
var tierNames = [numTiers]string{"hour", "day", "week"}

func (t Tier) String() string {
	if t < 0 || t >= numTiers {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return tierNames[t]
}

// Config tunes a Store.
type Config struct {
	// Dir is the archive directory (created if missing).
	Dir string
	// FS is the persist filesystem seam (nil = the real filesystem).
	FS persist.FS
	// Spans are the tier partition widths, finest first. Defaults: 1h,
	// 24h, 168h. Each span must divide the next evenly — watermark-based
	// tier coverage depends on coarse partitions aligning to whole runs
	// of fine ones.
	Spans [numTiers]time.Duration
	// Linger is how far the packet clock must pass a partition's end
	// before it seals, absorbing shard skew and late session ends.
	// Default: Spans[TierHour]/12 (five minutes at default spans).
	Linger time.Duration
	// Retain is the per-tier retention: a partition is GC-eligible once
	// the packet clock passes its end by Retain[tier] (and, below the
	// week tier, its compacted successor is durable). Hour and day
	// watermarks advance only in whole successor-span steps, so coverage
	// hands over cleanly. Defaults: 2·day span, 5·week span, 52·week
	// span. Negative retains forever.
	Retain [numTiers]time.Duration
	// FlushEvery bounds how many entries may be absorbed between
	// PENDING.json flushes (default 256): a crash loses at most that
	// much unsealed tail beyond the last Tick.
	FlushEvery int
	// MaxPending bounds in-memory unsealed partitions (default 64). When
	// a persistently failing disk keeps seals from landing, the oldest
	// pending partition is dropped whole (Stats.PendingDropped) rather
	// than letting ingest grow memory without bound.
	MaxPending int
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = persist.OS
	}
	if c.Spans[TierHour] <= 0 {
		c.Spans[TierHour] = time.Hour
	}
	if c.Spans[TierDay] <= 0 {
		c.Spans[TierDay] = 24 * time.Hour
	}
	if c.Spans[TierWeek] <= 0 {
		c.Spans[TierWeek] = 7 * 24 * time.Hour
	}
	if c.Linger <= 0 {
		c.Linger = c.Spans[TierHour] / 12
	}
	if c.Retain[TierHour] == 0 {
		c.Retain[TierHour] = 2 * c.Spans[TierDay]
	}
	if c.Retain[TierDay] == 0 {
		c.Retain[TierDay] = 5 * c.Spans[TierWeek]
	}
	if c.Retain[TierWeek] == 0 {
		c.Retain[TierWeek] = 52 * c.Spans[TierWeek]
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 256
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 64
	}
	return c
}

func (c Config) validate() error {
	for t := TierHour; t < TierWeek; t++ {
		fine, coarse := int64(c.Spans[t]), int64(c.Spans[t+1])
		if coarse%fine != 0 || coarse <= fine {
			return fmt.Errorf("store: %s span %v does not divide %s span %v",
				t, c.Spans[t], t+1, c.Spans[t+1])
		}
	}
	return nil
}

// pendingPart is an hour partition still accumulating in memory. The
// per-subscriber map carries cells in arrival order per subscriber, so the
// float sums inside each cell are reproduced exactly by any run that
// preserves per-subscriber entry order — which the engine does at every
// shard count (a subscriber is sticky to one shard).
type pendingPart struct {
	startNs int64
	subs    map[netip.Addr]*rollup.Counts
}

// Stats are the store's observability counters.
type Stats struct {
	// Ingested counts entries absorbed; Late counts entries rejected
	// because their partition had already sealed (or their subscriber
	// address / end timestamp was invalid).
	Ingested int64
	Late     int64
	// Sealed counts partitions written; SealFailures counts seal
	// attempts that failed after the persist protocol gave up;
	// PendingDropped counts pending partitions evicted whole by the
	// MaxPending bound.
	Sealed         int64
	SealFailures   int64
	PendingDropped int64
	// Compactions counts coarse partitions written; CompactFailures
	// counts failed attempts; Removed counts partition files deleted by
	// GC.
	Compactions     int64
	CompactFailures int64
	Removed         int64
	// Pending is the number of unsealed in-memory partitions; Partitions
	// is the durable partition count per tier.
	Pending    int
	Partitions [numTiers]int
	// Quarantined lists corrupt files renamed aside (their new paths),
	// in discovery order.
	Quarantined []string
}

// Store is the subsystem root. All methods are safe for concurrent use;
// ingest (Observe) and maintenance (Tick) share one lock, and every
// maintenance step is bounded, so ingest never waits on disk retry loops.
type Store struct {
	cfg     Config
	spansNs [numTiers]int64

	mu      sync.Mutex
	pending map[int64]*pendingPart
	parts   [numTiers]map[int64]*Partition // durable, validated partitions by start
	gc      [numTiers]int64                // watermark: partitions below are deleted

	clockNs  int64
	hasClock bool
	// sealedBelowNs: every hour partition starting below this is final —
	// sealed, dropped, or forever empty. Entries landing below it are
	// late (folding them in would mutate a sealed file's ground truth).
	sealedBelowNs   int64
	hasSealedBelow  bool
	sealRetryNs     int64 // packet-clock gate for the next seal attempt after a failure
	compactRetryNs  int64 // same, for compaction
	ingested, late  int64
	sealed          int64
	sealFailures    int64
	pendingDropped  int64
	compactions     int64
	compactFailures int64
	removed         int64
	quarantined     []string
	sinceFlush      int // entries absorbed since PENDING.json last flushed
	pendingDirty    bool
}

// Open opens (or initializes) the archive at cfg.Dir: creates the
// directory, loads or writes the manifest (rejecting a geometry mismatch —
// partitions sealed under one span set cannot be reinterpreted under
// another; a caller that configured no spans at all adopts the archive's
// own manifest geometry instead, so query tools need no span flags), scans
// and validates every partition file (quarantining corrupt ones, discarding
// files below their tier's GC watermark), and restores the unsealed tail
// from PENDING.json, dropping any pending partition that already sealed
// (the durable file wins).
func Open(cfg Config) (*Store, error) {
	if cfg.FS == nil {
		cfg.FS = persist.OS
	}
	manifest, err := readManifestDoc(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	if manifest != nil && cfg.Spans == ([numTiers]time.Duration{}) {
		for t := range cfg.Spans {
			cfg.Spans[t] = time.Duration(manifest.SpansNs[t])
		}
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, pending: map[int64]*pendingPart{}}
	for t := range s.spansNs {
		s.spansNs[t] = int64(cfg.Spans[t])
		s.parts[t] = map[int64]*Partition{}
		s.gc[t] = watermarkUnset
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", cfg.Dir, err)
	}
	if manifest == nil {
		if err := s.writeManifest(); err != nil {
			return nil, err
		}
	} else if err := s.applyManifest(manifest); err != nil {
		return nil, err
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	if err := s.loadPending(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan indexes and validates the partition files on disk.
func (s *Store) scan() error {
	names, err := s.cfg.FS.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.cfg.Dir, err)
	}
	// Deterministic visit order regardless of filesystem: quarantine
	// numbering and leftover-cleanup order must replay identically.
	sort.Strings(names)
	for _, name := range names {
		if strings.Contains(name, ".tmp-") {
			// A crash mid-write leaves persist temp files; they were
			// never renamed into place, so they hold nothing durable.
			s.cfg.FS.Remove(filepath.Join(s.cfg.Dir, name))
			continue
		}
		tier, startNs, ok := parsePartName(name)
		if !ok {
			continue
		}
		path := filepath.Join(s.cfg.Dir, name)
		if s.gc[tier] != watermarkUnset && startNs < s.gc[tier] {
			// Below the durable watermark: GC crashed between manifest
			// write and removal. Queries already ignore it; finish the
			// delete (best effort).
			if s.cfg.FS.Remove(path) == nil {
				s.removed++
			}
			continue
		}
		p, err := s.loadPartition(path)
		if err != nil {
			if to, qerr := persist.Quarantine(s.cfg.FS, path); qerr == nil {
				s.quarantined = append(s.quarantined, to)
			}
			continue
		}
		s.parts[tier][startNs] = p
	}
	return nil
}

// Observe folds one finished-session entry into its hour partition.
// Entries whose partition has already sealed are counted late and
// dropped, mirroring the live window's late accounting: a sealed file is
// immutable ground truth.
func (s *Store) Observe(e rollup.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observeLocked(e)
}

// ObserveBatch folds a batch under one lock acquisition.
func (s *Store) ObserveBatch(entries []rollup.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.observeLocked(e)
	}
}

// ObserveReports distills and folds engine session reports — the method
// value is an engine BatchSink; compose it with the live rollup's
// ObserveReports so both views tap the same entries.
func (s *Store) ObserveReports(reports []*core.SessionReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range reports {
		s.observeLocked(rollup.FromReport(r))
	}
}

func (s *Store) observeLocked(e rollup.Entry) {
	if !e.Subscriber.IsValid() || e.End.IsZero() {
		s.late++
		return
	}
	ns := e.End.UnixNano()
	if !s.hasClock || ns > s.clockNs {
		s.clockNs, s.hasClock = ns, true
	}
	hourNs := s.spansNs[TierHour]
	start := rollup.FloorDiv(ns, hourNs) * hourNs
	if s.hasSealedBelow && start < s.sealedBelowNs {
		s.late++
		return
	}
	p := s.pending[start]
	if p == nil {
		p = &pendingPart{startNs: start, subs: map[netip.Addr]*rollup.Counts{}}
		s.pending[start] = p
		s.boundPendingLocked()
	}
	c := p.subs[e.Subscriber]
	if c == nil {
		c = &rollup.Counts{}
		p.subs[e.Subscriber] = c
	}
	c.Add(e)
	s.ingested++
	s.sinceFlush++
	s.pendingDirty = true
}

// boundPendingLocked enforces MaxPending by dropping the oldest pending
// partition whole — the only path that loses data, taken only when the
// disk has kept seals from landing for MaxPending partition intervals.
func (s *Store) boundPendingLocked() {
	for len(s.pending) > s.cfg.MaxPending {
		oldest := sortedKeys(s.pending, cmp.Compare[int64])[0]
		delete(s.pending, oldest)
		s.pendingDropped++
		s.markSealedBelowLocked(oldest + s.spansNs[TierHour])
	}
}

// sortedKeys returns m's keys in compare's order — the one place the store
// turns a map into a deterministic visiting order.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	//gamelens:sorted keys are collected here and sorted just below
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

func (s *Store) markSealedBelowLocked(ns int64) {
	if !s.hasSealedBelow || ns > s.sealedBelowNs {
		s.sealedBelowNs, s.hasSealedBelow = ns, true
	}
}

// Clock returns the store's packet-time clock (zero before any entry).
func (s *Store) Clock() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasClock {
		return time.Time{}
	}
	return time.Unix(0, s.clockNs)
}

// Stats returns the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Ingested:        s.ingested,
		Late:            s.late,
		Sealed:          s.sealed,
		SealFailures:    s.sealFailures,
		PendingDropped:  s.pendingDropped,
		Compactions:     s.compactions,
		CompactFailures: s.compactFailures,
		Removed:         s.removed,
		Pending:         len(s.pending),
		Quarantined:     append([]string(nil), s.quarantined...),
	}
	for t := range s.parts {
		st.Partitions[t] = len(s.parts[t])
	}
	return st
}

// Tick advances the archive on the packet clock: seal due partitions,
// compact closed coarse periods, GC expired tiers, and flush the pending
// tail when enough entries have accumulated. It is the
// rollup.Archiver hook the Checkpointer drives from the engine emitter;
// each failure class is retried at most once per hour-partition interval,
// so a full disk costs one error per interval, never a storm per drain.
func (s *Store) Tick() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasClock {
		return nil
	}
	var errs []error
	if err := s.sealDueLocked(false); err != nil {
		errs = append(errs, err)
	}
	if err := s.compactLocked(); err != nil {
		errs = append(errs, err)
	}
	if err := s.gcLocked(); err != nil {
		errs = append(errs, err)
	}
	if s.pendingDirty && s.sinceFlush >= s.cfg.FlushEvery {
		if err := s.flushPendingLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Final flushes at end of run: seal everything due (ignoring the retry
// gate), compact, GC, and persist the unsealed tail so a resumed run
// continues the same partitions. Unlike seal, the current in-progress
// partition is NOT force-sealed — a follow-on capture may still feed it.
func (s *Store) Final() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	if s.hasClock {
		if err := s.sealDueLocked(true); err != nil {
			errs = append(errs, err)
		}
		if err := s.compactLocked(); err != nil {
			errs = append(errs, err)
		}
		if err := s.gcLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.flushPendingLocked(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
