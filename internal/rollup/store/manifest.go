// The manifest and the pending tail.
//
// MANIFEST.json pins the archive geometry (tier spans — partitions sealed
// under one span set cannot be reinterpreted under another) and carries
// the per-tier GC watermarks. The watermark is the load-bearing half of
// the never-lose-coverage contract: GC durably advances the watermark
// FIRST, then deletes files, and both queries and Open ignore partitions
// below it — so a crash anywhere in GC leaves either extra (ignored)
// files or nothing, never a gap and never a double count.
//
// PENDING.json is the unsealed in-memory tail: the ingest clock, late/
// ingest counters, the sealed-below fence, and every pending partition's
// cells. It is flushed on an entry-count cadence and at Final, so a crash
// loses at most FlushEvery entries of unsealed tail — the same contract
// the live window's checkpoint cadence offers. On Open a pending
// partition that already has a durable sealed file is dropped: the sealed
// file won (the flush preceding the seal is what makes that safe).

package store

import (
	"fmt"
	"io"
	"math"
	"net/netip"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"

	"gamelens/internal/persist"
	"gamelens/internal/rollup"
)

const (
	manifestFormat = "gamelens-manifest-v1"
	pendingFormat  = "gamelens-pending-v1"
	manifestName   = "MANIFEST.json"
	pendingName    = "PENDING.json"
)

// watermarkUnset marks a tier whose GC has never run. math.MinInt64 (not
// zero): partition starts are legal below the epoch.
const watermarkUnset = math.MinInt64

type manifestJSON struct {
	Format    string          `json:"format"`
	SpansNs   [numTiers]int64 `json:"spans_ns"`
	GCThrough [numTiers]int64 `json:"gc_through_ns"`
}

// writeManifest durably records geometry and watermarks. Callers rely on
// its write-before-delete ordering (see gcLocked).
func (s *Store) writeManifest() error {
	doc := manifestJSON{Format: manifestFormat, SpansNs: s.spansNs, GCThrough: s.gc}
	path := filepath.Join(s.cfg.Dir, manifestName)
	return persist.AtomicFS(s.cfg.FS, path, func(w io.Writer) error {
		return writeFooted(w, &doc)
	})
}

// readManifestDoc reads and validates the manifest document, returning nil
// on a cold start (no manifest yet). A corrupt manifest is a hard error —
// without trusted geometry, no partition on disk can be interpreted.
func readManifestDoc(pfs persist.FS, dir string) (*manifestJSON, error) {
	var doc manifestJSON
	err := persist.LoadFS(pfs, filepath.Join(dir, manifestName), func(rd io.Reader) error {
		return readFooted(rd, &doc)
	})
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if doc.Format != manifestFormat {
		return nil, fmt.Errorf("store: unknown manifest format %q", doc.Format)
	}
	return &doc, nil
}

// applyManifest restores geometry and watermarks from a previously read
// manifest document. A geometry mismatch is a hard error, not a
// quarantine: the operator pointed one span configuration at an archive
// built under another, and silently reinterpreting partition widths would
// corrupt every query. (Open sidesteps this for callers that did not
// configure spans at all by adopting the manifest's — see Open.)
func (s *Store) applyManifest(doc *manifestJSON) error {
	if doc.SpansNs != s.spansNs {
		return fmt.Errorf("store: archive %s was built with tier spans %v, configured %v",
			s.cfg.Dir, doc.SpansNs, s.spansNs)
	}
	s.gc = doc.GCThrough
	return nil
}

type pendingJSON struct {
	Format      string            `json:"format"`
	Clock       string            `json:"clock,omitempty"` // RFC3339Nano, "" before any entry
	Ingested    int64             `json:"ingested"`
	Late        int64             `json:"late,omitempty"`
	SealedBelow string            `json:"sealed_below,omitempty"` // RFC3339Nano fence, "" if unset
	Parts       []pendingPartJSON `json:"partitions"`
}

type pendingPartJSON struct {
	StartNs int64         `json:"start_ns"`
	Subs    []partSubJSON `json:"subscribers"`
}

// flushPendingLocked persists the unsealed tail (canonical order:
// partitions by start, subscribers by address).
func (s *Store) flushPendingLocked() error {
	path := filepath.Join(s.cfg.Dir, pendingName)
	err := persist.AtomicFS(s.cfg.FS, path, func(w io.Writer) error {
		return persist.WriteFooted(w, s.appendPendingLocked)
	})
	if err != nil {
		return fmt.Errorf("store: flushing pending tail: %w", err)
	}
	s.sinceFlush = 0
	s.pendingDirty = false
	return nil
}

// appendPendingLocked appends the pendingJSON document.
func (s *Store) appendPendingLocked(dst []byte) ([]byte, error) {
	dst = append(dst, "{\n \"format\": \""+pendingFormat+"\""...)
	if s.hasClock {
		dst = appendInstant(dst, `"clock": `, s.clockNs)
	}
	dst = append(dst, ",\n \"ingested\": "...)
	dst = strconv.AppendInt(dst, s.ingested, 10)
	if s.late != 0 {
		dst = append(dst, ",\n \"late\": "...)
		dst = strconv.AppendInt(dst, s.late, 10)
	}
	if s.hasSealedBelow {
		dst = appendInstant(dst, `"sealed_below": `, s.sealedBelowNs)
	}
	dst = append(dst, ",\n \"partitions\": ["...)
	starts := make([]int64, 0, len(s.pending))
	//gamelens:sorted keys are collected here and sorted just below
	for start := range s.pending {
		starts = append(starts, start)
	}
	slices.Sort(starts)
	for i, start := range starts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n  {\n   \"start_ns\": "...)
		dst = strconv.AppendInt(dst, start, 10)
		var err error
		if dst, err = appendCells(dst, 3, sortedCells(s.pending[start].subs)); err != nil {
			return dst, err
		}
		dst = append(dst, "\n  }"...)
	}
	if len(starts) > 0 {
		dst = append(dst, "\n "...)
	}
	return append(dst, "]\n}\n"...), nil
}

// appendInstant appends a depth-1 `"key": "RFC3339Nano"` member.
func appendInstant(dst []byte, key string, ns int64) []byte {
	dst = append(dst, ",\n "...)
	dst = append(dst, key...)
	dst = append(dst, '"')
	dst = time.Unix(0, ns).UTC().AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// loadPending restores the unsealed tail. A corrupt pending document is
// quarantined and the store continues with an empty tail — losing the
// unsealed remainder, exactly as a torn live-window checkpoint loses its
// cadence interval, but never crash-looping on it.
func (s *Store) loadPending() error {
	path := filepath.Join(s.cfg.Dir, pendingName)
	var doc pendingJSON
	err := persist.LoadFS(s.cfg.FS, path, func(rd io.Reader) error {
		return readFooted(rd, &doc)
	})
	if err != nil {
		if isNotExist(err) {
			return nil
		}
		s.quarantine(path)
		return nil
	}
	if doc.Format != pendingFormat {
		s.quarantine(path)
		return nil
	}
	if doc.Clock != "" {
		clock, err := time.Parse(time.RFC3339Nano, doc.Clock)
		if err != nil {
			s.quarantine(path)
			return nil
		}
		s.clockNs, s.hasClock = clock.UnixNano(), true
	}
	if doc.SealedBelow != "" {
		fence, err := time.Parse(time.RFC3339Nano, doc.SealedBelow)
		if err != nil {
			s.quarantine(path)
			return nil
		}
		s.sealedBelowNs, s.hasSealedBelow = fence.UnixNano(), true
	}
	s.ingested, s.late = doc.Ingested, doc.Late
	for _, pj := range doc.Parts {
		if _, sealed := s.parts[TierHour][pj.StartNs]; sealed {
			continue // the durable partition file won
		}
		p := &pendingPart{startNs: pj.StartNs, subs: map[netip.Addr]*rollup.Counts{}}
		for _, sub := range pj.Subs {
			addr, err := netip.ParseAddr(sub.Addr)
			if err != nil {
				s.quarantine(path)
				s.pending = map[int64]*pendingPart{}
				return nil
			}
			if err := rollup.ValidateCounts(&sub.Counts); err != nil {
				s.quarantine(path)
				s.pending = map[int64]*pendingPart{}
				return nil
			}
			counts := sub.Counts
			p.subs[addr] = &counts
		}
		s.pending[pj.StartNs] = p
	}
	// Everything below the oldest restored pending partition — or below
	// every sealed hour — is final; late entries must not reopen it.
	for start := range s.parts[TierHour] {
		s.markSealedBelowLocked(start + s.spansNs[TierHour])
	}
	return nil
}

// sortedCells flattens a pending subscriber map into address-sorted cells
// (the canonical order every encoder emits).
func sortedCells(subs map[netip.Addr]*rollup.Counts) []cell {
	cells := make([]cell, 0, len(subs))
	//gamelens:sorted keys are collected here and sorted just below
	for addr, counts := range subs {
		cells = append(cells, cell{addr: addr, counts: *counts})
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].addr.Compare(cells[j].addr) < 0 })
	return cells
}
