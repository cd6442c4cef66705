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
	"cmp"
	"fmt"
	"io"
	"math"
	"net/netip"
	"path/filepath"
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
	path := filepath.Join(s.cfg.Dir, manifestName)
	return persist.AtomicFS(s.cfg.FS, path, func(w io.Writer) error {
		return persist.WriteFooted(w, s.appendManifest)
	})
}

// appendManifest appends the manifestJSON document.
func (s *Store) appendManifest(dst []byte) ([]byte, error) {
	dst = append(dst, "{\n \"format\": \""+manifestFormat+"\""...)
	for _, field := range [...]struct {
		key string
		ns  [numTiers]int64
	}{{`"spans_ns": [`, s.spansNs}, {`"gc_through_ns": [`, s.gc}} {
		dst = append(dst, ",\n "...)
		dst = append(dst, field.key...)
		for t, ns := range field.ns {
			if t > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, "\n  "...), ns, 10)
		}
		dst = append(dst, "\n ]"...)
	}
	return append(dst, "\n}\n"...), nil
}

// readManifestDoc reads and validates the manifest document, returning nil
// on a cold start (no manifest yet). A corrupt manifest is a hard error —
// without trusted geometry, no partition on disk can be interpreted.
func readManifestDoc(pfs persist.FS, dir string) (*manifestJSON, error) {
	var doc manifestJSON
	if err := persist.LoadFooted(pfs, filepath.Join(dir, manifestName), &doc); err != nil {
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
	starts := sortedKeys(s.pending, cmp.Compare[int64])
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

// loadPending restores the unsealed tail. The whole document is decoded
// and validated before any of it reaches the store, so a corrupt one — torn,
// or footed but carrying a bad clock, fence, address or cell — is
// quarantined and leaves the store exactly as cold as a missing one: losing
// the unsealed remainder, as a torn live-window checkpoint loses its cadence
// interval, but never crash-looping on it and never keeping half of it.
func (s *Store) loadPending() error {
	path := filepath.Join(s.cfg.Dir, pendingName)
	var doc pendingJSON
	err := persist.LoadFooted(s.cfg.FS, path, &doc)
	if isNotExist(err) {
		return nil
	}
	var tail pendingTail
	if err == nil {
		tail, err = decodePending(&doc)
	}
	if err != nil {
		if to, qerr := persist.Quarantine(s.cfg.FS, path); qerr == nil {
			s.quarantined = append(s.quarantined, to)
		}
		return nil
	}
	s.clockNs, s.hasClock = tail.clockNs, tail.hasClock
	s.sealedBelowNs, s.hasSealedBelow = tail.sealedBelowNs, tail.hasSealedBelow
	s.ingested, s.late = doc.Ingested, doc.Late
	for _, p := range tail.parts {
		if _, sealed := s.parts[TierHour][p.startNs]; !sealed { // else the durable partition file won
			s.pending[p.startNs] = p
		}
	}
	// Everything below the oldest restored pending partition — or below
	// every sealed hour — is final; late entries must not reopen it.
	for start := range s.parts[TierHour] {
		s.markSealedBelowLocked(start + s.spansNs[TierHour])
	}
	return nil
}

// pendingTail is a pending document decoded: what loadPending applies.
type pendingTail struct {
	clockNs, sealedBelowNs   int64
	hasClock, hasSealedBelow bool
	parts                    []*pendingPart
}

// decodePending validates a pending document in full — format, both
// instants, every cell of every partition (decodeCells) — and returns its
// contents, or the first thing wrong with it.
func decodePending(doc *pendingJSON) (tail pendingTail, err error) {
	if doc.Format != pendingFormat {
		return tail, fmt.Errorf("store: unknown pending format %q", doc.Format)
	}
	if tail.clockNs, tail.hasClock, err = parseInstant(doc.Clock); err != nil {
		return tail, fmt.Errorf("store: pending clock: %w", err)
	}
	if tail.sealedBelowNs, tail.hasSealedBelow, err = parseInstant(doc.SealedBelow); err != nil {
		return tail, fmt.Errorf("store: pending fence: %w", err)
	}
	for _, pj := range doc.Parts {
		cells, err := decodeCells(pj.Subs, pendingName)
		if err != nil {
			return tail, err
		}
		p := &pendingPart{startNs: pj.StartNs, subs: make(map[netip.Addr]*rollup.Counts, len(cells))}
		for i := range cells {
			p.subs[cells[i].Subscriber] = &cells[i].Window
		}
		tail.parts = append(tail.parts, p)
	}
	return tail, nil
}

// parseInstant inverts appendInstant's value: "" is an unset instant.
func parseInstant(s string) (ns int64, set bool, err error) {
	if s == "" {
		return 0, false, nil
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return 0, false, err
	}
	return t.UnixNano(), true, nil
}

// sortedCells flattens a pending subscriber map into address-sorted cells
// (the canonical order every encoder emits).
func sortedCells(subs map[netip.Addr]*rollup.Counts) []rollup.Aggregate {
	cells := make([]rollup.Aggregate, 0, len(subs))
	for _, addr := range sortedKeys(subs, netip.Addr.Compare) {
		cells = append(cells, rollup.Aggregate{Subscriber: addr, Window: *subs[addr]})
	}
	return cells
}
