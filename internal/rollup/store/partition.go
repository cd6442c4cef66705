// Partition files: one canonical JSON document per sealed time range,
// named <tier>-<startNs>.part, protected by the shared CRC integrity
// footer (persist.AppendFooter — the same footer that guards rollup v3
// checkpoints, so a partition truncated at any byte boundary is rejected,
// quarantined, and recompacted from its sources instead of mis-loading).
//
// The encoding is deterministic: subscribers sorted by address, map keys
// sorted bytewise, float64s in shortest round-trip form. Two stores sealing
// the same cells — at any engine shard count, through any checkpoint round
// trip — produce byte-identical partition files, which is what lets the
// compaction tests pin byte equality rather than semantic equality.
//
// Documents that carry cells (partitions here, the pending tail in
// manifest.go) are written by appending: a few lines of shell around
// appendCells, which hands every cell to rollup.Counts.AppendJSON — the one
// cell encoder the window checkpoint uses — into persist.WriteFooted's
// recycled buffer. The bytes are what encoding/json wrote for
// partitionJSON/pendingJSON (encode_test.go keeps that encoding as the
// reference). Reading is persist.LoadFooted into those shells, then one
// decoder per document — ReadPartitionFile here (the store's own scan adds
// only its span check), decodePending in manifest.go — over the one cell
// decoder, decodeCells.

package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/netip"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gamelens/internal/canonjson"
	"gamelens/internal/persist"
	"gamelens/internal/rollup"
)

// partitionFormat names the document schema.
const partitionFormat = "gamelens-partition-v1"

// partitionJSON is the stable on-disk representation of one partition.
type partitionJSON struct {
	Format  string        `json:"format"`
	Tier    string        `json:"tier"`
	StartNs int64         `json:"start_ns"`
	SpanNs  int64         `json:"span_ns"`
	Subs    []partSubJSON `json:"subscribers"`
}

type partSubJSON struct {
	Addr   string        `json:"addr"`
	Counts rollup.Counts `json:"counts"`
}

// partName is the partition's file name; plain %d keeps pre-epoch starts
// (negative nanos) legal, and loaders sort numerically after parsing.
func partName(tier Tier, startNs int64) string {
	return fmt.Sprintf("%s-%d.part", tier, startNs)
}

// parsePartName inverts partName; ok is false for any other file.
func parsePartName(name string) (Tier, int64, bool) {
	rest, found := strings.CutSuffix(name, ".part")
	if !found {
		return 0, 0, false
	}
	for t := TierHour; t < numTiers; t++ {
		val, found := strings.CutPrefix(rest, tierNames[t]+"-")
		if !found {
			continue
		}
		startNs, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		return t, startNs, true
	}
	return 0, 0, false
}

// encodePartition writes p's canonical document (Subs are already sorted
// by address — seal and compact both produce sorted cells, and load
// rejects unsorted files).
func encodePartition(w io.Writer, p *Partition) error {
	return persist.WriteFooted(w, func(dst []byte) ([]byte, error) {
		dst = append(dst, "{\n \"format\": \""+partitionFormat+"\",\n \"tier\": "...)
		dst = canonjson.String(dst, p.Tier.String())
		dst = append(dst, ",\n \"start_ns\": "...)
		dst = strconv.AppendInt(dst, p.Start.UnixNano(), 10)
		dst = append(dst, ",\n \"span_ns\": "...)
		dst = strconv.AppendInt(dst, int64(p.Span), 10)
		dst, err := appendCells(dst, 1, p.Subs)
		return append(dst, "\n}\n"...), err
	})
}

// appendCells appends the `"subscribers": [...]` member both cell-carrying
// documents (partition, pending) end their objects with, its key at depth:
// one {addr, counts} object per cell, the counts through the one cell codec
// the window checkpoint uses (rollup.Counts.AppendJSON).
func appendCells(dst []byte, depth int, cells []rollup.Aggregate) ([]byte, error) {
	dst = append(dst, ',')
	dst = canonjson.Newline(dst, depth)
	dst = append(dst, `"subscribers": [`...)
	for i := range cells {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = canonjson.Newline(dst, depth+1)
		dst = append(dst, '{')
		dst = canonjson.Newline(dst, depth+2)
		dst = append(dst, `"addr": `...)
		dst = canonjson.Addr(dst, cells[i].Subscriber)
		dst = append(dst, ',')
		dst = canonjson.Newline(dst, depth+2)
		dst = append(dst, `"counts": `...)
		var err error
		if dst, err = cells[i].Window.AppendJSON(dst, depth+2); err != nil {
			return dst, fmt.Errorf("store: encoding document: subscriber %s: %w", cells[i].Subscriber, err)
		}
		dst = canonjson.Newline(dst, depth+1)
		dst = append(dst, '}')
	}
	if len(cells) > 0 {
		dst = canonjson.Newline(dst, depth)
	}
	return append(dst, ']'), nil
}

// decodeCells is the one cell decoder, for partition and pending documents
// alike: every address parses, addresses are strictly ascending (the
// canonical order every encoder writes; it also rules out duplicates), and
// every cell passes rollup.ValidateCounts. where names the document in errors.
func decodeCells(subs []partSubJSON, where string) ([]rollup.Aggregate, error) {
	cells := make([]rollup.Aggregate, 0, len(subs))
	for i, sub := range subs {
		addr, err := netip.ParseAddr(sub.Addr)
		if err != nil {
			return nil, fmt.Errorf("store: %s: subscriber %q: %w", where, sub.Addr, err)
		}
		if i > 0 && cells[i-1].Subscriber.Compare(addr) >= 0 {
			return nil, fmt.Errorf("store: %s: subscribers out of canonical order at %s", where, sub.Addr)
		}
		if err := rollup.ValidateCounts(&sub.Counts); err != nil {
			return nil, fmt.Errorf("store: %s: subscriber %s: %w", where, sub.Addr, err)
		}
		cells = append(cells, rollup.Aggregate{Subscriber: addr, Window: sub.Counts})
	}
	return cells, nil
}

// Partition is one archive partition, decoded and validated: what the
// store's index holds per durable file, and what consumers outside the store
// get from ReadPartitionFile (cmd/rollupmerge folds .part files into a fleet
// window alongside tap checkpoints).
type Partition struct {
	// Tier is the partition's granularity; Start and Span its time range.
	Tier  Tier
	Start time.Time
	Span  time.Duration
	// Subs are the per-subscriber aggregates, sorted by address.
	Subs []rollup.Aggregate
}

// ReadPartitionFile loads and fully validates one partition file — the one
// partition decoder, with or without a Store: integrity footer, format,
// tier, a positive span, strictly address-sorted cells, every cell through
// rollup.ValidateCounts. Geometry comes from the document itself, and when
// the file's base name parses as a partition name it must agree with the
// document (a renamed or shuffled file is rejected, not misfiled).
func ReadPartitionFile(pfs persist.FS, path string) (*Partition, error) {
	var doc partitionJSON
	if err := persist.LoadFooted(pfs, path, &doc); err != nil {
		return nil, err
	}
	if doc.Format != partitionFormat {
		return nil, fmt.Errorf("store: %s: unknown partition format %q", path, doc.Format)
	}
	tier := Tier(-1)
	for t := TierHour; t < numTiers; t++ {
		if doc.Tier == tierNames[t] {
			tier = t
		}
	}
	if tier < 0 {
		return nil, fmt.Errorf("store: %s: unknown tier %q", path, doc.Tier)
	}
	if doc.SpanNs <= 0 {
		return nil, fmt.Errorf("store: %s: invalid span %dns", path, doc.SpanNs)
	}
	if nameTier, nameStart, ok := parsePartName(filepath.Base(path)); ok &&
		(nameTier != tier || nameStart != doc.StartNs) {
		return nil, fmt.Errorf("store: %s: document claims %s-%d", path, doc.Tier, doc.StartNs)
	}
	cells, err := decodeCells(doc.Subs, path)
	if err != nil {
		return nil, err
	}
	return &Partition{
		Tier:  tier,
		Start: time.Unix(0, doc.StartNs).UTC(),
		Span:  time.Duration(doc.SpanNs),
		Subs:  cells,
	}, nil
}

// loadPartition is ReadPartitionFile plus the one thing only a Store knows:
// the span its manifest pins for the tier. (The scan takes tier and start
// from the file name, which ReadPartitionFile has already held the document
// to.) Anything less than fully valid is an error — the caller quarantines.
func (s *Store) loadPartition(path string) (*Partition, error) {
	p, err := ReadPartitionFile(s.cfg.FS, path)
	if err != nil {
		return nil, err
	}
	if int64(p.Span) != s.spansNs[p.Tier] {
		return nil, fmt.Errorf("store: %s: span %v, want %v", path, p.Span, s.cfg.Spans[p.Tier])
	}
	return p, nil
}

// partPath is the partition's path in the archive directory.
func (s *Store) partPath(tier Tier, startNs int64) string {
	return filepath.Join(s.cfg.Dir, partName(tier, startNs))
}

// isNotExist reports a missing file (the cold-start signal, not an error).
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// writePartition seals a tier partition holding cells to disk atomically
// and indexes it.
func (s *Store) writePartition(tier Tier, startNs int64, cells []rollup.Aggregate) error {
	p := &Partition{Tier: tier, Start: time.Unix(0, startNs).UTC(), Span: s.cfg.Spans[tier], Subs: cells}
	err := persist.AtomicFS(s.cfg.FS, s.partPath(tier, startNs), func(w io.Writer) error {
		return encodePartition(w, p)
	})
	if err != nil {
		return err
	}
	s.parts[tier][startNs] = p
	return nil
}
