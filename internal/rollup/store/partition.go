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
// reference); the structs stay for the loaders, which still decode through
// them, and writeFooted's reflection path stays for the manifest, which
// holds no cells.

package store

import (
	"bytes"
	"encoding/json"
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

// encodePartition writes p's canonical document (cells are already sorted
// by address — seal and compact both produce sorted cells, and load
// rejects unsorted files).
func encodePartition(w io.Writer, p *partData, spanNs int64) error {
	return persist.WriteFooted(w, func(dst []byte) ([]byte, error) {
		dst = append(dst, "{\n \"format\": \""+partitionFormat+"\",\n \"tier\": "...)
		dst = canonjson.String(dst, p.tier.String())
		dst = append(dst, ",\n \"start_ns\": "...)
		dst = strconv.AppendInt(dst, p.startNs, 10)
		dst = append(dst, ",\n \"span_ns\": "...)
		dst = strconv.AppendInt(dst, spanNs, 10)
		dst, err := appendCells(dst, 1, p.cells)
		return append(dst, "\n}\n"...), err
	})
}

// appendCells appends the `"subscribers": [...]` member both cell-carrying
// documents (partition, pending) end their objects with, its key at depth:
// one {addr, counts} object per cell, the counts through the one cell codec
// the window checkpoint uses (rollup.Counts.AppendJSON).
func appendCells(dst []byte, depth int, cells []cell) ([]byte, error) {
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
		dst = canonjson.Addr(dst, cells[i].addr)
		dst = append(dst, ',')
		dst = canonjson.Newline(dst, depth+2)
		dst = append(dst, `"counts": `...)
		var err error
		if dst, err = cells[i].counts.AppendJSON(dst, depth+2); err != nil {
			return dst, fmt.Errorf("store: encoding document: subscriber %s: %w", cells[i].addr, err)
		}
		dst = canonjson.Newline(dst, depth+1)
		dst = append(dst, '}')
	}
	if len(cells) > 0 {
		dst = canonjson.Newline(dst, depth)
	}
	return append(dst, ']'), nil
}

// writeFooted encodes doc as indented JSON with the integrity footer — the
// reflection path, kept for the manifest, which holds no cells. (The tests
// also run the cell-carrying documents through it, as the reference the
// append encoders above are held to.)
func writeFooted(w io.Writer, doc any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("store: encoding document: %w", err)
	}
	if _, err := w.Write(persist.AppendFooter(buf.Bytes())); err != nil {
		return fmt.Errorf("store: writing document: %w", err)
	}
	return nil
}

// readFooted verifies the integrity footer and decodes the document.
func readFooted(rd io.Reader, doc any) error {
	data, err := io.ReadAll(rd)
	if err != nil {
		return fmt.Errorf("store: reading document: %w", err)
	}
	body, err := persist.SplitFooter(data)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, doc); err != nil {
		return fmt.Errorf("store: decoding document: %w", err)
	}
	return nil
}

// loadPartition reads and fully validates one partition file: footer,
// format, tier/start/span against the file name and store geometry,
// strictly sorted subscriber addresses (the canonical order), and every
// cell through rollup.ValidateCounts. Anything less than fully valid is
// an error — the caller quarantines.
func (s *Store) loadPartition(path string, tier Tier, startNs int64) (*partData, error) {
	var doc partitionJSON
	err := persist.LoadFS(s.cfg.FS, path, func(rd io.Reader) error {
		return readFooted(rd, &doc)
	})
	if err != nil {
		return nil, err
	}
	if doc.Format != partitionFormat {
		return nil, fmt.Errorf("store: %s: unknown partition format %q", path, doc.Format)
	}
	if doc.Tier != tier.String() || doc.StartNs != startNs {
		return nil, fmt.Errorf("store: %s: document claims %s-%d", path, doc.Tier, doc.StartNs)
	}
	if doc.SpanNs != s.spansNs[tier] {
		return nil, fmt.Errorf("store: %s: span %dns, want %dns", path, doc.SpanNs, s.spansNs[tier])
	}
	cells, err := validateCells(&doc, path)
	if err != nil {
		return nil, err
	}
	return &partData{tier: tier, startNs: startNs, cells: cells}, nil
}

// validateCells decodes and validates a partition document's subscriber
// cells: strictly address-sorted (the canonical order) and every cell
// structurally valid.
func validateCells(doc *partitionJSON, path string) ([]cell, error) {
	cells := make([]cell, 0, len(doc.Subs))
	var prev netip.Addr
	for i, sub := range doc.Subs {
		addr, err := netip.ParseAddr(sub.Addr)
		if err != nil {
			return nil, fmt.Errorf("store: %s: subscriber %q: %w", path, sub.Addr, err)
		}
		if i > 0 && prev.Compare(addr) >= 0 {
			return nil, fmt.Errorf("store: %s: subscribers out of canonical order at %s", path, sub.Addr)
		}
		prev = addr
		if err := rollup.ValidateCounts(&sub.Counts); err != nil {
			return nil, fmt.Errorf("store: %s: subscriber %s: %w", path, sub.Addr, err)
		}
		cells = append(cells, cell{addr: addr, counts: sub.Counts})
	}
	return cells, nil
}

// Partition is one archive partition decoded for consumers outside the
// store: cmd/rollupmerge folds .part files into a fleet window alongside
// tap checkpoints.
type Partition struct {
	// Tier is the partition's granularity; Start and Span its time range.
	Tier  Tier
	Start time.Time
	Span  time.Duration
	// Subs are the per-subscriber aggregates, sorted by address.
	Subs []rollup.Aggregate
}

// ReadPartitionFile loads and fully validates one partition file without a
// Store: geometry comes from the document itself, and when the file's base
// name parses as a partition name it must agree with the document (a
// renamed or shuffled file is rejected, not misfiled). The integrity
// footer, canonical cell order and per-cell validation are exactly the
// store's own.
func ReadPartitionFile(pfs persist.FS, path string) (*Partition, error) {
	if pfs == nil {
		pfs = persist.OS
	}
	var doc partitionJSON
	err := persist.LoadFS(pfs, path, func(rd io.Reader) error {
		return readFooted(rd, &doc)
	})
	if err != nil {
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
	cells, err := validateCells(&doc, path)
	if err != nil {
		return nil, err
	}
	p := &Partition{
		Tier:  tier,
		Start: time.Unix(0, doc.StartNs).UTC(),
		Span:  time.Duration(doc.SpanNs),
		Subs:  make([]rollup.Aggregate, 0, len(cells)),
	}
	for i := range cells {
		p.Subs = append(p.Subs, rollup.Aggregate{Subscriber: cells[i].addr, Window: cells[i].counts})
	}
	return p, nil
}

// partPath is the partition's path in the archive directory.
func (s *Store) partPath(tier Tier, startNs int64) string {
	return filepath.Join(s.cfg.Dir, partName(tier, startNs))
}

// isNotExist reports a missing file (the cold-start signal, not an error).
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// writePartition seals p to disk atomically and indexes it.
func (s *Store) writePartition(p *partData) error {
	path := filepath.Join(s.cfg.Dir, partName(p.tier, p.startNs))
	err := persist.AtomicFS(s.cfg.FS, path, func(w io.Writer) error {
		return encodePartition(w, p, s.spansNs[p.tier])
	})
	if err != nil {
		return err
	}
	s.parts[p.tier][p.startNs] = p
	return nil
}
