// Checkpoint/restore: the whole window state round-trips through one
// canonical, versioned JSON document (the mlkit/persist.go idiom), so a
// restarted monitor resumes its per-subscriber aggregations exactly where
// the last checkpoint left them.
//
// The encoding is deterministic — subscribers sorted by address, buckets
// sorted by absolute index, sketch centroids sorted by centroid index, map
// keys sorted bytewise, float64s in Go's shortest round-trip form — so two
// rollups holding the same window state produce byte-identical checkpoints,
// and a snapshot-restore-snapshot cycle is the identity. Two rollups fed the
// same entries reach the same state whenever no entry was late-dropped (see
// the package comment's ingest-order caveat): in particular, the engine's
// order-normalized Finish output yields byte-identical checkpoints at every
// shard count. Stale buckets and fully aged-out subscribers are pruned at
// snapshot time (they can never re-enter the window: the clock is
// monotonic), which keeps the document canonical and its size bounded by
// the live window.
//
// Writing is in place and by appending: Snapshot holds the rollup's lock for
// the encode only (not the write), walks the subscribers, sorted by address,
// and streams each live, non-empty bucket of each ring — oldest slot forward,
// which is bucket order — through the one cell encoder (cell.go) into a
// recycled buffer (persist.WriteFooted). No copy of the window is built, no
// document tree, nothing is reflected over. The bytes are exactly those
// encoding/json wrote for checkpointJSON (format gamelens-rollup-v3 did not
// move; the differential tests and FuzzRestoreReencode hold the encoder to
// the reflection one, which survives in encode_test.go).
//
// Reading is persist's footed-file reader (ReadFooted for Restore's stream,
// LoadFooted for LoadFile and the recovery scan) decoding into checkpointJSON,
// then checkpointJSON.restore validating every field before a window exists.

package rollup

import (
	"cmp"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"time"

	"gamelens/internal/canonjson"
	"gamelens/internal/persist"
	"gamelens/internal/sketch"
)

// checkpointFormat names the document schema. v2 added the per-bucket
// percentile sketches (throughput, qoe_proxy) and the unknown-bucket
// counters; v3 added the mandatory integrity footer (persist.AppendFooter,
// shared with the historical store's partition files). Older documents are
// rejected rather than restored with silently empty distributions or
// unverifiable integrity — delete the old checkpoint (or re-run the
// capture) to migrate.
const checkpointFormat = "gamelens-rollup-v3"

// checkpointJSON is the stable on-disk representation of a Rollup.
type checkpointJSON struct {
	Format   string           `json:"format"`
	WindowNs int64            `json:"window_ns"`
	Buckets  int              `json:"buckets"`
	Clock    string           `json:"clock,omitempty"` // RFC3339Nano, "" before any entry
	Ingested int64            `json:"ingested"`
	Late     int64            `json:"late,omitempty"`
	Subs     []subscriberJSON `json:"subscribers"`
}

type subscriberJSON struct {
	Addr    string       `json:"addr"`
	Buckets []bucketJSON `json:"buckets"`
}

type bucketJSON struct {
	// Idx is the absolute bucket number; the bucket spans packet time
	// [Idx*width, (Idx+1)*width). Negative numbers are legal: a capture
	// that starts before the Unix epoch buckets below zero.
	Idx    int64  `json:"idx"`
	Counts Counts `json:"counts"`
}

// Snapshot writes the canonical checkpoint document to w, straight out of
// the window's own memory: the lock is held for the length of the encode
// (not of the write), so the document is one cut — every bucket judged live
// against the one clock it records. On any error nothing has been written
// to w.
func (r *Rollup) Snapshot(w io.Writer) error {
	return persist.WriteFooted(w, func(dst []byte) ([]byte, error) {
		r.mu.Lock()
		defer r.mu.Unlock()

		dst = append(dst, "{\n \"format\": \""+checkpointFormat+"\",\n \"window_ns\": "...)
		dst = strconv.AppendInt(dst, int64(r.cfg.Window), 10)
		dst = append(dst, ",\n \"buckets\": "...)
		dst = strconv.AppendInt(dst, int64(r.cfg.Buckets), 10)
		if r.hasClock {
			dst = append(dst, ",\n \"clock\": \""...)
			dst = time.Unix(0, r.clockNs).UTC().AppendFormat(dst, time.RFC3339Nano)
			dst = append(dst, '"')
		}
		dst = append(dst, ",\n \"ingested\": "...)
		dst = strconv.AppendInt(dst, r.ingested, 10)
		dst = appendOptInt(dst, 1, `"late": `, r.late)
		dst = append(dst, ",\n \"subscribers\": ["...)
		if !r.hasClock {
			return append(dst, "]\n}\n"...), nil // no clock, no live bucket
		}

		refs := make([]subRef, 0, len(r.subs))
		//gamelens:sorted references are collected here and sorted just below
		for addr, sub := range r.subs {
			refs = append(refs, subRef{addr, sub})
		}
		slices.SortFunc(refs, func(a, b subRef) int { return a.addr.Compare(b.addr) })

		horizon := r.horizonLocked()
		oldest := r.pos(horizon + 1)
		var slots []int // grows to a ring's length at most; never sized from cfg, which Restore does not bound
		written := 0
		for _, ref := range refs {
			slots = liveSlots(slots[:0], ref.sub.ring, oldest, horizon)
			if len(slots) == 0 {
				continue // fully aged out; prune from the checkpoint
			}
			if written > 0 {
				dst = append(dst, ',')
			}
			written++
			dst = append(dst, "\n  {\n   \"addr\": "...)
			dst = canonjson.Addr(dst, ref.addr)
			dst = append(dst, ",\n   \"buckets\": ["...)
			for i, slot := range slots {
				b := &ref.sub.ring[slot]
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, "\n    {\n     \"idx\": "...)
				dst = strconv.AppendInt(dst, b.idx, 10)
				dst = append(dst, ",\n     \"counts\": "...)
				var err error
				if dst, err = b.counts.AppendJSON(dst, 5); err != nil {
					return dst, fmt.Errorf("rollup: encoding checkpoint: subscriber %s bucket %d: %w", ref.addr, b.idx, err)
				}
				dst = append(dst, "\n    }"...)
			}
			dst = append(dst, "\n   ]\n  }"...)
		}
		return append(closeArray(dst, 1, written), "\n}\n"...), nil
	})
}

// subRef is one subscriber, referenced in place for the sorted walk.
type subRef struct {
	addr netip.Addr
	sub  *subscriber
}

// liveSlots appends to slots the ring positions holding a live, non-empty
// bucket (number above horizon), in ascending bucket number. The ring is a
// rotation of that order: walking it forward from the oldest live bucket's
// position meets the buckets oldest first, with no sort. The one exception
// is a window restored from a document that dates a bucket ahead of its own
// clock — Restore accepts it, Observe cannot produce it — which breaks the
// rotation; the walk notices and sorts that subscriber's handful of slots.
func liveSlots(slots []int, ring []bucket, oldest int, horizon int64) []int {
	ascending, prev := true, int64(noBucket)
	for k := range ring {
		slot := oldest + k
		if slot >= len(ring) {
			slot -= len(ring)
		}
		b := &ring[slot]
		if b.idx <= horizon || b.counts.Sessions <= 0 {
			continue // noBucket is below every horizon
		}
		ascending = ascending && b.idx > prev
		prev = b.idx
		slots = append(slots, slot)
	}
	if !ascending {
		slices.SortFunc(slots, func(i, j int) int { return cmp.Compare(ring[i].idx, ring[j].idx) })
	}
	return slots
}

// maxRestoreBuckets (4096) bounds the ring resolution Restore accepts. Every
// restored subscriber gets a ring of the document's bucket count, so without
// a bound a few bytes of "buckets" could ask for terabytes; with it (and with
// every subscriber required to carry at least one bucket) the memory a
// document can claim is a fixed multiple of its own size. 4096 buckets is a
// day at 21-second resolution — far past any dashboard geometry.
const maxRestoreBuckets = 1 << 12

// Restore rebuilds a rollup from a checkpoint written by Snapshot. The
// window geometry (span and bucket count, the latter at most 4096 —
// maxRestoreBuckets) comes from the document, so the restored rollup
// continues with exactly the configuration that produced the checkpoint. The
// integrity footer is verified before anything is decoded (persist.ReadFooted),
// so a checkpoint truncated at any byte boundary — or corrupted anywhere in
// between — is rejected rather than mis-restored.
func Restore(rd io.Reader) (*Rollup, error) {
	var doc checkpointJSON
	if err := persist.ReadFooted(rd, &doc); err != nil {
		return nil, fmt.Errorf("rollup: checkpoint: %w", err)
	}
	return doc.restore()
}

// restore validates the decoded document and builds the window it describes.
func (doc *checkpointJSON) restore() (*Rollup, error) {
	if doc.Format != checkpointFormat {
		return nil, fmt.Errorf("rollup: unknown checkpoint format %q", doc.Format)
	}
	if doc.WindowNs <= 0 || doc.Buckets <= 0 || doc.Buckets > maxRestoreBuckets {
		return nil, fmt.Errorf("rollup: checkpoint with window %dns, %d buckets (at most %d restore)",
			doc.WindowNs, doc.Buckets, maxRestoreBuckets)
	}
	r := New(Config{Window: time.Duration(doc.WindowNs), Buckets: doc.Buckets})
	r.ingested = doc.Ingested
	r.late = doc.Late
	if doc.Clock != "" {
		clock, err := time.Parse(time.RFC3339Nano, doc.Clock)
		if err != nil {
			return nil, fmt.Errorf("rollup: checkpoint clock: %w", err)
		}
		r.clockNs = clock.UnixNano()
		r.hasClock = true
	}
	for _, sj := range doc.Subs {
		addr, err := netip.ParseAddr(sj.Addr)
		if err != nil {
			return nil, fmt.Errorf("rollup: checkpoint subscriber %q: %w", sj.Addr, err)
		}
		if len(sj.Buckets) == 0 {
			// Snapshot prunes such a subscriber; accepting one would buy a
			// whole ring for a dozen bytes of document.
			return nil, fmt.Errorf("rollup: subscriber %s has no buckets", sj.Addr)
		}
		sub := newSubscriber(doc.Buckets)
		for _, bj := range sj.Buckets {
			if bj.Idx == noBucket {
				return nil, fmt.Errorf("rollup: subscriber %s: bucket index %d is the empty-slot sentinel", sj.Addr, bj.Idx)
			}
			if err := ValidateCounts(&bj.Counts); err != nil {
				return nil, fmt.Errorf("rollup: subscriber %s bucket %d: %w", sj.Addr, bj.Idx, err)
			}
			slot := &sub.ring[r.pos(bj.Idx)]
			if slot.idx != noBucket {
				return nil, fmt.Errorf("rollup: subscriber %s: buckets %d and %d share a ring slot",
					sj.Addr, slot.idx, bj.Idx)
			}
			*slot = bucket{idx: bj.Idx, counts: bj.Counts}
			sub.newest = max(sub.newest, bj.Idx)
		}
		r.subs[addr] = sub
	}
	return r, nil
}

// ValidateCounts rejects aggregates a correct Snapshot (or partition seal)
// cannot have produced: every aggregate that counted a session must carry
// both percentile sketches, in the package geometry (mergeability depends
// on it), holding exactly one sample per session. Restoring anything looser
// would let a corrupt document silently desynchronize the distributions
// from the counts they summarize. The historical store applies the same
// validation to every archive partition it loads.
func ValidateCounts(c *Counts) error {
	if c.Sessions <= 0 {
		return fmt.Errorf("non-positive session count %d", c.Sessions)
	}
	// A fixed-order pair list, not a map literal: ranging over a map here
	// made which sketch's validation error surfaced first nondeterministic
	// across runs — the exact class of bug the detjson analyzer exists to
	// catch (this site is its first real fixture).
	sketches := [...]struct {
		name string
		s    *sketch.Sketch
	}{{"throughput", c.Throughput}, {"qoe_proxy", c.QoEProxy}}
	for _, p := range sketches {
		name, s := p.name, p.s
		if s == nil {
			return fmt.Errorf("missing %s sketch", name)
		}
		if s.Config() != sketchCfg {
			return fmt.Errorf("%s sketch geometry %+v, want %+v", name, s.Config(), sketchCfg)
		}
		if s.Count() != c.Sessions {
			return fmt.Errorf("%s sketch holds %d samples for %d sessions", name, s.Count(), c.Sessions)
		}
	}
	return nil
}

// SaveFile checkpoints the rollup to path atomically (write-temp-rename via
// the persist helper), so a crash mid-checkpoint leaves the previous
// checkpoint intact.
func (r *Rollup) SaveFile(path string) error {
	return persist.AtomicFS(nil, path, r.Snapshot)
}

// LoadFile restores a rollup from a checkpoint file written by SaveFile (or
// a Checkpointer) on fs (nil = the real filesystem; the seam fault-injection
// tests and the recovery scan use). A missing file surfaces the Open error
// unchanged so callers can treat it as a cold start.
func LoadFile(fs persist.FS, path string) (*Rollup, error) {
	var doc checkpointJSON
	if err := persist.LoadFooted(fs, path, &doc); err != nil {
		return nil, err
	}
	r, err := doc.restore()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
