// Sharded is the multi-core front-end over Rollup, mirroring what
// internal/engine is to internal/core: N shard-local Rollups with zero
// shared state, entries hash-partitioned by subscriber address so every
// session of a subscriber lands in the same shard, and the merged view
// defined as Rollup.Merge of the shards. Merge's overlapping-subscriber
// cell-wise union-sum (each session is observed by exactly one shard)
// makes the merged window byte-identical to a single-rollup run of the
// same entry set — the equivalence the engine already pins for flows,
// extended to the aggregation tier — with the package's one standing
// boundary caveat: entries late enough to be dropped (Stats.Late) see a
// per-shard clock that may trail the global one, so exact equivalence
// holds whenever no entry straddles the window horizon, the same
// condition under which a single rollup is itself order-independent.
//
// Snapshot does not build that merged view. Hash routing puts a subscriber
// in exactly one shard, so the merged window's checkpoint is the shards'
// own buckets written in address order under the merged clock:
// snapshotViews (checkpoint.go) locks every shard in index order, encodes
// in place, and unlocks — one cut across all shards, no Counts.Clone.
// Merged() remains for callers that query the view (classify's dashboard,
// rollupmerge).

package rollup

import (
	"io"
	"net/netip"
	"time"

	"gamelens/internal/core"
)

// Sharded fans entries out across shard-local Rollups. Observe, Advance,
// Stats, Merged, and Snapshot are safe for concurrent use (each shard
// carries its own lock); ObserveReports reuses a per-instance scratch and is
// single-goroutine — the engine's emitter, its intended caller, already is
// one.
type Sharded struct {
	shards  []*Rollup
	scratch [][]Entry
}

// NewSharded builds n empty shard rollups of identical geometry (n < 1 is
// treated as 1). All shards share the one package-wide sketch geometry, so
// they are mergeable by construction.
func NewSharded(n int, cfg Config) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*Rollup, n), scratch: make([][]Entry, n)}
	for i := range s.shards {
		s.shards[i] = New(cfg)
	}
	return s
}

// ShardedFrom wraps an existing Rollup — typically a checkpoint restore —
// as a single-shard front-end, so a resumed monitor runs the same code
// path as a fresh sharded one. Sharding a restored window is not possible
// (the checkpoint does not record which shard observed what, and
// re-partitioning would re-bucket late-drop history wrong), so resume
// keeps one shard and the wrapped rollup's clock.
func ShardedFrom(r *Rollup) *Sharded {
	return &Sharded{shards: []*Rollup{r}, scratch: make([][]Entry, 1)}
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Config returns the shared window geometry.
func (s *Sharded) Config() Config { return s.shards[0].Config() }

// shardFor routes a subscriber address to its shard: FNV-1a over the
// 16-byte address with a murmur-style finalizer (the low-bit mixing issue
// and its fix are the same as engine.ShardIndex's), so routing is
// deterministic across runs and processes.
func (s *Sharded) shardFor(sub netip.Addr) int {
	if len(s.shards) == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	b := sub.As16()
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(len(s.shards)))
}

// Observe folds one entry into its subscriber's shard. Entries with an
// invalid subscriber route to shard 0, whose Rollup counts them Late
// exactly as a single rollup would.
func (s *Sharded) Observe(e Entry) {
	s.shards[s.shardFor(e.Subscriber)].Observe(e)
}

// ObserveReports distills one batch of session reports and folds each
// shard's share under a single lock acquisition (Rollup.ObserveBatch) —
// the engine BatchSink fast path (pass the method value:
// engine.Config{BatchSink: s.ObserveReports}). Steady state allocates
// nothing: the per-shard entry scratch is reused across calls.
// Single-goroutine (see the type comment).
func (s *Sharded) ObserveReports(reports []*core.SessionReport) {
	for i := range s.scratch {
		s.scratch[i] = s.scratch[i][:0]
	}
	for _, r := range reports {
		e := FromReport(r)
		si := s.shardFor(e.Subscriber)
		s.scratch[si] = append(s.scratch[si], e)
	}
	for i, entries := range s.scratch {
		s.shards[i].ObserveBatch(entries)
	}
}

// Advance pushes every shard's window clock to now — one engine tick ages
// all shards together, so no shard's window lingers behind the fleet
// clock just because its subscribers went quiet.
func (s *Sharded) Advance(now time.Time) {
	for _, r := range s.shards {
		r.Advance(now)
	}
}

// Clock returns the newest packet-time instant any shard has observed
// (zero before any entry) — the clock the merged view carries.
func (s *Sharded) Clock() time.Time {
	var c time.Time
	for _, r := range s.shards {
		if rc := r.Clock(); rc.After(c) {
			c = rc
		}
	}
	return c
}

// Stats sums the shard counters. Late may exceed a single-rollup run's
// when entries straddle the window horizon (per-shard clocks trail the
// global one); with no late entries the sums match exactly.
func (s *Sharded) Stats() Stats {
	var st Stats
	for _, r := range s.shards {
		rs := r.Stats()
		st.Subscribers += rs.Subscribers
		st.Ingested += rs.Ingested
		st.Late += rs.Late
	}
	return st
}

// Merged folds every shard into one fresh Rollup (deep copies throughout;
// the shards keep ingesting) — the single-rollup-equivalent view, suitable
// for Subscribers/Total queries or checkpointing. The fold is
// Rollup.Merge, so the result is byte-identical to a single rollup that
// observed every entry (see the file comment for the late-entry caveat).
func (s *Sharded) Merged() (*Rollup, error) {
	out := New(s.shards[0].Config())
	for _, r := range s.shards {
		if err := out.Merge(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Snapshot writes the merged window as one canonical checkpoint — the
// same bytes a single-rollup run of the same entries would write, so
// sharded and unsharded monitors' checkpoints interoperate (Restore,
// rollupmerge) with no format distinction. The shards are written in place
// under all their locks (see the file comment).
func (s *Sharded) Snapshot(w io.Writer) error {
	return snapshotViews(w, s.shards)
}
