package rollup

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/flowdetect"
	"gamelens/internal/packet"
	"gamelens/internal/race"
)

// TestShardedMatchesSingle is the sharded-rollup invariant the engine's
// report path stands on: for every shard count, merging the shard-local
// rollups reproduces a single rollup fed the same entries byte-for-byte —
// including through a full checkpoint round trip, so a sharded monitor's
// checkpoints interoperate with unsharded ones with no format distinction.
func TestShardedMatchesSingle(t *testing.T) {
	cfg := Config{Window: 4 * time.Hour, Buckets: 8}
	entries := mergeEntries(160, 11)
	single := New(cfg)
	for _, e := range entries {
		single.Observe(e)
	}
	want := snapshotOf(t, single)

	for shards := 1; shards <= 8; shards++ {
		sh := NewSharded(shards, cfg)
		for _, e := range entries {
			sh.Observe(e)
		}
		merged, err := sh.Merged()
		if err != nil {
			t.Fatalf("shards=%d: Merged: %v", shards, err)
		}
		got := snapshotOf(t, merged)
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: merged snapshot differs from single-rollup run", shards)
		}

		// Full checkpoint round trip: restore the merged snapshot and
		// re-checkpoint; canonical bytes must survive.
		restored, err := Restore(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("shards=%d: Restore: %v", shards, err)
		}
		if again := snapshotOf(t, restored); !bytes.Equal(again, want) {
			t.Errorf("shards=%d: snapshot differs after checkpoint round trip", shards)
		}

		// Sharded.Snapshot is the same bytes without materializing Merged
		// at the call site.
		var buf bytes.Buffer
		if err := sh.Snapshot(&buf); err != nil {
			t.Fatalf("shards=%d: Snapshot: %v", shards, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("shards=%d: Sharded.Snapshot differs from single-rollup run", shards)
		}

		st := sh.Stats()
		if st.Ingested != int64(len(entries)) || st.Late != 0 {
			t.Errorf("shards=%d: stats = %+v, want %d ingested and 0 late", shards, st, len(entries))
		}
	}
}

// TestObserveBatchMatchesObserve pins ObserveBatch's contract: identical
// window state to per-entry Observe in slice order.
func TestObserveBatchMatchesObserve(t *testing.T) {
	cfg := Config{Window: 2 * time.Hour, Buckets: 6}
	entries := mergeEntries(90, 7)
	one := New(cfg)
	for _, e := range entries {
		one.Observe(e)
	}
	batched := New(cfg)
	for i := 0; i < len(entries); i += 13 {
		end := i + 13
		if end > len(entries) {
			end = len(entries)
		}
		batched.ObserveBatch(entries[i:end])
	}
	batched.ObserveBatch(nil) // empty batch is a no-op, not a lock dance
	if a, b := snapshotOf(t, one), snapshotOf(t, batched); !bytes.Equal(a, b) {
		t.Error("ObserveBatch window state differs from per-entry Observe")
	}
}

// TestShardedObserveReports pins the engine BatchSink adapter: distilling
// report batches through ObserveReports must land the same merged state as
// streaming every report through a single rollup's Observe.
func TestShardedObserveReports(t *testing.T) {
	cfg := Config{Window: 4 * time.Hour, Buckets: 8}
	var reports []*core.SessionReport
	for i := 0; i < 60; i++ {
		key := packet.FlowKey{
			Src: netip.AddrFrom4([4]byte{203, 0, 113, 10}), Dst: netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			SrcPort: 9295, DstPort: uint16(51000 + i), Proto: packet.ProtoUDP,
		}.Canonical()
		f := &flowdetect.Flow{Key: key, ServerPort: 9295}
		r := reportFor(f, base.Add(time.Duration(i)*3*time.Minute))
		r.Evicted = i%5 == 0
		reports = append(reports, r)
	}
	single := New(cfg)
	for _, r := range reports {
		single.Observe(FromReport(r))
	}
	want := snapshotOf(t, single)

	sh := NewSharded(4, cfg)
	for i := 0; i < len(reports); i += 17 {
		end := i + 17
		if end > len(reports) {
			end = len(reports)
		}
		sh.ObserveReports(reports[i:end])
	}
	var buf bytes.Buffer
	if err := sh.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("ObserveReports merged state differs from per-report Sink stream")
	}
}

// TestRollupObserveBatchAllocs extends the allocgate pin to the batch
// path: once a subscriber's bucket is warm, folding a batch allocates
// nothing — the emitter's drain loop rides this.
func TestRollupObserveBatchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned without -race instrumentation")
	}
	r := New(Config{Window: time.Hour, Buckets: 6})
	entries := make([]Entry, 24)
	for i := range entries {
		entries[i] = entry(i%4, time.Duration(i)*time.Second, "Fortnite", 2)
	}
	allocs := testing.AllocsPerRun(500, func() {
		r.ObserveBatch(entries)
	})
	if allocs != 0 {
		t.Fatalf("ObserveBatch allocated %.1f allocs/op steady-state, want 0", allocs)
	}
}
