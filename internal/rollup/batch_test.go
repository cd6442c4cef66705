package rollup

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/flowdetect"
	"gamelens/internal/packet"
	"gamelens/internal/race"
)

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

// testReports builds n finished-session reports, one subscriber each, three
// minutes apart.
func testReports(n int) []*core.SessionReport {
	reports := make([]*core.SessionReport, n)
	for i := range reports {
		key := packet.FlowKey{
			Src: netip.AddrFrom4([4]byte{203, 0, 113, 10}), Dst: netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			SrcPort: 9295, DstPort: uint16(51000 + i), Proto: packet.ProtoUDP,
		}.Canonical()
		f := &flowdetect.Flow{Key: key, ServerPort: 9295}
		reports[i] = reportFor(f, base.Add(time.Duration(i)*3*time.Minute))
		reports[i].Evicted = i%5 == 0
	}
	return reports
}

// TestObserveReportsMatchesObserve pins the engine BatchSink adapter:
// distilling report batches through ObserveReports lands the same bytes as
// Observe(FromReport(r)) per report in order — a report whose flow has no
// client address counted Late on both sides.
func TestObserveReportsMatchesObserve(t *testing.T) {
	cfg := Config{Window: 4 * time.Hour, Buckets: 8}
	reports := testReports(60)
	reports = append(reports, reportFor(&flowdetect.Flow{}, base.Add(time.Hour))) // zero key: no subscriber
	one := New(cfg)
	for _, r := range reports {
		one.Observe(FromReport(r))
	}
	batched := New(cfg)
	for i := 0; i < len(reports); i += 17 {
		batched.ObserveReports(reports[i:min(i+17, len(reports))])
	}
	batched.ObserveReports(nil)
	if a, b := snapshotOf(t, one), snapshotOf(t, batched); !bytes.Equal(a, b) {
		t.Errorf("ObserveReports window state differs from per-report Observe: %s", firstDiff(b, a))
	}
	if st := batched.Stats(); st.Ingested != 60 || st.Late != 1 {
		t.Errorf("stats = %+v, want 60 ingested and the subscriber-less report late", st)
	}
}

// TestObserveReportsConcurrentReaders runs the window the way a monitor
// does — one goroutine (the engine's emitter) folding report batches while
// another reads the dashboard, checkpoints and polls the counters — and
// holds every checkpoint taken mid-ingest to being one cut: nothing ages out
// here and nothing is late, so a restored snapshot's Ingested equals the
// sessions it carries, whatever instant it was taken at. (Run under -race:
// every reader walks the buckets in place, under the one lock.)
func TestObserveReportsConcurrentReaders(t *testing.T) {
	const rounds = 2000
	r := New(Config{Window: 4 * time.Hour, Buckets: 8})
	reports := testReports(60) // three hours end to end: inside one window
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for lo := 0; lo < len(reports); lo += 17 {
				r.ObserveReports(reports[lo:min(lo+17, len(reports))])
			}
		}
	}()
	check := func() {
		var sessions int64
		for _, a := range r.Subscribers() {
			sessions += a.Window.Sessions
		}
		if st := r.Stats(); st.Ingested < sessions || st.Late != 0 {
			t.Fatalf("counters ran behind a view read before them: %+v, %d sessions in view", st, sessions)
		}
		restored, err := Restore(bytes.NewReader(snapshotOf(t, r)))
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if st, total := restored.Stats(), restored.Total(); st.Ingested != total.Sessions || st.Late != 0 {
			t.Fatalf("snapshot is not one cut: %d ingested, %d late, %d sessions carried", st.Ingested, st.Late, total.Sessions)
		}
	}
	for r.Stats().Ingested < rounds*int64(len(reports)) {
		check()
	}
	wg.Wait()
	check()
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

// TestRollupObserveReportsAllocs pins the engine's BatchSink at zero
// allocations once its subscribers' buckets are warm: distilling a report
// into an Entry and folding it costs nothing beyond the report itself.
func TestRollupObserveReportsAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned without -race instrumentation")
	}
	r := New(Config{Window: 4 * time.Hour, Buckets: 8})
	reports := testReports(24)
	r.ObserveReports(reports)
	allocs := testing.AllocsPerRun(500, func() {
		r.ObserveReports(reports)
	})
	if allocs != 0 {
		t.Fatalf("ObserveReports allocated %.1f allocs/op steady-state, want 0", allocs)
	}
}
