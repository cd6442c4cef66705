package rollup

import (
	"bytes"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"gamelens/internal/race"
)

// TestRollupObserveAllocs pins the report-stream hot path at zero
// allocations in steady state: a warm subscriber's window bucket absorbs an
// entry — the additive counters and both percentile sketch insertions — by
// pure addition. (Cold paths still allocate — a new subscriber's ring, a
// rotated bucket's title map and sketch buffers — but those are
// per-subscriber and per-bucket-width events, not per-report.)
func TestRollupObserveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	r := New(Config{Window: time.Hour, Buckets: 12})
	e := Entry{
		Subscriber:   netip.AddrFrom4([4]byte{10, 9, 8, 7}),
		End:          time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC),
		Title:        "Fortnite",
		MeanDownMbps: 14,
		QoEProxy:     0.83,
	}
	e.StageMinutes[2] = 3.5
	r.Observe(e) // warm: subscriber ring, bucket, title map entry
	if n := testing.AllocsPerRun(500, func() { r.Observe(e) }); n != 0 {
		t.Fatalf("Rollup.Observe allocates %.1f/op, want 0", n)
	}
	// The pattern-keyed (unknown title) path is equally warm.
	p := e
	p.Title, p.Pattern = "", "continuous-play"
	r.Observe(p)
	if n := testing.AllocsPerRun(500, func() { r.Observe(p) }); n != 0 {
		t.Fatalf("Rollup.Observe (pattern path) allocates %.1f/op, want 0", n)
	}
}

// TestRollupRotationAllocs pins bucket rotation at zero allocations: every
// Observe below advances End by exactly one bucket width, so each lands in
// a fresh bucket and rotates a ring slot that already aggregated a previous
// lap. The rotated slot must reset its maps and sketches in place — before
// pooling, each rotation rebuilt both percentile sketches (~1.5 KB of
// centroids each), the regression PR 5's bench run recorded as
// BenchmarkRollupIngest going 4→8 allocs/op.
func TestRollupRotationAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	const buckets = 12
	window := time.Hour
	width := window / buckets
	r := New(Config{Window: window, Buckets: buckets})
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	e := Entry{
		Subscriber:   netip.AddrFrom4([4]byte{10, 9, 8, 7}),
		Title:        "Fortnite",
		MeanDownMbps: 14,
		QoEProxy:     0.83,
	}
	e.StageMinutes[2] = 3.5
	// Warm one full lap plus one rotation, so every ring slot holds a
	// populated bucket and the rotation path itself has run once.
	step := 0
	observe := func() {
		step++
		e.End = base.Add(time.Duration(step) * width)
		r.Observe(e)
	}
	for i := 0; i < buckets+1; i++ {
		observe()
	}
	if n := testing.AllocsPerRun(300, observe); n != 0 {
		t.Fatalf("rotating Observe allocates %.1f/op, want 0", n)
	}
	st := r.Stats()
	if st.Late != 0 {
		t.Fatalf("rotation test lost entries as late: %+v", st)
	}
}

// TestRollupSubscriberRetention pins what a months-long monitor's heap rests
// on: a subscriber whose every bucket has aged out is dropped from the
// window, ring and sketch buffers with it, so residency follows the
// subscribers seen in the last window — not every address ever seen. 10 000
// one-session subscribers, then two idle windows in which only 10 stay
// active: the 10 are all that remain, and the window's live heap (measured
// as what dropping it releases) is under a fixed 2 MB — 1.1 MB measured, most
// of it the emptied map's own table, which Go does not shrink — where holding
// the 10 000 rings took 56 MB.
func TestRollupSubscriberRetention(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are only meaningful in the plain build")
	}
	const churned, stayers = 10000, 10
	r := New(Config{Window: time.Hour, Buckets: 12})
	at := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	e := Entry{Title: "Fortnite", MeanDownMbps: 14, QoEProxy: 0.83}
	for i := 0; i < churned; i++ {
		e.Subscriber, e.End = netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), at.Add(time.Duration(i)*time.Millisecond)
		r.Observe(e)
	}
	if st := r.Stats(); st.Subscribers != churned {
		t.Fatalf("%d subscribers resident after the churn, want %d", st.Subscribers, churned)
	}
	for step := 1; step <= 24; step++ { // two windows, one bucket width at a time
		for i := 0; i < stayers; i++ {
			e.Subscriber, e.End = netip.AddrFrom4([4]byte{10, 2, 0, byte(i)}), at.Add(time.Duration(step)*5*time.Minute)
			r.Observe(e)
		}
	}
	st := r.Stats()
	if st.Subscribers != stayers || st.Ingested != churned+24*stayers || st.Late != 0 {
		t.Fatalf("after two idle windows: %+v, want the %d active subscribers resident", st, stayers)
	}
	if restored, err := Restore(bytes.NewReader(snapshotOf(t, r))); err != nil {
		t.Fatal(err)
	} else if rs := restored.Stats(); rs != st {
		t.Fatalf("a restore of the same instant reports %+v, the live window %+v", rs, st)
	}

	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	r.subs = nil
	after := live()
	const bound = 2 << 20
	if retained := int64(before) - int64(after); retained > bound {
		t.Fatalf("window holds %d B for %d active subscribers after %d aged out, want at most %d", retained, stayers, churned, bound)
	} else {
		t.Logf("window memory held for %d active subscribers after %d aged out: %d B", stayers, churned, retained)
	}
	runtime.KeepAlive(r)
}
