package rollup

import (
	"net/netip"
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
