package rollup

import (
	"bytes"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/flowdetect"
	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/persist"
	"gamelens/internal/qoe"
	"gamelens/internal/stageclass"
	"gamelens/internal/trace"
)

var base = time.Date(2026, 7, 1, 6, 0, 0, 0, time.UTC)

// entry synthesizes a deterministic test entry for subscriber sub ending at
// base+offset.
func entry(sub int, offset time.Duration, title string, eff qoe.Level) Entry {
	e := Entry{
		Subscriber:   netip.AddrFrom4([4]byte{10, 0, 0, byte(sub)}),
		End:          base.Add(offset),
		Title:        title,
		MeanDownMbps: 10 + float64(sub),
		Objective:    qoe.Medium,
		Effective:    eff,
	}
	if title == "" {
		e.Pattern = "continuous"
	}
	e.StageMinutes[trace.StageActive] = 5
	e.StageMinutes[trace.StageIdle] = 1.5
	return e
}

func TestWindowAggregation(t *testing.T) {
	r := New(Config{Window: time.Hour, Buckets: 6})
	r.Observe(entry(1, 0, "Fortnite", qoe.Good))
	r.Observe(entry(1, 5*time.Minute, "Fortnite", qoe.Bad))
	r.Observe(entry(1, 20*time.Minute, "", qoe.Good))
	r.Observe(entry(2, 25*time.Minute, "Hearthstone", qoe.Good))

	aggs := r.Subscribers()
	if len(aggs) != 2 {
		t.Fatalf("%d subscribers, want 2", len(aggs))
	}
	a := aggs[0].Window
	if a.Sessions != 3 || a.Titles["Fortnite"] != 2 || a.Patterns["continuous"] != 1 {
		t.Errorf("subscriber 1 window wrong: %+v", a)
	}
	if got := a.StageMinutes[trace.StageActive]; got != 15 {
		t.Errorf("active minutes = %v, want 15", got)
	}
	if a.Effective[qoe.Good] != 2 || a.Effective[qoe.Bad] != 1 {
		t.Errorf("effective mix wrong: %v", a.Effective)
	}
	if got := aggs[1].Window.MeanDownMbps(); got != 12 {
		t.Errorf("subscriber 2 mean Mbps = %v, want 12", got)
	}
	total := r.Total()
	if total.Sessions != 4 {
		t.Errorf("total sessions = %d, want 4", total.Sessions)
	}
	if st := r.Stats(); st.Ingested != 4 || st.Late != 0 || st.Subscribers != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestWindowSlides pins the ring mechanics: entries older than the window
// stop contributing once the clock advances, their ring slots are reused,
// and entries arriving from before the slid window are dropped as late.
func TestWindowSlides(t *testing.T) {
	r := New(Config{Window: time.Hour, Buckets: 6}) // 10-minute buckets
	r.Observe(entry(1, 0, "Fortnite", qoe.Good))
	if got := r.Total().Sessions; got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}

	// Advance the clock one full window: the old bucket ages out of every
	// query even though nothing new was ingested into that subscriber.
	r.Advance(base.Add(61 * time.Minute))
	if got := r.Total().Sessions; got != 0 {
		t.Errorf("sessions after slide = %d, want 0", got)
	}
	if got := len(r.Subscribers()); got != 0 {
		t.Errorf("aged-out subscriber still reported: %d", got)
	}

	// A late entry from before the slid window is dropped and counted.
	r.Observe(entry(1, 30*time.Second, "Fortnite", qoe.Good))
	if st := r.Stats(); st.Late != 1 || st.Ingested != 1 {
		t.Errorf("late entry not dropped: %+v", st)
	}

	// A fresh entry lands in a slot the old bucket occupied (6 buckets, 70
	// minutes later: same ring position range) and must not inherit counts.
	r.Observe(entry(1, 65*time.Minute, "Hearthstone", qoe.Good))
	total := r.Total()
	if total.Sessions != 1 || total.Titles["Fortnite"] != 0 || total.Titles["Hearthstone"] != 1 {
		t.Errorf("slot reuse leaked old counts: %+v", total)
	}

	// Invalid subscriber addresses are dropped, not aggregated.
	r.Observe(Entry{End: base.Add(66 * time.Minute)})
	if st := r.Stats(); st.Late != 2 {
		t.Errorf("invalid-address entry not counted late: %+v", st)
	}

	// An unstamped (zero) End is dropped too: its UnixNano is not even
	// representable, and it must not drag the clock to year 1677.
	clock := r.Clock()
	r.Observe(entry(1, -66*time.Minute, "Fortnite", qoe.Good)) // warm a valid late path first
	zeroEnd := entry(1, 0, "Fortnite", qoe.Good)
	zeroEnd.End = time.Time{}
	r.Observe(zeroEnd)
	if st := r.Stats(); st.Late != 4 {
		t.Errorf("zero-End entry not counted late: %+v", st)
	}
	if !r.Clock().Equal(clock) {
		t.Errorf("zero-End entry moved the clock to %v", r.Clock())
	}
}

// TestObserveOrderIndependent feeds the same full-window entry set in two
// orders and requires identical checkpoints — aggregation is pure addition,
// and within one window nothing is order-sensitive.
func TestObserveOrderIndependent(t *testing.T) {
	entries := []Entry{
		entry(1, 0, "Fortnite", qoe.Good),
		entry(2, 10*time.Minute, "", qoe.Bad),
		entry(1, 20*time.Minute, "Fortnite", qoe.Medium),
		entry(3, 30*time.Minute, "Hearthstone", qoe.Good),
		entry(1, 40*time.Minute, "", qoe.Good),
	}
	fwd := New(Config{Window: time.Hour, Buckets: 6})
	for _, e := range entries {
		fwd.Observe(e)
	}
	rev := New(Config{Window: time.Hour, Buckets: 6})
	for i := len(entries) - 1; i >= 0; i-- {
		rev.Observe(entries[i])
	}
	var a, b bytes.Buffer
	if err := fwd.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := rev.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("checkpoints differ by ingest order:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestCheckpointRoundTrip pins the snapshot-restore identity: restoring a
// checkpoint and snapshotting again must reproduce it byte for byte, and
// the restored window must answer queries identically.
func TestCheckpointRoundTrip(t *testing.T) {
	r := New(Config{Window: 2 * time.Hour, Buckets: 8})
	for i := 0; i < 40; i++ {
		title := ""
		if i%3 != 0 {
			title = "Fortnite"
		}
		r.Observe(entry(i%5, time.Duration(i)*3*time.Minute, title, qoe.Level(i%3)))
	}

	var first bytes.Buffer
	if err := r.Snapshot(&first); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := restored.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("snapshot-restore-snapshot not the identity:\n%s\nvs\n%s", first.String(), second.String())
	}
	if got, want := restored.Stats(), r.Stats(); got != want {
		t.Errorf("restored stats %+v, want %+v", got, want)
	}
	if !restored.Clock().Equal(r.Clock()) {
		t.Errorf("restored clock %v, want %v", restored.Clock(), r.Clock())
	}
	wantAggs, gotAggs := r.Subscribers(), restored.Subscribers()
	if len(gotAggs) != len(wantAggs) {
		t.Fatalf("restored %d subscribers, want %d", len(gotAggs), len(wantAggs))
	}
	for i := range wantAggs {
		if gotAggs[i].Subscriber != wantAggs[i].Subscriber ||
			gotAggs[i].Window.Sessions != wantAggs[i].Window.Sessions ||
			gotAggs[i].Window.MbpsSum != wantAggs[i].Window.MbpsSum {
			t.Errorf("subscriber %d diverged after restore", i)
		}
	}
}

// TestCheckpointRestoreThenContinue is the restart-resume equivalence the
// §5 deployment needs: checkpoint mid-stream, restore into a fresh rollup,
// feed the remainder — the final checkpoint must be byte-identical to an
// uninterrupted run over the same entry stream. Every ninth entry is followed
// by a straggler dated about a window behind the clock, some just inside the
// horizon and some just past it, so the equivalence covers the late-entry
// rule too: the restored clock drops exactly what the original would have.
func TestCheckpointRestoreThenContinue(t *testing.T) {
	var entries []Entry
	for i := 0; i < 60; i++ {
		title := ""
		switch i % 4 {
		case 0:
			title = "Fortnite"
		case 1:
			title = "Hearthstone"
		}
		entries = append(entries, entry(i%7, time.Duration(i)*2*time.Minute, title, qoe.Level(i%3)))
		if i%9 == 4 {
			behind := time.Duration(50+8*(i%3)) * time.Minute // 50, 58 or 66 minutes in a 60-minute window
			entries = append(entries, entry(i%5, time.Duration(i)*2*time.Minute-behind, "Fortnite", qoe.Good))
		}
	}

	cfg := Config{Window: time.Hour, Buckets: 6}
	uninterrupted := New(cfg)
	for _, e := range entries {
		uninterrupted.Observe(e)
	}
	if st := uninterrupted.Stats(); st.Late == 0 || st.Ingested+st.Late != int64(len(entries)) {
		t.Fatalf("stragglers do not straddle the horizon: %+v", st)
	}

	for _, mid := range []int{1, 17, 30, len(entries) - 1} {
		first := New(cfg)
		for _, e := range entries[:mid] {
			first.Observe(e)
		}
		var ckpt bytes.Buffer
		if err := first.Snapshot(&ckpt); err != nil {
			t.Fatal(err)
		}
		resumed, err := Restore(&ckpt)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries[mid:] {
			resumed.Observe(e)
		}
		if mid <= 30 && resumed.Stats().Late == first.Stats().Late {
			t.Errorf("mid=%d: no entry was late after the restore point", mid)
		}
		if got, want := resumed.Stats(), uninterrupted.Stats(); got != want {
			t.Errorf("mid=%d: resumed stats %+v, uninterrupted %+v", mid, got, want)
		}

		var want, got bytes.Buffer
		if err := uninterrupted.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Snapshot(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("mid=%d: resumed run diverged from uninterrupted:\n%s\nvs\n%s",
				mid, want.String(), got.String())
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "..", "rollup.ckpt") // exercises Dir handling
	r := New(Config{})
	r.Observe(entry(1, time.Minute, "Fortnite", qoe.Good))
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Total().Sessions; got != 1 {
		t.Errorf("restored sessions = %d, want 1", got)
	}
	if _, err := LoadFile(nil, filepath.Join(t.TempDir(), "missing.ckpt")); !os.IsNotExist(err) {
		t.Errorf("missing checkpoint error = %v, want IsNotExist", err)
	}
}

// TestCheckpointSurvivesNaNMeasurements pins crash recovery against
// corrupt measurements: an entry with NaN throughput or QoE proxy still
// adds exactly one sample to each sketch (the zero centroid), so the
// rollup's own checkpoint always restores — Count == Sessions cannot
// desynchronize.
func TestCheckpointSurvivesNaNMeasurements(t *testing.T) {
	r := New(Config{})
	e := entry(1, time.Minute, "Fortnite", qoe.Good)
	e.MeanDownMbps = math.NaN()
	e.QoEProxy = math.NaN()
	r.Observe(e)
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("rollup rejected its own checkpoint after a NaN measurement: %v", err)
	}
	total := restored.Total()
	if got := total.ThroughputQuantile(1); got != 0 {
		t.Errorf("NaN measurement reported as %v, want 0", got)
	}
}

// footered appends a valid integrity footer to a hand-built document, the
// way Snapshot does, so each garbage case below fails for its named
// document-level reason rather than at the footer gate.
func footered(doc string) string {
	if !strings.HasSuffix(doc, "\n") {
		doc += "\n"
	}
	return string(persist.AppendFooter([]byte(doc)))
}

func TestRestoreRejectsGarbage(t *testing.T) {
	// sketches renders valid counts-consistent sketch fields for a
	// one-session bucket, so each case below fails only for its named
	// reason.
	const sketches = `"throughput":{"alpha":0.05,"min":0.001,"max":100000,"centroids":[[100,1]]},` +
		`"qoe_proxy":{"alpha":0.05,"min":0.001,"max":100000,"zero":1}`
	okDoc := `{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,"clock":"2026-07-01T06:00:00Z","ingested":1,` +
		`"subscribers":[{"addr":"10.0.0.1","buckets":[{"idx":82782,"counts":{"sessions":1,"stage_minutes":[0,0,0,0],"mbps_sum":0,"objective":[0,1,0],"effective":[0,1,0],` + sketches + `}}]}]}`
	for name, doc := range map[string]string{
		"not json":         footered("patently not json"),
		"wrong format":     footered(`{"format":"gamelens-forest-v1","window_ns":1,"buckets":1}`),
		"v2 checkpoint":    footered(`{"format":"gamelens-rollup-v2","window_ns":3600000000000,"buckets":6,"subscribers":[]}`),
		"bad geometry":     footered(`{"format":"gamelens-rollup-v3","window_ns":0,"buckets":0}`),
		"too many buckets": footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":4097,"subscribers":[]}`),
		"no buckets":       footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,"subscribers":[{"addr":"10.0.0.1","buckets":[]}]}`),
		"bad addr":         footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,"subscribers":[{"addr":"nope","buckets":[]}]}`),
		"dup slot": footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,` +
			`"subscribers":[{"addr":"10.0.0.1","buckets":[{"idx":1,"counts":{"sessions":1,` + sketches + `}},{"idx":7,"counts":{"sessions":1,` + sketches + `}}]}]}`),
		"sentinel idx": footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,` +
			`"subscribers":[{"addr":"10.0.0.1","buckets":[{"idx":-9223372036854775808,"counts":{"sessions":1,` + sketches + `}}]}]}`),
		"zero sessions": footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,` +
			`"subscribers":[{"addr":"10.0.0.1","buckets":[{"idx":1,"counts":{"sessions":0,` + sketches + `}}]}]}`),
		"missing sketch": footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,` +
			`"subscribers":[{"addr":"10.0.0.1","buckets":[{"idx":1,"counts":{"sessions":1}}]}]}`),
		"alien sketch geometry": footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,` +
			`"subscribers":[{"addr":"10.0.0.1","buckets":[{"idx":1,"counts":{"sessions":1,` +
			`"throughput":{"alpha":0.01,"min":0.001,"max":100000,"zero":1},` +
			`"qoe_proxy":{"alpha":0.05,"min":0.001,"max":100000,"zero":1}}}]}]}`),
		"sketch count mismatch": footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,` +
			`"subscribers":[{"addr":"10.0.0.1","buckets":[{"idx":1,"counts":{"sessions":2,` + sketches + `}}]}]}`),
		"corrupt sketch": footered(`{"format":"gamelens-rollup-v3","window_ns":3600000000000,"buckets":6,` +
			`"subscribers":[{"addr":"10.0.0.1","buckets":[{"idx":1,"counts":{"sessions":1,` +
			`"throughput":{"alpha":0.05,"min":0.001,"max":100000,"centroids":[[100,1],[50,1]]},` +
			`"qoe_proxy":{"alpha":0.05,"min":0.001,"max":100000,"zero":1}}}]}]}`),
		// Footer-gate failures: a document without a footer (a pre-v3
		// checkpoint tail, or a truncation that lost the footer line), and a
		// footer whose CRC no longer matches the bytes it covers.
		"missing footer": okDoc + "\n",
		"bad footer crc": strings.Replace(footered(okDoc), `"idx":82782`, `"idx":82783`, 1),
	} {
		if _, err := Restore(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Restore accepted invalid checkpoint", name)
		}
	}
	// The valid skeleton the cases above corrupt must itself restore, or
	// the rejections prove nothing.
	if _, err := Restore(strings.NewReader(footered(okDoc))); err != nil {
		t.Errorf("valid v3 skeleton rejected: %v", err)
	}
}

// TestUnknownBuckets pins the share-accounting fix: sessions with neither
// title nor pattern, and sessions with out-of-range QoE levels, land in
// explicit Unknown buckets instead of vanishing, so every share axis still
// sums to Sessions.
func TestUnknownBuckets(t *testing.T) {
	r := New(Config{Window: time.Hour, Buckets: 6})
	r.Observe(entry(1, 0, "Fortnite", qoe.Good))
	nameless := entry(1, time.Minute, "", qoe.Good)
	nameless.Pattern = "" // neither title nor pattern
	nameless.Objective = qoe.Level(-1)
	nameless.Effective = qoe.Level(99)
	r.Observe(nameless)

	w := r.Total()
	if w.Sessions != 2 {
		t.Fatalf("sessions = %d, want 2", w.Sessions)
	}
	if w.Unknown != 1 {
		t.Errorf("Unknown = %d, want 1", w.Unknown)
	}
	var titled, patterned int64
	for _, n := range w.Titles {
		titled += n
	}
	for _, n := range w.Patterns {
		patterned += n
	}
	if titled+patterned+w.Unknown != w.Sessions {
		t.Errorf("title shares do not sum: %d + %d + %d != %d", titled, patterned, w.Unknown, w.Sessions)
	}
	var obj, eff int64
	for l := 0; l < qoe.NumLevels; l++ {
		obj += w.Objective[l]
		eff += w.Effective[l]
	}
	if obj+w.ObjectiveUnknown != w.Sessions || w.ObjectiveUnknown != 1 {
		t.Errorf("objective axis does not sum: %d graded + %d unknown vs %d sessions", obj, w.ObjectiveUnknown, w.Sessions)
	}
	if eff+w.EffectiveUnknown != w.Sessions || w.EffectiveUnknown != 1 {
		t.Errorf("effective axis does not sum: %d graded + %d unknown vs %d sessions", eff, w.EffectiveUnknown, w.Sessions)
	}
}

// TestWindowPercentiles pins the drill-down sketches end to end: every
// bucket sketches throughput and the QoE proxy, window queries merge them,
// and the marks come back within the sketch accuracy bound.
func TestWindowPercentiles(t *testing.T) {
	r := New(Config{Window: time.Hour, Buckets: 6})
	// 100 sessions for one subscriber: Mbps 1..100, proxy i/100.
	for i := 1; i <= 100; i++ {
		e := entry(1, time.Duration(i)*20*time.Second, "Fortnite", qoe.Good)
		e.MeanDownMbps = float64(i)
		e.QoEProxy = float64(i) / 100
		r.Observe(e)
	}
	aggs := r.Subscribers()
	if len(aggs) != 1 {
		t.Fatalf("%d subscribers, want 1", len(aggs))
	}
	w := aggs[0].Window
	if w.Throughput == nil || w.QoEProxy == nil {
		t.Fatal("window aggregate missing sketches")
	}
	if got := w.Throughput.Count(); got != 100 {
		t.Fatalf("throughput sketch holds %d samples, want 100", got)
	}
	p := w.ThroughputPercentiles()
	for _, chk := range []struct {
		name      string
		got, want float64
	}{
		{"p50", p.P50, 50}, {"p90", p.P90, 90}, {"p99", p.P99, 99},
		{"proxy p50", w.QoEProxyPercentiles().P50, 0.5},
		{"quantile(0.25)", w.ThroughputQuantile(0.25), 25},
	} {
		if rel := chk.got/chk.want - 1; rel > 0.05 || rel < -0.05 {
			t.Errorf("%s = %v, want %v ± 5%%", chk.name, chk.got, chk.want)
		}
	}
	var empty Counts
	if p := empty.ThroughputPercentiles(); p != (Percentiles{}) {
		t.Errorf("empty aggregate percentiles = %+v, want zeros", p)
	}

	// A subscriber whose sessions all score exactly 1.0 must never report
	// an impossible proxy above 1: the sketch's centroid representative
	// sits up to alpha above the value, and the query layer clamps it.
	perfect := New(Config{Window: time.Hour, Buckets: 6})
	for i := 0; i < 10; i++ {
		e := entry(1, time.Duration(i)*time.Minute, "Fortnite", qoe.Good)
		e.QoEProxy = 1
		perfect.Observe(e)
	}
	pw := perfect.Total()
	if p := pw.QoEProxyPercentiles(); p.P50 != 1 || p.P99 != 1 {
		t.Errorf("all-perfect proxy percentiles = %+v, want exactly 1", p)
	}
	if got := pw.QoEProxyQuantile(0.9); got != 1 {
		t.Errorf("all-perfect proxy q90 = %v, want exactly 1", got)
	}
}

// TestPreEpochTimestamps pins bucket indexing, sliding and checkpointing
// for captures that start before the Unix epoch (synthetic PCAPs routinely
// do): floorDiv keeps bucket numbers monotonic across zero, negative
// indices round-trip through checkpoints, and late-dropping at the epoch
// boundary behaves exactly as it does anywhere else on the time axis.
func TestPreEpochTimestamps(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	cfg := Config{Window: time.Hour, Buckets: 6} // 10-minute buckets
	r := New(cfg)

	at := func(offset time.Duration, sub int) Entry {
		e := entry(sub, 0, "Fortnite", qoe.Good)
		e.End = epoch.Add(offset)
		return e
	}
	// Straddle the epoch: one entry 25 minutes before, one 1 ns before
	// (bucket -1), one exactly at the epoch (bucket 0), one after.
	r.Observe(at(-25*time.Minute, 1))
	r.Observe(at(-time.Nanosecond, 1))
	r.Observe(at(0, 2))
	r.Observe(at(9*time.Minute, 2))
	if st := r.Stats(); st.Ingested != 4 || st.Late != 0 {
		t.Fatalf("pre-epoch entries mishandled: %+v", st)
	}
	if got := r.Total().Sessions; got != 4 {
		t.Fatalf("window sessions = %d, want 4", got)
	}

	// The -1ns and +0 entries must land in adjacent buckets, not share
	// bucket 0 (truncating division would fold -1ns into bucket 0).
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.String()
	if !strings.Contains(snap, `"idx": -1`) || !strings.Contains(snap, `"idx": 0`) {
		t.Errorf("epoch-straddling buckets not at indices -1 and 0:\n%s", snap)
	}

	// Negative indices survive the checkpoint round trip byte-identically.
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restoring pre-epoch checkpoint: %v", err)
	}
	var second bytes.Buffer
	if err := restored.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), second.Bytes()) {
		t.Errorf("pre-epoch snapshot-restore-snapshot not the identity:\n%s\nvs\n%s", snap, second.String())
	}

	// Sliding across the epoch ages pre-epoch buckets out normally, and a
	// late pre-epoch entry is dropped exactly like any other late entry.
	r.Advance(epoch.Add(36 * time.Minute)) // window now (-24m, 36m]
	if got := r.Total().Sessions; got != 3 {
		t.Errorf("after slide: %d sessions, want 3 (the -25m bucket aged out)", got)
	}
	r.Observe(at(-30*time.Minute, 1))
	if st := r.Stats(); st.Late != 1 {
		t.Errorf("late pre-epoch entry not dropped: %+v", st)
	}
	// A zero-instant Advance is ignored (its UnixNano is unrepresentable),
	// not treated as a year-one clock.
	clock := r.Clock()
	r.Advance(time.Time{})
	if !r.Clock().Equal(clock) {
		t.Errorf("zero-instant Advance moved the clock to %v", r.Clock())
	}
}

// reportFor builds an unfinalized-looking session report for a flow: title
// unknown (long-tail), pattern inferred, ended at end.
func reportFor(f *flowdetect.Flow, end time.Time) *core.SessionReport {
	r := &core.SessionReport{
		Flow:           f,
		Pattern:        stageclass.PatternResult{Pattern: gamesim.ContinuousPlay},
		MeanDownMbps:   14,
		Objective:      qoe.Medium,
		Effective:      qoe.Good,
		EffectiveScore: 0.75,
		End:            end,
	}
	r.StageMinutes[trace.StageActive] = 4
	return r
}

// TestFromReport pins the report→entry distillation, including the
// client-address attribution on canonical keys.
func TestFromReport(t *testing.T) {
	server := netip.MustParseAddr("203.0.113.10")
	client := netip.MustParseAddr("192.0.2.77")
	key := packet.FlowKey{
		Src: server, Dst: client, SrcPort: 9295, DstPort: 51000, Proto: packet.ProtoUDP,
	}.Canonical()
	f := &flowdetect.Flow{Key: key, ServerPort: 9295, LastSeen: base.Add(9 * time.Minute)}
	if got := ClientAddr(f); got != client {
		t.Fatalf("ClientAddr = %v, want %v", got, client)
	}

	// End falls back to the flow's last-seen when the report was not
	// finalized.
	rep := reportFor(f, base.Add(5*time.Minute))
	e := FromReport(rep)
	if e.Subscriber != client {
		t.Errorf("subscriber = %v, want %v", e.Subscriber, client)
	}
	if !e.End.Equal(base.Add(5 * time.Minute)) {
		t.Errorf("end = %v, want report end", e.End)
	}
	rep.End = time.Time{}
	if e := FromReport(rep); !e.End.Equal(f.LastSeen) {
		t.Errorf("zero-End fallback = %v, want flow LastSeen", e.End)
	}
	if e.Title != "" || e.Pattern == "" {
		t.Errorf("unknown title must group by pattern, got title=%q pattern=%q", e.Title, e.Pattern)
	}
	if e.QoEProxy != 0.75 {
		t.Errorf("QoEProxy = %v, want the report's EffectiveScore 0.75", e.QoEProxy)
	}
}
