package rollup

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"gamelens/internal/persist"
	"gamelens/internal/qoe"
	"gamelens/internal/race"
	"gamelens/internal/sketch"
)

// reflectSnapshot is the checkpoint encoder Snapshot used before the cell
// codec: build the checkpointJSON tree, sort it, and let encoding/json
// reflect over it. It lives on here as the reference — every property below
// is "the append encoder writes what this one does".
func reflectSnapshot(r *Rollup, w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := checkpointJSON{
		Format:   checkpointFormat,
		WindowNs: int64(r.cfg.Window),
		Buckets:  r.cfg.Buckets,
		Ingested: r.ingested,
		Late:     r.late,
		Subs:     []subscriberJSON{},
	}
	if r.hasClock {
		doc.Clock = time.Unix(0, r.clockNs).UTC().Format(time.RFC3339Nano)
	}
	addrs := make([]netip.Addr, 0, len(r.subs))
	for addr := range r.subs {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	for _, addr := range addrs {
		sub := r.subs[addr]
		sj := subscriberJSON{Addr: addr.String()}
		for i := range sub.ring {
			b := &sub.ring[i]
			if b.idx != noBucket && r.liveLocked(b.idx) && b.counts.Sessions > 0 {
				sj.Buckets = append(sj.Buckets, bucketJSON{Idx: b.idx, Counts: b.counts})
			}
		}
		if len(sj.Buckets) == 0 {
			continue
		}
		sort.Slice(sj.Buckets, func(i, j int) bool { return sj.Buckets[i].Idx < sj.Buckets[j].Idx })
		doc.Subs = append(doc.Subs, sj)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err := w.Write(persist.AppendFooter(buf.Bytes()))
	return err
}

// firstDiff renders where two documents part ways, for failure messages.
func firstDiff(got, want []byte) string {
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	lo, hiG, hiW := max(0, i-60), min(len(got), i+60), min(len(want), i+60)
	return fmt.Sprintf("lengths %d vs %d, first difference at byte %d:\n got: %q\nwant: %q", len(got), len(want), i, got[lo:hiG], want[lo:hiW])
}

// hostileNames are keys chosen against the string encoder: the HTML trio,
// quotes and backslashes, control bytes with and without short escapes,
// DEL (which JSON leaves alone), invalid UTF-8, the two JSONP separators,
// and plain multi-byte text.
var hostileNames = []string{
	"Fortnite", "Genshin Impact", `<script>&"quoted"\back`, "tab\tnl\nbs\bff\fcr\r", "\x00\x01\x1f", "del\x7f",
	"bad\xff\xfeutf8", "sep\u2028\u2029", "日本語タイトル", "a", "A", "~", " ",
}

// hostileSums are throughput values chosen against the float encoder: both
// sides of the 'e'/'f' switches at 1e-6 and 1e21, exponents that do and do
// not take the leading-zero trim, negative zero, and non-finite inputs
// (which Observe must turn into zeros, not into an unencodable sum).
var hostileSums = []float64{
	0, math.Copysign(0, -1), 1e-9, 9.99e-7, 1e-6, 1.5e-6, 0.1, 14.25, 1e20, 9.9e20, 1e21, 3e22, 1e100, 1e-100,
	-3e22, -1e-9, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, 1e300,
}

// injectedCell is a pre-aggregated cell with what Observe cannot produce: an
// empty-string key, a zero-valued key, negative counters.
func injectedCell(rng *rand.Rand) *Counts {
	c := &Counts{
		Sessions: 3, Evicted: -1, Unknown: 1,
		Titles:           map[string]int64{"": 2, hostileNames[rng.Intn(len(hostileNames))]: 0},
		MbpsSum:          hostileSums[rng.Intn(16)], // the finite ones
		ObjectiveUnknown: 3, EffectiveUnknown: -2,
		Throughput: sketch.New(sketchCfg), QoEProxy: sketch.New(sketchCfg),
	}
	for i := 0; i < 3; i++ {
		c.Throughput.Add(float64(i) * 7.5) // the first lands in the zero centroid
		c.QoEProxy.Add(0.5)
	}
	return c
}

// randomWindow fills a window (odd geometry, sometimes pre-epoch) with up to
// maxEntries entries of up to maxSubs subscribers, spread over several window
// spans — so some buckets have aged out, some slots have rotated, some
// subscribers have been dropped, some entries arrive late — plus a few
// injected cells, and sometimes pushes the clock on past the last entry.
func randomWindow(seed int64, maxSubs, maxEntries int) *Rollup {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Window:  time.Duration(1+rng.Intn(5000)) * time.Duration([]int64{1, 1e3, 1e6, 1e9, 60e9}[rng.Intn(5)]),
		Buckets: 1 + rng.Intn(17),
	}
	rng.Intn(8) // a draw the generator has always made: FuzzRestoreReencode's seeds are numbered by the documents that follow
	r := New(cfg)
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	if rng.Intn(3) == 0 {
		base = time.Unix(-86400*int64(1+rng.Intn(4000)), int64(rng.Intn(1e9))) // pre-epoch capture
	}
	span := 3 * int64(cfg.Window)
	subs := 1 + rng.Intn(maxSubs)
	for i, n := 0, rng.Intn(maxEntries); i < n; i++ {
		e := Entry{
			Subscriber:   netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(subs))}),
			End:          base.Add(time.Duration(rng.Int63n(span))),
			MeanDownMbps: hostileSums[rng.Intn(len(hostileSums))],
			Objective:    qoe.Level(rng.Intn(qoe.NumLevels+2) - 1),
			Effective:    qoe.Level(rng.Intn(qoe.NumLevels+2) - 1),
			QoEProxy:     rng.Float64(),
			Evicted:      rng.Intn(2) == 0,
		}
		switch rng.Intn(6) {
		case 0: // v6, and the 4-in-6 form of a v4 subscriber
			e.Subscriber = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 15: byte(rng.Intn(subs))})
		case 1:
			e.Subscriber = netip.AddrFrom16(e.Subscriber.As16())
		case 2: // a zone is free text, and ends up inside a JSON string
			e.Subscriber = netip.AddrFrom16([16]byte{0xfe, 0x80, 15: 1}).WithZone(hostileNames[rng.Intn(len(hostileNames))])
		}
		switch rng.Intn(4) {
		case 0:
			e.Pattern = hostileNames[rng.Intn(len(hostileNames))]
		case 1: // neither: the unknown counter
		default:
			e.Title = hostileNames[rng.Intn(len(hostileNames))]
		}
		for st := range e.StageMinutes {
			e.StageMinutes[st] = hostileSums[rng.Intn(len(hostileSums))]
		}
		if rng.Intn(25) == 0 {
			r.InjectCounts(e.End, e.Subscriber, injectedCell(rng))
			continue
		}
		r.Observe(e)
	}
	if rng.Intn(2) == 0 {
		r.Advance(r.Clock().Add(time.Duration(rng.Int63n(int64(cfg.Window)))))
	}
	return r
}

// TestSnapshotMatchesReflection is the differential property the append
// encoder is built on: over random windows, Snapshot writes byte for byte
// what the reflection encoder writes, and Restore accepts it.
func TestSnapshotMatchesReflection(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := randomWindow(seed, 40, 400)
		var got, want bytes.Buffer
		if err := r.Snapshot(&got); err != nil {
			t.Fatalf("seed %d: Snapshot: %v", seed, err)
		}
		if err := reflectSnapshot(r, &want); err != nil {
			t.Fatalf("seed %d: reference encoder: %v", seed, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d (%+v): snapshot differs from the reference: %s",
				seed, r.Config(), firstDiff(got.Bytes(), want.Bytes()))
		}
		if _, err := Restore(bytes.NewReader(got.Bytes())); err != nil {
			t.Fatalf("seed %d: Restore of own snapshot: %v", seed, err)
		}
	}
}

// TestSnapshotBucketAheadOfClock covers the one window whose ring is not a
// rotation of bucket order: Restore accepts a document dating a bucket past
// its own clock, and the re-snapshot must still list buckets ascending.
func TestSnapshotBucketAheadOfClock(t *testing.T) {
	r := New(Config{Window: time.Hour, Buckets: 4})
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		e := entry(1, 0, "Fortnite", qoe.Good)
		e.End = base.Add(time.Duration(i) * 15 * time.Minute)
		r.Observe(e)
	}
	// Re-date the bucket in the oldest slot two laps ahead: its slot stays
	// put, its number now exceeds the clock's bucket.
	sub := r.subs[entry(1, 0, "", qoe.Good).Subscriber]
	oldest := r.pos(FloorDiv(base.UnixNano(), r.wNs))
	sub.ring[oldest].idx += 8
	var got, want bytes.Buffer
	if err := r.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := reflectSnapshot(r, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot with a bucket ahead of the clock differs from the reference: %s", firstDiff(got.Bytes(), want.Bytes()))
	}
	if _, err := Restore(bytes.NewReader(got.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
}

// failOnWrite fails the test if anything reaches it.
type failOnWrite struct{ t *testing.T }

func (f failOnWrite) Write(p []byte) (int, error) {
	f.t.Errorf("%d bytes written by a snapshot that must fail whole", len(p))
	return len(p), nil
}

// TestSnapshotNonFiniteFailsWhole pins the error contract: a sum with no
// JSON form (reachable through InjectCounts, which trusts its caller) fails
// Snapshot before a byte is written.
func TestSnapshotNonFiniteFailsWhole(t *testing.T) {
	at := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	addr := netip.MustParseAddr("10.7.7.7")
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := New(Config{})
		for _, e := range mergeEntries(40, 7) {
			r.Observe(e)
		}
		cell := injectedCell(rand.New(rand.NewSource(1)))
		cell.MbpsSum = bad
		r.InjectCounts(at, addr, cell)
		if err := r.Snapshot(failOnWrite{t}); err == nil {
			t.Errorf("MbpsSum %v: Snapshot succeeded", bad)
		}
		cell.MbpsSum, cell.StageMinutes[1] = 1, bad
		one := New(Config{})
		one.InjectCounts(at, addr, cell)
		if err := one.Snapshot(failOnWrite{t}); err == nil {
			t.Errorf("StageMinutes %v: Snapshot succeeded", bad)
		}
	}
}

// TestSnapshotAllocs pins the snapshot's allocation count as independent of
// how many cells it writes: the encode buffer is recycled, the cell codec
// allocates nothing, so a 400-subscriber window costs exactly the
// allocations a 40-subscriber one does.
func TestSnapshotAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC mid-run would empty the buffer pool
	allocs := func(subs int) float64 {
		r := New(Config{Window: time.Hour, Buckets: 12})
		for b := 0; b < 12; b++ { // every subscriber warm in every bucket
			for i := 0; i < subs; i++ {
				e := entry(0, time.Duration(b)*5*time.Minute, []string{"Fortnite", "Hearthstone", ""}[i%3], qoe.Level(i%qoe.NumLevels))
				e.Subscriber = netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
				r.Observe(e)
			}
		}
		snap := func() {
			if err := r.Snapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		snap() // warm the pooled buffer to this window's size
		return testing.AllocsPerRun(20, snap)
	}
	small, large := allocs(40), allocs(400)
	if small != large {
		t.Fatalf("Snapshot allocates %.0f times for 40 subscribers and %.0f for 400: the count grows with the cells", small, large)
	}
	if small > 8 {
		t.Fatalf("Snapshot allocates %.0f times per call, want a handful", small)
	}
}

// FuzzRestoreReencode is the loader property for the window checkpoint:
// whatever document Restore accepts must snapshot again to bytes that equal
// the reflection reference and that Restore accepts again. The input is the
// document without its integrity footer (the harness appends a valid one —
// the footer's own rejection of torn files is TestCheckpointTornRejectionSweep's
// subject, and a fuzzer cannot guess a CRC); the seeds are real snapshots of
// small windows (a few KB, so the mutator's minimizer stays quick), whole,
// cut short, and with single bits flipped.
func FuzzRestoreReencode(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		var buf bytes.Buffer
		if err := randomWindow(seed, 3, 16).Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		doc, err := persist.SplitFooter(buf.Bytes())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 24; i++ {
			f.Add(doc[:rng.Intn(len(doc))])
			flipped := bytes.Clone(doc)
			flipped[rng.Intn(len(doc))] ^= 1 << rng.Intn(8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		r, err := Restore(bytes.NewReader(persist.AppendFooter(bytes.Clone(doc))))
		if err != nil {
			t.Skip()
		}
		var got, want bytes.Buffer
		if err := r.Snapshot(&got); err != nil {
			t.Fatalf("Snapshot of a restored window: %v", err)
		}
		if err := reflectSnapshot(r, &want); err != nil {
			t.Fatalf("reference encoder: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("re-snapshot differs from the reference: %s", firstDiff(got.Bytes(), want.Bytes()))
		}
		if _, err := Restore(bytes.NewReader(got.Bytes())); err != nil {
			t.Fatalf("Restore rejects the re-snapshot of a window it restored: %v", err)
		}
	})
}

// TestCellCodecMatchesReflection holds Counts.AppendJSON itself — the one
// cell codec the checkpoint, the partitions and the pending tail share — to
// encoding/json at every depth those documents use, over the cells a window
// document cannot carry past Restore: the zero cell, cells without
// sketches, recycled (empty, non-nil) maps and sketches.
func TestCellCodecMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	recycled := injectedCell(rng)
	recycled.reset()
	bare := injectedCell(rng)
	bare.Throughput, bare.QoEProxy = nil, nil
	observed := Counts{}
	for i, e := range mergeEntries(30, 1) {
		e.Title, e.Pattern = hostileNames[i%len(hostileNames)], ""
		e.MeanDownMbps = hostileSums[i%16]
		observed.Add(e)
	}
	for name, c := range map[string]*Counts{"zero": {}, "recycled": recycled, "bare": bare, "injected": injectedCell(rng), "observed": &observed} {
		compact, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		for depth := 0; depth < 8; depth++ {
			var want bytes.Buffer
			if err := json.Indent(&want, compact, strings.Repeat(" ", depth), " "); err != nil {
				t.Fatal(err)
			}
			got, err := c.AppendJSON(nil, depth)
			if err != nil {
				t.Fatalf("%s: AppendJSON: %v", name, err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s cell at depth %d differs from the reference: %s", name, depth, firstDiff(got, want.Bytes()))
			}
		}
	}
}

// TestSnapshotUnboundedGeometry pins both halves of the bucket-count story.
// Snapshot sizes nothing from it: a subscriber-less window of a trillion
// buckets, built with New, checkpoints as cheaply as any other. Restore sizes
// a ring per subscriber from it, so it refuses that document — and the
// smallest count past its bound — before building anything.
func TestSnapshotUnboundedGeometry(t *testing.T) {
	r := New(Config{Window: 1000 * time.Hour, Buckets: 1 << 40})
	r.Advance(time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC))
	var got, want bytes.Buffer
	if err := r.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := reflectSnapshot(r, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot differs from the reference: %s", firstDiff(got.Bytes(), want.Bytes()))
	}
	if _, err := Restore(bytes.NewReader(got.Bytes())); err == nil {
		t.Error("Restore accepted a trillion-bucket checkpoint")
	}
	for buckets, ok := range map[int]bool{maxRestoreBuckets: true, maxRestoreBuckets + 1: false} {
		got.Reset()
		if err := New(Config{Window: time.Hour, Buckets: buckets}).Snapshot(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(bytes.NewReader(got.Bytes())); (err == nil) != ok {
			t.Errorf("Restore of a %d-bucket checkpoint: err = %v, want accepted = %v", buckets, err, ok)
		}
	}
}

// TestParentCheckpointFixture loads a checkpoint written by the commit before
// persist took over the read side (testdata/parent-pr14.ckpt: 5 subscribers,
// v4, v6 and zoned, late entries) and requires the re-snapshot to be the same
// bytes: the format did not move.
func TestParentCheckpointFixture(t *testing.T) {
	const path = "testdata/parent-pr14.ckpt"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := LoadFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Subscribers != 5 || st.Ingested != 11 || st.Late != 3 {
		t.Fatalf("fixture restored as %+v", st)
	}
	var got bytes.Buffer
	if err := r.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-snapshot of the parent's checkpoint differs: %s", firstDiff(got.Bytes(), want))
	}
}
