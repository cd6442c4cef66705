package store

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gamelens/internal/qoe"
	"gamelens/internal/rollup"
	"gamelens/internal/trace"
)

// base aligns to every test-geometry tier boundary (06:00 UTC is a whole
// multiple of the 12-minute test week).
var base = time.Date(2026, 7, 1, 6, 0, 0, 0, time.UTC)

// testCfg is the shrunk tier geometry every store test runs on: 1-minute
// hours, 4-minute days, 12-minute weeks, 30s linger, retention off (GC
// tests opt in explicitly), pending flush every entry.
func testCfg(dir string) Config {
	return Config{
		Dir:        dir,
		Spans:      [numTiers]time.Duration{time.Minute, 4 * time.Minute, 12 * time.Minute},
		Linger:     30 * time.Second,
		Retain:     [numTiers]time.Duration{-1, -1, -1},
		FlushEvery: 1,
	}
}

// fixture synthesizes total deterministic entries: five subscribers, one
// session every 10 seconds, dyadic-exact measurements (integral Mbps,
// quarter QoE proxies, 5/1.5 stage minutes) so every float sum is exact
// and aggregate equality is independent of addition grouping.
func fixture(total int) []rollup.Entry {
	titles := []string{"Fortnite", "", "Hearthstone"}
	effs := []qoe.Level{qoe.Good, qoe.Bad, qoe.Medium}
	out := make([]rollup.Entry, 0, total)
	for i := 0; i < total; i++ {
		sub := 1 + i%5
		e := rollup.Entry{
			Subscriber:   netip.AddrFrom4([4]byte{10, 0, 0, byte(sub)}),
			End:          base.Add(time.Duration(i) * 10 * time.Second),
			Title:        titles[i%3],
			MeanDownMbps: float64(8 + sub),
			Objective:    qoe.Medium,
			Effective:    effs[i%3],
			QoEProxy:     0.25 * float64(1+i%3),
		}
		if e.Title == "" {
			e.Pattern = "continuous"
		}
		e.StageMinutes[trace.StageActive] = 5
		e.StageMinutes[trace.StageIdle] = 1.5
		out = append(out, e)
	}
	return out
}

// drive feeds entries in batches of batch, Ticking after each, then
// Final — the emitter-hook cadence in miniature.
func drive(t *testing.T, s *Store, entries []rollup.Entry, batch int) {
	t.Helper()
	for i := 0; i < len(entries); i += batch {
		end := i + batch
		if end > len(entries) {
			end = len(entries)
		}
		s.ObserveBatch(entries[i:end])
		if err := s.Tick(); err != nil {
			t.Fatalf("tick at entry %d: %v", end, err)
		}
	}
	if err := s.Final(); err != nil {
		t.Fatalf("final: %v", err)
	}
}

// unboundedReference is the ground truth: one live rollup whose window
// never slides anything out over the fixture's span.
func unboundedReference(entries []rollup.Entry) *rollup.Rollup {
	r := rollup.New(rollup.Config{Window: 2 * time.Hour, Buckets: 120})
	r.ObserveBatch(entries)
	return r
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// partFiles lists the dir's partition files, sorted.
func partFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".part") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// TestStoreGateSealCompactQuery is the core round trip: entries flow in,
// hour partitions seal, days and weeks compact, and the cross-tier query
// over archive + unsealed tail equals the same query over an
// uninterrupted unbounded rollup of the full span.
func TestStoreGateSealCompactQuery(t *testing.T) {
	entries := fixture(200) // ~33 minutes: two full test-weeks plus a tail
	dir := t.TempDir()
	s, err := Open(testCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, entries, 7)

	st := s.Stats()
	if st.Ingested != 200 || st.Late != 0 {
		t.Fatalf("ingested %d late %d, want 200/0", st.Ingested, st.Late)
	}
	if st.Sealed == 0 || st.Partitions[TierHour] == 0 {
		t.Fatalf("no hour partitions sealed: %+v", st)
	}
	if st.Partitions[TierDay] == 0 || st.Partitions[TierWeek] == 0 {
		t.Fatalf("no coarse compaction happened: %+v", st)
	}

	ref := unboundedReference(entries)
	from, to := base.Add(-time.Minute), base.Add(time.Hour)
	if got, want := mustJSON(t, s.Range(from, to)), mustJSON(t, ref.Subscribers()); !bytes.Equal(got, want) {
		t.Errorf("Range != unbounded rollup:\n got %s\nwant %s", got, want)
	}
	if got, want := mustJSON(t, s.Total(from, to)), mustJSON(t, ref.Total()); !bytes.Equal(got, want) {
		t.Errorf("Total != unbounded rollup total:\n got %s\nwant %s", got, want)
	}

	// Fleet percentiles ride the merged sketches.
	total := s.Total(from, to)
	if total.Sessions != 200 || total.Throughput.Count() != 200 {
		t.Errorf("fleet total sessions %d, sketch %d, want 200", total.Sessions, total.Throughput.Count())
	}

	// Top-K impaired: a deterministic total order, cut at k.
	top := s.TopImpaired(from, to, 2)
	if len(top) != 2 {
		t.Fatalf("top-2 returned %d", len(top))
	}
	if top[0].Window.GoodShare(true) > top[1].Window.GoodShare(true) {
		t.Errorf("top-2 not ranked by impairment: %v then %v",
			top[0].Window.GoodShare(true), top[1].Window.GoodShare(true))
	}
}

// TestStoreGateLosslessCompaction pins the byte-level property: every
// day partition equals — byte for byte — Counts.Merge over its
// constituent hour partitions re-read from disk, and every week equals
// the merge of its days.
func TestStoreGateLosslessCompaction(t *testing.T) {
	entries := fixture(200)
	dir := t.TempDir()
	s, err := Open(testCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, entries, 7)

	checkTier := func(coarse Tier) {
		fine := coarse - 1
		spanNs := s.spansNs[coarse]
		for period := range s.parts[coarse] {
			// Independent merge: load the fine partitions from disk, fold
			// cell-wise in start order with the exported Counts.Merge.
			var sources []int64
			for start := range s.parts[fine] {
				if start >= period && start < period+spanNs {
					sources = append(sources, start)
				}
			}
			sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
			merged := map[netip.Addr]*rollup.Counts{}
			for _, start := range sources {
				p, err := s.loadPartition(s.partPath(fine, start))
				if err != nil {
					t.Fatalf("reloading %s source: %v", coarse, err)
				}
				for i := range p.Subs {
					acc := merged[p.Subs[i].Subscriber]
					if acc == nil {
						acc = &rollup.Counts{}
						merged[p.Subs[i].Subscriber] = acc
					}
					acc.Merge(&p.Subs[i].Window)
				}
			}
			var want bytes.Buffer
			ind := &Partition{Tier: coarse, Start: time.Unix(0, period), Span: time.Duration(spanNs), Subs: sortedCells(merged)}
			if err := encodePartition(&want, ind); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(s.partPath(coarse, period))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s-%d not byte-identical to merged sources", coarse, period)
			}
		}
	}
	checkTier(TierDay)
	checkTier(TierWeek)
}

// TestStoreGateShardGroupings pins shard-count invariance: the fixture
// partitioned by subscriber into k groups (k = 1..8, the engine's
// subscriber-sticky sharding) and re-interleaved group-by-group within
// bounded emission blocks — the shape of k shards draining per emission
// interval — produces byte-identical partition files and query output at
// every k. Per-subscriber order is preserved (a subscriber is sticky to
// one shard); everything else about arrival order changes with k.
func TestStoreGateShardGroupings(t *testing.T) {
	entries := fixture(200)
	// Block skew bound: a block spans 110s of trace time, under the 2m
	// linger, so no reordered entry ever lands behind a sealed hour.
	const block = 12
	var refFiles map[string][]byte
	var refRange []byte
	for k := 1; k <= 8; k++ {
		var interleaved []rollup.Entry
		for b0 := 0; b0 < len(entries); b0 += block {
			end := b0 + block
			if end > len(entries) {
				end = len(entries)
			}
			groups := make([][]rollup.Entry, k)
			for _, e := range entries[b0:end] {
				g := int(e.Subscriber.As4()[3]) % k
				groups[g] = append(groups[g], e)
			}
			for off := 0; off < k; off++ {
				interleaved = append(interleaved, groups[(b0/block+off)%k]...)
			}
		}
		if len(interleaved) != len(entries) {
			t.Fatalf("k=%d: interleave dropped entries", k)
		}
		dir := t.TempDir()
		cfg := testCfg(dir)
		cfg.Linger = 2 * time.Minute
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, s, interleaved, 16)
		if st := s.Stats(); st.Late != 0 {
			t.Fatalf("k=%d: %d entries dropped late", k, st.Late)
		}
		files := map[string][]byte{}
		for _, name := range partFiles(t, dir) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = data
		}
		rng := mustJSON(t, s.Range(base.Add(-time.Minute), base.Add(time.Hour)))
		if k == 1 {
			refFiles, refRange = files, rng
			continue
		}
		if len(files) != len(refFiles) {
			t.Fatalf("k=%d: %d partition files, want %d", k, len(files), len(refFiles))
		}
		for name, data := range files {
			if !bytes.Equal(data, refFiles[name]) {
				t.Errorf("k=%d: %s differs from k=1", k, name)
			}
		}
		if !bytes.Equal(rng, refRange) {
			t.Errorf("k=%d: Range output differs from k=1", k)
		}
	}
}

// TestStoreGateResumeRoundTrip pins the restart contract: a run cut at an
// arbitrary point and resumed from disk (partitions + pending tail)
// produces the same partition bytes and query output as the
// uninterrupted run — through two full close/reopen cycles.
func TestStoreGateResumeRoundTrip(t *testing.T) {
	entries := fixture(200)

	unDir := t.TempDir()
	un, err := Open(testCfg(unDir))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, un, entries, 7)

	cutDir := t.TempDir()
	cuts := []int{0, 63, 140, 200}
	var s *Store
	for c := 1; c < len(cuts); c++ {
		if s, err = Open(testCfg(cutDir)); err != nil {
			t.Fatalf("reopen %d: %v", c, err)
		}
		drive(t, s, entries[cuts[c-1]:cuts[c]], 7)
	}

	if st := s.Stats(); st.Ingested != 200 || len(st.Quarantined) != 0 {
		t.Fatalf("resumed stats: %+v", st)
	}
	unFiles, cutFiles := partFiles(t, unDir), partFiles(t, cutDir)
	if strings.Join(unFiles, ",") != strings.Join(cutFiles, ",") {
		t.Fatalf("partition sets differ:\nuninterrupted %v\nresumed %v", unFiles, cutFiles)
	}
	for _, name := range unFiles {
		a, err := os.ReadFile(filepath.Join(unDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(cutDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between uninterrupted and resumed runs", name)
		}
	}
	from, to := base.Add(-time.Minute), base.Add(time.Hour)
	if got, want := mustJSON(t, s.Range(from, to)), mustJSON(t, un.Range(from, to)); !bytes.Equal(got, want) {
		t.Errorf("resumed Range differs from uninterrupted")
	}
}

// TestStoreGateGCWatermark pins retention: hour partitions past retention
// are deleted only after their day successor is durable, the watermark
// lands on a day boundary, coverage hands over without gaps or double
// counts, and the watermark survives reopen.
func TestStoreGateGCWatermark(t *testing.T) {
	entries := fixture(200)
	dir := t.TempDir()
	cfg := testCfg(dir)
	cfg.Retain = [numTiers]time.Duration{4 * time.Minute, 12 * time.Minute, 24 * time.Minute}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, entries, 7)

	st := s.Stats()
	if st.Removed == 0 {
		t.Fatalf("GC removed nothing: %+v", st)
	}
	if s.gc[TierHour] == watermarkUnset {
		t.Fatal("hour watermark never advanced")
	}
	dayNs := s.spansNs[TierDay]
	if s.gc[TierHour]%dayNs != 0 {
		t.Errorf("hour watermark %d not day-aligned", s.gc[TierHour])
	}
	for start := range s.parts[TierHour] {
		if start < s.gc[TierHour] {
			t.Errorf("hour partition %d survives below watermark %d", start, s.gc[TierHour])
		}
	}
	for _, name := range partFiles(t, dir) {
		tier, start, ok := parsePartName(name)
		if ok && tier == TierHour && start < s.gc[TierHour] {
			t.Errorf("file %s survives below watermark", name)
		}
	}

	// Coverage equality across the GC boundary: the full-span query still
	// matches the unbounded rollup (day cells replaced the GC'd hours).
	ref := unboundedReference(entries)
	from, to := base.Add(-time.Minute), base.Add(time.Hour)
	if got, want := mustJSON(t, s.Range(from, to)), mustJSON(t, ref.Subscribers()); !bytes.Equal(got, want) {
		t.Errorf("post-GC Range != unbounded rollup")
	}

	// The watermark is durable: reopen and re-query.
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.gc != s.gc {
		t.Errorf("reopened watermarks %v, want %v", s2.gc, s.gc)
	}
	if got, want := mustJSON(t, s2.Range(from, to)), mustJSON(t, ref.Subscribers()); !bytes.Equal(got, want) {
		t.Errorf("reopened post-GC Range != unbounded rollup")
	}
}
