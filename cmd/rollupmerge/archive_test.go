package main

// Archive-input coverage: partition files sealed by a real store fold into
// a fleet checkpoint (alone and mixed with tap checkpoints), and query mode
// answers range/percentile/top-K questions over the archive directory with
// deterministic output.

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gamelens"
)

// archBase is hour-span aligned for the miniature tier spans below.
var archBase = time.Date(2026, 7, 10, 8, 0, 0, 0, time.UTC)

// miniArchive opens a store with miniature tier spans (1m hours, 4m days,
// 12m weeks) that keeps every partition, in a fresh directory.
func miniArchive(t *testing.T) (arch *gamelens.ArchiveStore, dir string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "archive")
	arch, err := gamelens.OpenArchive(gamelens.ArchiveConfig{
		Dir:        dir,
		Spans:      [3]time.Duration{time.Minute, 4 * time.Minute, 12 * time.Minute},
		Linger:     30 * time.Second,
		Retain:     [3]time.Duration{-1, -1, -1},
		FlushEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arch, dir
}

// sealedArchive drives a miniArchive over 10 minutes of entries and returns
// its directory: several sealed hour partitions, at least one compacted day,
// and a pending tail.
func sealedArchive(t *testing.T) string {
	t.Helper()
	arch, dir := miniArchive(t)
	for i := 0; i < 120; i++ {
		e := gamelens.RollupEntry{
			Subscriber:   netip.AddrFrom4([4]byte{10, 2, 0, byte(1 + i%5)}),
			End:          archBase.Add(time.Duration(i) * 5 * time.Second),
			MeanDownMbps: 4 + float64(i%8),
			QoEProxy:     0.25 * float64(1+i%3),
		}
		if i%2 == 0 {
			e.Title = "Fortnite"
		} else {
			e.Pattern = "continuous"
		}
		arch.Observe(e)
		if i%10 == 9 {
			if err := arch.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := arch.Final(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// hourParts globs the archive's sealed hour partitions in name order.
func hourParts(t *testing.T, dir string) []string {
	t.Helper()
	parts, err := filepath.Glob(filepath.Join(dir, "hour-*.part"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(parts)
	if len(parts) < 2 {
		t.Fatalf("only %d sealed hour partitions, want several", len(parts))
	}
	return parts
}

func TestRollupMergePartitionInputs(t *testing.T) {
	dir := sealedArchive(t)
	parts := hourParts(t, dir)

	// The sessions the fold should account for: everything the sealed hour
	// partitions carry.
	var wantSessions int64
	for _, path := range parts {
		p, err := gamelens.ReadArchivePartition(path)
		if err != nil {
			t.Fatalf("reading %s back: %v", path, err)
		}
		for i := range p.Subs {
			wantSessions += p.Subs[i].Window.Sessions
		}
	}

	out := filepath.Join(t.TempDir(), "fleet.ckpt")
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-o", out}, parts...), &stdout, &stderr); err != nil {
		t.Fatalf("folding partitions failed: %v\nstderr: %s", err, stderr.String())
	}
	fleet, err := gamelens.LoadRollup(out)
	if err != nil {
		t.Fatalf("fleet checkpoint does not restore: %v", err)
	}
	st := fleet.Stats()
	if st.Ingested != wantSessions || st.Late != 0 {
		t.Errorf("fold ingested %d sessions (%d late), want all %d sealed sessions, none late",
			st.Ingested, st.Late, wantSessions)
	}
	if st.Subscribers != 5 {
		t.Errorf("fold has %d subscribers, want 5", st.Subscribers)
	}
	// The synthesized window covers every partition: the fleet total must
	// carry every sealed session's throughput sample.
	if got := fleet.Total(); got.Sessions != wantSessions {
		t.Errorf("fleet total %d sessions, want %d", got.Sessions, wantSessions)
	}
}

func TestRollupMergeMixedInputs(t *testing.T) {
	dir := sealedArchive(t)
	parts := hourParts(t, dir)

	// A tap checkpoint whose 4h window spans the partitions' time range:
	// its geometry wins, and the partitions fold into it without aging out.
	tap := gamelens.NewRollup(gamelens.RollupConfig{Window: 4 * time.Hour, Buckets: 8})
	for i := 0; i < 10; i++ {
		tap.Observe(tapEntry(i%3, i))
	}
	tapPath := filepath.Join(t.TempDir(), "tap.ckpt")
	if err := tap.SaveFile(tapPath); err != nil {
		t.Fatal(err)
	}

	var partSessions int64
	p0, err := gamelens.ReadArchivePartition(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range p0.Subs {
		partSessions += p0.Subs[i].Window.Sessions
	}

	out := filepath.Join(t.TempDir(), "fleet.ckpt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-o", out, tapPath, parts[0]}, &stdout, &stderr); err != nil {
		t.Fatalf("mixed merge failed: %v\nstderr: %s", err, stderr.String())
	}
	fleet, err := gamelens.LoadRollup(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fleet.Config().Window, 4*time.Hour; got != want {
		t.Errorf("fleet window %v, want the checkpoint's %v", got, want)
	}
	if got, want := fleet.Stats().Ingested, int64(10)+partSessions; got != want {
		t.Errorf("mixed merge ingested %d sessions, want %d", got, want)
	}

	// A corrupt partition input refuses, and nothing is written.
	bad := filepath.Join(t.TempDir(), "hour-0.part")
	if err := os.WriteFile(bad, []byte("not a partition"), 0o644); err != nil {
		t.Fatal(err)
	}
	badOut := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := run([]string{"-o", badOut, bad}, &stdout, &stderr); err == nil {
		t.Error("corrupt partition input merged without error")
	}
	if _, err := os.Stat(badOut); !os.IsNotExist(err) {
		t.Error("a failed merge wrote the output checkpoint")
	}
}

func TestRollupMergeArchiveQuery(t *testing.T) {
	dir := sealedArchive(t)

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-archive", dir, "-top", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("archive query failed: %v\nstderr: %s", err, stderr.String())
	}
	report := stdout.String()
	for _, want := range []string{
		"per-subscriber aggregates over […, …): 5 subscribers",
		"fleet total: 120 sessions",
		"top 2 impaired:",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("query report missing %q:\n%s", want, report)
		}
	}

	// The same query twice prints byte-identically (the canonical-output
	// contract), and a bounded range drops what lies outside it.
	var again bytes.Buffer
	if err := run([]string{"-archive", dir, "-top", "2"}, &again, &stderr); err != nil {
		t.Fatal(err)
	}
	if report != again.String() {
		t.Error("identical queries printed differently")
	}
	var bounded bytes.Buffer
	err := run([]string{"-archive", dir,
		"-from", archBase.Format(time.RFC3339),
		"-to", archBase.Add(2 * time.Minute).Format(time.RFC3339)}, &bounded, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bounded.String(), "fleet total: 24 sessions") {
		t.Errorf("bounded query did not cut to the first two hours (24 sessions):\n%s", bounded.String())
	}

	// Flag combinations that cannot mean anything refuse.
	for name, args := range map[string][]string{
		"query with -o":          {"-archive", dir, "-o", filepath.Join(t.TempDir(), "x.ckpt")},
		"query with inputs":      {"-archive", dir, "tap.ckpt"},
		"range without -archive": {"-from", "2026-07-10T08:00:00Z", "-o", "x.ckpt", "tap.ckpt"},
		"top without -archive":   {"-top", "3", "-o", "x.ckpt", "tap.ckpt"},
		"bad -from":              {"-archive", dir, "-from", "yesterday"},
	} {
		var sink bytes.Buffer
		if err := run(args, &sink, &sink); err == nil {
			t.Errorf("%s: run succeeded, want error", name)
		}
	}
}

// TestRollupMergePartitionSpanBound pins both sides of the synthesized
// window's bound: two hour partitions 4096 widths apart end to end fold into
// a checkpoint that loads, and one width further the fold is refused before
// anything is written — it used to save a 4097-bucket document that no
// Restore (the next rollupmerge over it included) accepts.
func TestRollupMergePartitionSpanBound(t *testing.T) {
	// farApart seals two one-minute "hour" partitions whose starts are gap
	// apart (a third entry pushes the clock on so the second one seals).
	farApart := func(gap time.Duration) []string {
		arch, dir := miniArchive(t)
		for _, at := range []time.Duration{0, gap, gap + 3*time.Minute} {
			arch.Observe(gamelens.RollupEntry{
				Subscriber: netip.AddrFrom4([4]byte{10, 2, 0, 1}), End: archBase.Add(at), Title: "Fortnite", MeanDownMbps: 9,
			})
			if err := arch.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if err := arch.Final(); err != nil {
			t.Fatal(err)
		}
		parts := hourParts(t, dir)
		if len(parts) != 2 {
			t.Fatalf("%d sealed hour partitions, want the two %v apart: %v", len(parts), gap, parts)
		}
		return parts
	}

	out := filepath.Join(t.TempDir(), "fleet.ckpt")
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-o", out}, farApart(4095*time.Minute)...), &stdout, &stderr); err != nil {
		t.Fatalf("fold over exactly %d buckets refused: %v", maxFleetBuckets, err)
	}
	fleet, err := gamelens.LoadRollup(out)
	if err != nil {
		t.Fatalf("fleet checkpoint at the bound does not restore: %v", err)
	}
	if cfg, st := fleet.Config(), fleet.Stats(); cfg.Buckets != maxFleetBuckets || st.Ingested != 2 || st.Late != 0 {
		t.Errorf("fold at the bound: %d buckets, %+v; want %d buckets holding both sessions", cfg.Buckets, st, maxFleetBuckets)
	}
	if err := run([]string{"-o", filepath.Join(t.TempDir(), "next.ckpt"), out}, &stdout, &stderr); err != nil {
		t.Errorf("rollupmerge cannot read its own fleet checkpoint: %v", err)
	}

	over := filepath.Join(t.TempDir(), "over.ckpt")
	err = run(append([]string{"-o", over}, farApart(4096*time.Minute)...), &stdout, &stderr)
	if err == nil {
		t.Fatal("fold over 4097 buckets succeeded")
	}
	for _, want := range []string{"4097", "4096", "1m0s"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal does not name %s: %v", want, err)
		}
	}
	if _, statErr := os.Stat(over); !os.IsNotExist(statErr) {
		t.Errorf("refused fold left an output behind: %v", statErr)
	}
}
