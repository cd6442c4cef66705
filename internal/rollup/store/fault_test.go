// Fault-injection coverage for the archive's crash-safety contracts:
// torn compaction writes, corrupt partitions discovered at Open, and a
// disk that fills up mid-run. Plans are counter-driven (internal/
// faultinject), so every failure path replays deterministically.

package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gamelens/internal/faultinject"
	"gamelens/internal/persist"
	"gamelens/internal/rollup"
)

// driveFaulty is drive for runs where Tick/Final errors are the point:
// it feeds on, collects every error, and never stops ingesting — the
// emitter keeps draining whatever the archive disk does.
func driveFaulty(t *testing.T, s *Store, entries []rollup.Entry, batch int) []error {
	t.Helper()
	var errs []error
	for i := 0; i < len(entries); i += batch {
		end := i + batch
		if end > len(entries) {
			end = len(entries)
		}
		s.ObserveBatch(entries[i:end])
		if err := s.Tick(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.Final(); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// readParts snapshots every partition file's bytes.
func readParts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range partFiles(t, dir) {
		data, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// TestStoreGateTornCompactionMidRun pins the mid-run half of the
// compaction contract: a torn write during the first day compaction
// leaves no day file (the persist protocol never renames a bad temp into
// place), keeps every hour source, costs exactly one error gated to one
// retry interval, and the re-run converges to the byte-identical archive
// a fault-free run produces.
func TestStoreGateTornCompactionMidRun(t *testing.T) {
	entries := fixture(200)

	refDir := t.TempDir()
	ref, err := Open(testCfg(refDir))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, ref, entries, 5)

	dir := t.TempDir()
	cfg := testCfg(dir)
	cfg.FS = faultinject.New(nil, faultinject.Rule{
		Op: faultinject.OpWrite, Substr: "day-", Nth: 1, TornAt: 64,
	})
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := driveFaulty(t, s, entries, 5)

	if len(errs) != 1 {
		t.Fatalf("want exactly one surfaced error (one retry interval), got %d: %v", len(errs), errs)
	}
	if !errors.Is(errs[0], faultinject.ErrInjected) {
		t.Fatalf("error did not carry the injected fault: %v", errs[0])
	}
	st := s.Stats()
	if st.CompactFailures != 1 {
		t.Errorf("CompactFailures = %d, want 1", st.CompactFailures)
	}
	if len(st.Quarantined) != 0 {
		t.Errorf("mid-run torn write must not quarantine anything (never renamed into place): %v", st.Quarantined)
	}
	if st.Ingested != 200 || st.Late != 0 {
		t.Errorf("ingest disturbed by compaction fault: %+v", st)
	}

	got, want := readParts(t, dir), readParts(t, refDir)
	if len(got) != len(want) {
		t.Fatalf("fault run has %d partition files, fault-free run %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s differs from fault-free run after recovery", name)
		}
	}
}

// TestStoreGateTornCompactionRestart pins the restart half: a day
// partition torn on disk (crash after rename, bytes lost) is quarantined
// aside at the next Open, its hour sources are still present — they are
// never deleted until the successor is durable AND past retention — and
// the next Tick recompacts a byte-identical replacement.
func TestStoreGateTornCompactionRestart(t *testing.T) {
	entries := fixture(200)
	dir := t.TempDir()
	s, err := Open(testCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, entries, 5)

	dayStart := base.UnixNano() // base is day-aligned in the test geometry
	dayPath := s.partPath(TierDay, dayStart)
	orig, err := os.ReadFile(dayPath)
	if err != nil {
		t.Fatalf("first day partition missing: %v", err)
	}
	hourFiles := 0
	for _, name := range partFiles(t, dir) {
		if tier, start, ok := parsePartName(name); ok && tier == TierHour &&
			start >= dayStart && start < dayStart+s.spansNs[TierDay] {
			hourFiles++
		}
	}
	if hourFiles == 0 {
		t.Fatal("no hour sources on disk for the first day — nothing to recompact from")
	}
	if err := os.WriteFile(dayPath, orig[:len(orig)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(testCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if len(st.Quarantined) != 1 || st.Quarantined[0] != dayPath+".corrupt-0" {
		t.Fatalf("quarantine = %v, want [%s.corrupt-0]", st.Quarantined, dayPath)
	}
	if _, err := os.Stat(dayPath + ".corrupt-0"); err != nil {
		t.Fatalf("quarantined file not on disk: %v", err)
	}
	if err := s2.Tick(); err != nil {
		t.Fatalf("recompaction tick: %v", err)
	}
	redone, err := os.ReadFile(dayPath)
	if err != nil {
		t.Fatalf("day partition not recompacted: %v", err)
	}
	if !bytes.Equal(redone, orig) {
		t.Error("recompacted day partition is not byte-identical to the original")
	}
}

// TestStoreGateENOSPCSealOnce pins the transient full-disk contract: one
// failed seal costs exactly one surfaced error and at most one partition
// interval of durability latency — ingest is undisturbed, the partition
// stays pending, the next interval's retry seals it, and no data is lost.
func TestStoreGateENOSPCSealOnce(t *testing.T) {
	entries := fixture(200)

	refDir := t.TempDir()
	ref, err := Open(testCfg(refDir))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, ref, entries, 5)

	dir := t.TempDir()
	cfg := testCfg(dir)
	cfg.FS = faultinject.New(nil, faultinject.Rule{
		Op: faultinject.OpCreate, Substr: "hour-", Nth: 1, Err: faultinject.ErrNoSpace,
	})
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := driveFaulty(t, s, entries, 5)

	if len(errs) != 1 || !errors.Is(errs[0], faultinject.ErrNoSpace) {
		t.Fatalf("want exactly one ENOSPC error, got %v", errs)
	}
	st := s.Stats()
	if st.SealFailures != 1 || st.PendingDropped != 0 || st.Late != 0 || st.Ingested != 200 {
		t.Errorf("stats after transient ENOSPC: %+v", st)
	}
	got, want := readParts(t, dir), readParts(t, refDir)
	if len(got) != len(want) {
		t.Fatalf("fault run has %d partition files, fault-free run %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s differs from fault-free run after ENOSPC recovery", name)
		}
	}
}

// TestStoreGateENOSPCPersistent pins the persistent full-disk contract: a
// disk that never accepts a seal costs one error per partition interval
// (not one per drain), never stalls or blocks ingest, and pins at most
// MaxPending partitions of memory, evicting the oldest whole with a
// counter.
func TestStoreGateENOSPCPersistent(t *testing.T) {
	entries := fixture(200) // ~33 hour intervals in the test geometry
	dir := t.TempDir()
	cfg := testCfg(dir)
	cfg.MaxPending = 3
	cfg.FS = faultinject.New(nil, faultinject.Rule{
		Op: faultinject.OpCreate, Substr: "hour-", Nth: 1, Count: -1, Err: faultinject.ErrNoSpace,
	})
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := driveFaulty(t, s, entries, 1) // one Tick per entry: 200 drains

	st := s.Stats()
	if st.Sealed != 0 || st.Partitions[TierHour] != 0 {
		t.Fatalf("nothing can seal on a full disk: %+v", st)
	}
	if st.Ingested+st.Late != 200 {
		t.Errorf("ingest stalled: ingested %d + late %d != 200", st.Ingested, st.Late)
	}
	if st.Pending > 3 {
		t.Errorf("pending %d exceeds MaxPending 3", st.Pending)
	}
	if st.PendingDropped == 0 {
		t.Error("MaxPending never evicted despite a disk that never seals")
	}
	if int64(len(errs)) != st.SealFailures {
		t.Errorf("%d surfaced errors, %d seal failures — gate and counter disagree", len(errs), st.SealFailures)
	}
	// 200 drains over ~33 intervals: the once-per-interval gate caps
	// surfaced errors near the interval count, far under the drain count.
	if len(errs) < 5 || len(errs) > 40 {
		t.Errorf("%d surfaced errors for ~33 intervals over 200 drains — retry gating broken", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, faultinject.ErrNoSpace) {
			t.Errorf("unexpected error class: %v", err)
		}
	}
}

// TestStoreGatePendingRejectedWhole pins loadPending's all-or-nothing
// contract: a PENDING.json whose footer verifies but whose content is
// invalid at any point — format, clock, fence, an address, a cell, the cell
// order — is quarantined and leaves the reopened store exactly as cold as a
// missing tail would: no clock, no counters, no fence, nothing pending.
func TestStoreGatePendingRejectedWhole(t *testing.T) {
	seed := t.TempDir()
	s, err := Open(testCfg(seed))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, fixture(20), 7) // two sealed hours (so the tail carries a fence) and two pending ones
	if st := s.Stats(); st.Sealed == 0 || st.Pending == 0 || st.Ingested != 20 {
		t.Fatalf("seed archive: %+v", st)
	}
	files := readParts(t, seed)
	for _, name := range []string{manifestName, pendingName} {
		if files[name], err = os.ReadFile(filepath.Join(seed, name)); err != nil {
			t.Fatal(err)
		}
	}
	valid, err := persist.SplitFooter(files[pendingName])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, old, new string }{
		{"format", pendingFormat, "gamelens-pending-v0"},
		{"clock", `"clock": "2026`, `"clock": "about 2026`},
		{"fence", `"sealed_below": "2026`, `"sealed_below": "circa 2026`},
		{"address", `"addr": "10.0.0.3"`, `"addr": "10.0.0.three"`},
		{"cell", `"sessions": 1,`, `"sessions": 2,`}, // the sketches still hold one sample
		{"cell order", `"addr": "10.0.0.2"`, `"addr": "10.0.0.1"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := bytes.Replace(valid, []byte(tc.old), []byte(tc.new), 1)
			if bytes.Equal(doc, valid) {
				t.Fatalf("the tail does not contain %q; the case corrupts nothing", tc.old)
			}
			dir := t.TempDir()
			files[pendingName] = persist.AppendFooter(doc)
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s, err := Open(testCfg(dir))
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if !s.Clock().IsZero() || st.Ingested != 0 || st.Late != 0 || st.Pending != 0 || s.hasSealedBelow {
				t.Errorf("store not cold after a rejected tail: clock %v, fence %v, %+v", s.Clock(), s.hasSealedBelow, st)
			}
			want := filepath.Join(dir, pendingName) + ".corrupt-0"
			if len(st.Quarantined) != 1 || st.Quarantined[0] != want {
				t.Errorf("quarantined %v, want [%s]", st.Quarantined, want)
			}
			if got, err := os.ReadFile(want); err != nil || !bytes.Equal(got, files[pendingName]) {
				t.Errorf("quarantined tail not preserved byte for byte (%v)", err)
			}
		})
	}
}

// TestStoreGateParentArchiveFixture opens an archive written by the commit
// before the store's read side moved into persist (testdata/parent-archive:
// six hours, two days, a GC'd watermark, a pending tail; names that need
// escaping, v6 and zoned addresses — but valid UTF-8 throughout, since JSON
// replaces anything else on the first write) and requires every file to load
// and to re-encode to the bytes on disk: no format moved.
func TestStoreGateParentArchiveFixture(t *testing.T) {
	const src = "testdata/parent-archive"
	dir := t.TempDir()
	names, err := persist.OS.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string][]byte{}
	for _, name := range names {
		if onDisk[name], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), onDisk[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Config{Dir: dir}) // geometry and watermarks come from the fixture's manifest
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Quarantined) != 0 || st.Partitions != [numTiers]int{6, 2, 0} || st.Pending != 1 || st.Ingested != 64 {
		t.Fatalf("fixture opened as %+v", st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	reencoded := map[string][]byte{}
	var buf bytes.Buffer
	for tier := TierHour; tier < numTiers; tier++ {
		for start, p := range s.parts[tier] {
			buf.Reset()
			if err := encodePartition(&buf, p); err != nil {
				t.Fatal(err)
			}
			reencoded[partName(tier, start)] = bytes.Clone(buf.Bytes())
		}
	}
	for name, build := range map[string]func([]byte) ([]byte, error){manifestName: s.appendManifest, pendingName: s.appendPendingLocked} {
		buf.Reset()
		if err := persist.WriteFooted(&buf, build); err != nil {
			t.Fatal(err)
		}
		reencoded[name] = bytes.Clone(buf.Bytes())
	}
	if len(reencoded) != len(onDisk) {
		t.Fatalf("re-encoded %d files of the fixture's %d", len(reencoded), len(onDisk))
	}
	for name, want := range onDisk {
		if !bytes.Equal(reencoded[name], want) {
			t.Errorf("%s: re-encoding differs from the parent's bytes:\n%s\nwant:\n%s", name, reencoded[name], want)
		}
	}
}

// BenchmarkStoreSealCompact measures the archive write side end to end:
// ingest a multi-week trace on the shrunk tier geometry, sealing,
// compacting and flushing on the emitter cadence.
func BenchmarkStoreSealCompact(b *testing.B) {
	entries := fixture(400)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := root + "/" + strconv.Itoa(i)
		s, err := Open(testCfg(dir))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(entries); j += 50 {
			end := j + 50
			if end > len(entries) {
				end = len(entries)
			}
			s.ObserveBatch(entries[j:end])
			if err := s.Tick(); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Final(); err != nil {
			b.Fatal(err)
		}
	}
}
