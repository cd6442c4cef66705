package store

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"gamelens/internal/persist"
	"gamelens/internal/rollup"
)

// writeReflected encodes doc as indented JSON with the integrity footer by
// reflection — how every store document was written before the append
// encoders, kept as the reference they are held to.
func writeReflected(t testing.TB, doc any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return persist.AppendFooter(buf.Bytes())
}

// reflectPartition is the partition encoder the store used before the cell
// codec — build the partitionJSON tree and reflect over it — kept as the
// reference encodePartition is held to.
func reflectPartition(t testing.TB, p *Partition) []byte {
	t.Helper()
	doc := partitionJSON{
		Format:  partitionFormat,
		Tier:    p.Tier.String(),
		StartNs: p.Start.UnixNano(),
		SpanNs:  int64(p.Span),
		Subs:    make([]partSubJSON, 0, len(p.Subs)),
	}
	for i := range p.Subs {
		doc.Subs = append(doc.Subs, partSubJSON{Addr: p.Subs[i].Subscriber.String(), Counts: p.Subs[i].Window})
	}
	return writeReflected(t, &doc)
}

// reflectManifest is the same for the manifest: the manifestJSON value
// writeManifest used to hand the reflection writer.
func reflectManifest(t *testing.T, s *Store) []byte {
	t.Helper()
	return writeReflected(t, &manifestJSON{Format: manifestFormat, SpansNs: s.spansNs, GCThrough: s.gc})
}

// reflectPending is the same for the pending tail: the pendingJSON tree
// flushPendingLocked used to build, through the reflection writer.
func reflectPending(t *testing.T, s *Store) []byte {
	t.Helper()
	doc := pendingJSON{Format: pendingFormat, Ingested: s.ingested, Late: s.late, Parts: []pendingPartJSON{}}
	if s.hasClock {
		doc.Clock = time.Unix(0, s.clockNs).UTC().Format(time.RFC3339Nano)
	}
	if s.hasSealedBelow {
		doc.SealedBelow = time.Unix(0, s.sealedBelowNs).UTC().Format(time.RFC3339Nano)
	}
	starts := make([]int64, 0, len(s.pending))
	for start := range s.pending {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, start := range starts {
		pj := pendingPartJSON{StartNs: start, Subs: []partSubJSON{}}
		for _, c := range sortedCells(s.pending[start].subs) {
			pj.Subs = append(pj.Subs, partSubJSON{Addr: c.Subscriber.String(), Counts: c.Window})
		}
		doc.Parts = append(doc.Parts, pj)
	}
	return writeReflected(t, &doc)
}

// hostileEntries is the fixture with the strings and sums the encoders can
// get wrong: keys that need escaping, sums on both sides of the float
// format switches, v6 and zoned subscribers, pre-epoch hours.
func hostileEntries(rng *rand.Rand, n int, origin time.Time) []rollup.Entry {
	names := []string{"Fortnite", `<b>&"q"\`, "ctl\x01\n\t", "bad\xffutf8", "sep ", "日本語", "del\x7f"}
	sums := []float64{0, 1e-9, 9.99e-7, 1e-6, 14.25, 1e20, 1e21, 3e22, -3e22, math.NaN(), math.Inf(1), 1e-100}
	out := fixture(n)
	for i := range out {
		e := &out[i]
		e.End = origin.Add(time.Duration(i) * 10 * time.Second)
		e.MeanDownMbps = sums[rng.Intn(len(sums))]
		e.StageMinutes[rng.Intn(len(e.StageMinutes))] = sums[rng.Intn(len(sums))]
		e.Title, e.Pattern = "", ""
		switch rng.Intn(3) {
		case 0:
			e.Title = names[rng.Intn(len(names))]
		case 1:
			e.Pattern = names[rng.Intn(len(names))]
		}
		switch rng.Intn(5) {
		case 0:
			e.Subscriber = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 15: byte(rng.Intn(5))})
		case 1:
			e.Subscriber = netip.AddrFrom16(e.Subscriber.As16())
		case 2:
			e.Subscriber = netip.MustParseAddr("fe80::1").WithZone(names[rng.Intn(len(names))])
		}
	}
	return out
}

// TestStoreGateEncodersMatchReflection is the store's half of the cell
// codec's differential property: every partition the store holds — sealed
// hours, compacted days and weeks — re-encodes through encodePartition to
// the bytes the reflection reference writes and to the bytes on disk, and
// the pending tail's flush and the manifest equal their references — before
// any entry, mid-run (GC moving the watermarks on odd seeds) and after Final.
func TestStoreGateEncodersMatchReflection(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		origin := base
		if seed%2 == 0 {
			origin = time.Unix(-86400*365, 0).UTC().Truncate(12 * time.Minute) // pre-epoch archive
		}
		dir := t.TempDir()
		cfg := testCfg(dir)
		if seed%2 == 1 {
			cfg.Retain = [numTiers]time.Duration{4 * time.Minute, 12 * time.Minute, -1}
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkPending := func(when string) {
			t.Helper()
			s.mu.Lock()
			defer s.mu.Unlock()
			var got bytes.Buffer
			if err := persist.WriteFooted(&got, s.appendPendingLocked); err != nil {
				t.Fatalf("seed %d %s: pending encoder: %v", seed, when, err)
			}
			if want := reflectPending(t, s); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("seed %d %s: pending tail differs from the reference:\n%s\nwant:\n%s", seed, when, got.Bytes(), want)
			}
			onDisk, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			if want := reflectManifest(t, s); !bytes.Equal(onDisk, want) {
				t.Fatalf("seed %d %s: MANIFEST.json differs from the reference:\n%s\nwant:\n%s", seed, when, onDisk, want)
			}
		}
		checkPending("empty")
		entries := hostileEntries(rng, 200, origin)
		for i := 0; i < len(entries); i += 7 {
			s.ObserveBatch(entries[i:min(i+7, len(entries))])
			if i%5 == 0 {
				checkPending("mid-run")
			}
			if err := s.Tick(); err != nil {
				t.Fatalf("seed %d: tick: %v", seed, err)
			}
		}
		if err := s.Final(); err != nil {
			t.Fatal(err)
		}
		checkPending("final")
		onDisk, err := os.ReadFile(filepath.Join(dir, pendingName))
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		if want := reflectPending(t, s); !bytes.Equal(onDisk, want) {
			t.Fatalf("seed %d: PENDING.json differs from the reference", seed)
		}
		parts := 0
		for tier := TierHour; tier < numTiers; tier++ {
			for start, p := range s.parts[tier] {
				parts++
				var got bytes.Buffer
				if err := encodePartition(&got, p); err != nil {
					t.Fatalf("seed %d: encodePartition: %v", seed, err)
				}
				if want := reflectPartition(t, p); !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("seed %d: %s differs from the reference:\n%s\nwant:\n%s", seed, partName(tier, start), got.Bytes(), want)
				}
				onDisk, err := os.ReadFile(s.partPath(tier, start))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(onDisk, got.Bytes()) {
					t.Fatalf("seed %d: %s on disk differs from its re-encoding", seed, partName(tier, start))
				}
			}
		}
		s.mu.Unlock()
		if parts < 10 {
			t.Fatalf("seed %d: only %d partitions compared; the run did not seal and compact", seed, parts)
		}
		if seed%2 == 1 && s.gc[TierHour] == watermarkUnset {
			t.Fatalf("seed %d: GC never moved a watermark; the manifest was only compared in its initial state", seed)
		}
	}
}

// TestStoreGateEmptyPartition pins the one shape a run never seals: a
// partition with no cells encodes "subscribers": [] on one line.
func TestStoreGateEmptyPartition(t *testing.T) {
	p := &Partition{Tier: TierDay, Start: time.Unix(0, -240e9).UTC(), Span: 240 * time.Second}
	var got bytes.Buffer
	if err := encodePartition(&got, p); err != nil {
		t.Fatal(err)
	}
	if want := reflectPartition(t, p); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("empty partition:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// FuzzPartitionReencode is the loader property for the one partition
// decoder: whatever file ReadPartitionFile accepts re-encodes through
// encodePartition to bytes that equal the reflection reference and that
// ReadPartitionFile accepts again. The input is the document without its
// integrity footer (the harness appends a valid one; a fuzzer cannot guess a
// CRC); the seeds are real sealed hours and compacted days, whole, cut short,
// and with single bits flipped.
func FuzzPartitionReencode(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(testCfg(dir))
	if err != nil {
		f.Fatal(err)
	}
	entries := hostileEntries(rand.New(rand.NewSource(15)), 64, base)
	s.ObserveBatch(entries)
	if err := s.Final(); err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	seeds := 0
	for tier := TierHour; tier <= TierDay; tier++ {
		for _, start := range sortedKeys(s.parts[tier], cmp.Compare[int64])[:2] {
			data, err := os.ReadFile(s.partPath(tier, start))
			if err != nil {
				f.Fatal(err)
			}
			doc, err := persist.SplitFooter(data)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(doc)
			seeds++
			for i := 0; i < 16; i++ {
				f.Add(doc[:rng.Intn(len(doc))])
				flipped := bytes.Clone(doc)
				flipped[rng.Intn(len(doc))] ^= 1 << rng.Intn(8)
				f.Add(flipped)
			}
		}
	}
	if seeds != 4 {
		f.Fatalf("seeded %d whole partitions, want 2 hours and 2 days", seeds)
	}
	path := filepath.Join(f.TempDir(), "fuzzed.bin") // not a partition name: the document alone decides
	f.Fuzz(func(t *testing.T, doc []byte) {
		if err := os.WriteFile(path, persist.AppendFooter(bytes.Clone(doc)), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := ReadPartitionFile(nil, path)
		if err != nil {
			t.Skip()
		}
		var got bytes.Buffer
		if err := encodePartition(&got, p); err != nil {
			t.Fatalf("encodePartition of a loaded partition: %v", err)
		}
		if want := reflectPartition(t, p); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("re-encoding differs from the reference:\n%s\nwant:\n%s", got.Bytes(), want)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPartitionFile(nil, path); err != nil {
			t.Fatalf("ReadPartitionFile rejects the re-encoding of a partition it loaded: %v", err)
		}
	})
}
