package store

import (
	"bytes"
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

// reflectPartition is the partition encoder the store used before the cell
// codec — build the partitionJSON tree and reflect over it — kept as the
// reference encodePartition is held to.
func reflectPartition(t *testing.T, p *partData, spanNs int64) []byte {
	t.Helper()
	doc := partitionJSON{
		Format:  partitionFormat,
		Tier:    p.tier.String(),
		StartNs: p.startNs,
		SpanNs:  spanNs,
		Subs:    make([]partSubJSON, 0, len(p.cells)),
	}
	for i := range p.cells {
		doc.Subs = append(doc.Subs, partSubJSON{Addr: p.cells[i].addr.String(), Counts: p.cells[i].counts})
	}
	var buf bytes.Buffer
	if err := writeFooted(&buf, &doc); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
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
			pj.Subs = append(pj.Subs, partSubJSON{Addr: c.addr.String(), Counts: c.counts})
		}
		doc.Parts = append(doc.Parts, pj)
	}
	var buf bytes.Buffer
	if err := writeFooted(&buf, &doc); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
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
// the pending tail's flush equals its reference, before any entry, mid-run
// and after Final.
func TestStoreGateEncodersMatchReflection(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		origin := base
		if seed%2 == 0 {
			origin = time.Unix(-86400*365, 0).UTC().Truncate(12 * time.Minute) // pre-epoch archive
		}
		dir := t.TempDir()
		s, err := Open(testCfg(dir))
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
			for _, p := range s.parts[tier] {
				parts++
				var got bytes.Buffer
				if err := encodePartition(&got, p, s.spansNs[tier]); err != nil {
					t.Fatalf("seed %d: encodePartition: %v", seed, err)
				}
				if want := reflectPartition(t, p, s.spansNs[tier]); !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("seed %d: %s differs from the reference:\n%s\nwant:\n%s", seed, partName(tier, p.startNs), got.Bytes(), want)
				}
				onDisk, err := os.ReadFile(s.partPath(tier, p.startNs))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(onDisk, got.Bytes()) {
					t.Fatalf("seed %d: %s on disk differs from its re-encoding", seed, partName(tier, p.startNs))
				}
			}
		}
		s.mu.Unlock()
		if parts < 10 {
			t.Fatalf("seed %d: only %d partitions compared; the run did not seal and compact", seed, parts)
		}
	}
}

// TestStoreGateEmptyPartition pins the one shape a run never seals: a
// partition with no cells encodes "subscribers": [] on one line.
func TestStoreGateEmptyPartition(t *testing.T) {
	p := &partData{tier: TierDay, startNs: -240e9}
	var got bytes.Buffer
	if err := encodePartition(&got, p, 240e9); err != nil {
		t.Fatal(err)
	}
	if want := reflectPartition(t, p, 240e9); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("empty partition:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
