package flowdetect

import (
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"gamelens/internal/packet"
	"gamelens/internal/race"
)

// refTable is the detector as it was before the flat table: a Go map from
// FlowKey to a separately allocated Flow per tracked tuple, with the caller's
// pointer beside it. It is the reference the flat Table is held to, with the
// two behaviours this package changed on purpose written into it: last-seen
// is monotone, and a flow counts until its verdict (a Rejected flow keeps the
// evidence it was rejected on; the caller's pointer hangs on Gaming flows
// only).
type refTable[S any] struct {
	cfg   Config
	flows map[packet.FlowKey]refEntry[S]
}

type refEntry[S any] struct {
	flow *Flow
	sess *S
}

func newRefTable[S any](cfg Config) *refTable[S] {
	return &refTable[S]{cfg: cfg.withDefaults(), flows: make(map[packet.FlowKey]refEntry[S])}
}

func (d *refTable[S]) observe(ts time.Time, s *packet.Summary) (*Flow, *S) {
	if !s.UDP {
		return nil, nil
	}
	key := s.Key.FlowKey()
	e := d.flows[key]
	f := e.flow
	if f == nil {
		f = &Flow{Key: key, FirstSeen: ts, LastSeen: ts, ServerPort: knownServerPort(s.SrcPort(), s.DstPort())}
		d.flows[key] = refEntry[S]{flow: f}
	}
	if ts.After(f.LastSeen) {
		f.LastSeen = ts
	}
	if f.State == Rejected {
		return f, nil
	}
	if s.SrcPort() == f.ServerPort {
		f.DownPkts++
		f.DownBytes += int64(s.PayloadLen)
		f.RTPSeen++
		if s.RTP {
			f.RTPValid++
		}
	} else {
		f.UpPkts++
		f.UpBytes += int64(s.PayloadLen)
	}
	if f.State == Pending && f.DownPkts >= d.cfg.MinDownPkts {
		d.judge(f)
	}
	return f, e.sess
}

func (d *refTable[S]) judge(f *Flow) {
	plat := platformFor(f.ServerPort)
	if d.cfg.RequireKnownPort && plat == PlatformUnknown {
		f.State = Rejected
		return
	}
	if f.MeanDownPayload() < minMeanPayload ||
		f.DownMbps() < minDownMbps ||
		float64(f.RTPValid)/float64(f.RTPSeen) < minRTPValidFrac {
		f.State = Rejected
		return
	}
	f.State = Gaming
	f.Platform = plat
}

func (d *refTable[S]) attach(key packet.FlowKey, sess *S) {
	if e, ok := d.flows[key]; ok && e.flow.State == Gaming {
		e.sess = sess
		d.flows[key] = e
	}
}

func (d *refTable[S]) remove(key packet.FlowKey) { delete(d.flows, key.Canonical()) }

func (d *refTable[S]) reset() { d.flows = make(map[packet.FlowKey]refEntry[S]) }

func (d *refTable[S]) expire(cutoff time.Time) int {
	n := 0
	for k, e := range d.flows {
		if e.flow.LastSeen.Before(cutoff) {
			delete(d.flows, k)
			n++
		}
	}
	return n
}

// tableUniverse is the small set of conversations the differential streams
// draw from: IPv4 and IPv6, platform ports and unknown ones, each in
// canonical order.
func tableUniverse() []packet.FlowKey {
	ports := []uint16{49004, 9003, 9990, 9296, 23456, 443}
	var keys []packet.FlowKey
	for i := 0; i < 64; i++ {
		k := packet.FlowKey{
			Src: netip.AddrFrom4([4]byte{10, 0, byte(i / 8), byte(1 + i%8)}), Dst: netip.AddrFrom4([4]byte{203, 0, 113, 10}),
			SrcPort: uint16(50000 + i), DstPort: ports[i%len(ports)], Proto: packet.ProtoUDP,
		}
		if i%4 == 3 {
			k.Src = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})
			k.Dst = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: 1, 15: 1})
		}
		keys = append(keys, k.Canonical())
	}
	return keys
}

type testSession struct{ id int }

// tableStats counts what differential runs saw of the table's insides, so a
// caller can insist the interesting cases were reached.
type tableStats struct {
	wrapped, shifted, shrunk, gaming, rejected int
}

// runTableOps interprets ops as a stream of observe / late observe / Remove /
// Expire / Attach / Reset calls over tableUniverse, applies each to a flat
// Table and to the map-backed reference, and after every step holds the two
// equal — states, counters, instants, NumFlows, the GamingFlows set and the
// attachments — and the table's own structure sound.
func runTableOps(t *testing.T, ops []byte, st *tableStats) {
	t.Helper()
	cfg := Config{MinDownPkts: 4}
	tab, ref := NewTable[testSession](cfg), newRefTable[testSession](cfg)
	keys := tableUniverse()
	base := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	now := base
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	for step := 0; len(ops) > 0; step++ {
		op, key := next(), keys[next()%len(keys)]
		switch op % 16 {
		default: // observe; op 10 stamps the frame in the past
			arg := next()
			ts := now
			if op%16 == 10 {
				ts = now.Add(-time.Duration(arg) * 20 * time.Microsecond)
			} else {
				now = now.Add([]time.Duration{0, time.Microsecond, 5 * time.Microsecond, 20 * time.Microsecond}[arg%4])
				ts = now
			}
			// Every key's server is its Dst. Mostly RTP video down from it;
			// the rest is upstream, small or not RTP, so all verdicts occur.
			s := packet.Summary{Key: packet.TupleOf(key), PayloadLen: 1200, Reversed: true, UDP: true, RTP: arg&12 != 12 || op&16 == 0}
			switch {
			case arg&48 == 48:
				s.Reversed, s.PayloadLen = false, 60
			case arg&192 == 192:
				s.PayloadLen = 200
			}
			got, gf, gs := tab.ObserveSummary(ts, &s)
			wf, ws := ref.observe(ts, &s)
			if got != wf.State || gs != ws {
				t.Fatalf("step %d observe %v: state %v attachment %p, reference %v %p", step, key, got, gs, wf.State, ws)
			}
			if (gf != nil) != (got == Gaming) || gf != nil && *gf != *wf {
				t.Fatalf("step %d observe %v: flow %+v, reference %+v", step, key, gf, wf)
			}
		case 15: // a quiet spell: slow flows, and something for Expire to take
			now = now.Add(time.Duration(next()%4) * time.Millisecond)
		case 11:
			if next()%2 == 0 {
				key = key.Reverse() // Remove canonicalizes
			}
			tab.Remove(key)
			ref.remove(key)
		case 12:
			cutoff := now.Add(-time.Duration(next()%8) * 200 * time.Microsecond)
			before := tab.capacity
			got, want := tab.Expire(cutoff), ref.expire(cutoff)
			if got != want {
				t.Fatalf("step %d: Expire removed %d, reference %d", step, got, want)
			}
			if tab.capacity < before {
				st.shrunk++
			}
		case 13:
			sess := &testSession{id: step}
			tab.Attach(key, sess)
			ref.attach(key, sess)
		case 14:
			if next()%8 == 0 {
				tab.Reset()
				ref.reset()
			}
		}
		checkTable(t, step, tab, ref, keys, st)
	}
}

// checkTable compares the table with the reference over the whole universe
// and walks the table's structure: every record reachable through the index
// under its own key, no index word without a record, every Gaming record
// paired with exactly one live gaming entry.
func checkTable(t *testing.T, step int, tab *Table[testSession], ref *refTable[testSession], keys []packet.FlowKey, st *tableStats) {
	t.Helper()
	if tab.NumFlows() != len(ref.flows) {
		t.Fatalf("step %d: NumFlows %d, reference %d", step, tab.NumFlows(), len(ref.flows))
	}
	for _, key := range keys {
		got, ok := tab.Lookup(key.Reverse())
		want, tracked := ref.flows[key]
		if ok != tracked {
			t.Fatalf("step %d: %v tracked=%v, reference %v", step, key, ok, tracked)
		}
		if !ok {
			continue
		}
		w := *want.flow
		if !got.FirstSeen.Equal(w.FirstSeen) || !got.LastSeen.Equal(w.LastSeen) {
			t.Fatalf("step %d: %v seen %v–%v, reference %v–%v", step, key, got.FirstSeen, got.LastSeen, w.FirstSeen, w.LastSeen)
		}
		got.FirstSeen, got.LastSeen = w.FirstSeen, w.LastSeen
		if got != w {
			t.Fatalf("step %d: %v is %+v, reference %+v", step, key, got, w)
		}
		if w.State == Gaming {
			k := packet.TupleOf(key)
			_, r := tab.find(&k, tab.tag(&k))
			if g := tab.gaming[r.gaming]; g.sess != want.sess || *g.flow != w {
				t.Fatalf("step %d: %v carries %p %+v, reference %p %+v", step, key, g.sess, g.flow, want.sess, w)
			}
			st.gaming++
		} else if w.State == Rejected {
			st.rejected++
		}
	}
	var gotGaming, wantGaming []string
	for _, f := range tab.GamingFlows() {
		gotGaming = append(gotGaming, f.Key.String())
	}
	for k, e := range ref.flows {
		if e.flow.State == Gaming {
			wantGaming = append(wantGaming, k.String())
		}
	}
	slices.Sort(gotGaming)
	slices.Sort(wantGaming)
	if !slices.Equal(gotGaming, wantGaming) {
		t.Fatalf("step %d: GamingFlows %v, reference %v", step, gotGaming, wantGaming)
	}

	if len(tab.index)&(len(tab.index)-1) != 0 || int(tab.n) > len(tab.index)/4*3 || tab.n > tab.capacity {
		t.Fatalf("step %d: %d records, capacity %d, index of %d", step, tab.n, tab.capacity, len(tab.index))
	}
	mask := uint32(len(tab.index) - 1)
	words := 0
	for i, w := range tab.index {
		if w == 0 {
			continue
		}
		words++
		if rec := uint32(w) - 1; rec >= tab.n || tab.tag(&tab.at(rec).key) != uint32(w>>32) {
			t.Fatalf("step %d: index word %d = %#x names no record of its tag", step, i, w)
		}
		if home := uint32(w>>32) & mask; home > uint32(i) {
			st.wrapped++
		} else if home < uint32(i) {
			st.shifted++
		}
	}
	if words != int(tab.n) {
		t.Fatalf("step %d: %d index words for %d records", step, words, tab.n)
	}
	live := 0
	for i := uint32(0); i < tab.n; i++ {
		r := tab.at(i)
		if slot, found := tab.find(&r.key, tab.tag(&r.key)); found != r || uint32(tab.index[slot])-1 != i {
			t.Fatalf("step %d: record %d (%v) is not where its key leads", step, i, r.key)
		}
		if State(r.state) == Gaming {
			live++
			if g := tab.gaming[r.gaming]; g.flow == nil || g.flow.Key != r.key.FlowKey() {
				t.Fatalf("step %d: gaming record %d (%v) points at entry %d = %+v", step, i, r.key, r.gaming, g.flow)
			}
		}
	}
	if live+len(tab.gamingFree) != len(tab.gaming) {
		t.Fatalf("step %d: %d gaming records + %d free entries != %d entries", step, live, len(tab.gamingFree), len(tab.gaming))
	}
}

// tableOps draws a random op stream for runTableOps.
func tableOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestTableMatchesMapReference is the 40-seed differential of the flat table
// against the map-backed detector it replaced. The table's index starts at
// minIndex words and the universe is a few dozen keys, so probe runs wrap
// the end of the index, removals shift words backwards across the wrap, and
// a sweep that empties the table shrinks it — the run insists each of those
// was met.
func TestTableMatchesMapReference(t *testing.T) {
	var total tableStats
	for seed := int64(1); seed <= 40; seed++ {
		runTableOps(t, tableOps(seed, 6000), &total)
	}
	if total.wrapped == 0 || total.shifted == 0 || total.shrunk == 0 || total.gaming == 0 || total.rejected == 0 {
		t.Errorf("the streams never reached a case they exist for: %+v", total)
	}
}

// FuzzTable lets the mutator steer the same differential.
func FuzzTable(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(tableOps(seed, 900))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runTableOps(t, ops, new(tableStats)) })
}

// TestObserveSummaryAllocs pins the filter's per-packet path at zero
// allocations once warm: a hit on a pending, a rejected and a gaming flow,
// and a passer-by tuple that is inserted, swept out by Expire and inserted
// again into the room it left.
func TestObserveSummaryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned without -race instrumentation")
	}
	d := New(Config{MinDownPkts: 3})
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	gaming, _ := gamingSummaries(2)
	rejected, _ := gamingSummaries(3)
	_, pending := gamingSummaries(4) // upstream only: never judged
	passer, _ := gamingSummaries(5)
	for i := 0; i < 3; i++ {
		d.ObserveSummary(base.Add(time.Duration(i)*time.Millisecond), &gaming)
		d.ObserveSummary(base.Add(time.Duration(i)*time.Second), &rejected)
	}
	now := base.Add(3 * time.Second)
	step := func() {
		now = now.Add(time.Second)
		if st, f, _ := d.ObserveSummary(now, &gaming); st != Gaming || f == nil {
			t.Fatalf("gaming flow is %v", st)
		}
		if st, _, _ := d.ObserveSummary(now, &rejected); st != Rejected {
			t.Fatalf("rejected flow is %v", st)
		}
		if st, _, _ := d.ObserveSummary(now, &pending); st != Pending {
			t.Fatalf("pending flow is %v", st)
		}
		if st, _, _ := d.ObserveSummary(now.Add(-500*time.Millisecond), &passer); st != Pending {
			t.Fatalf("passer-by is %v", st)
		}
		if n := d.Expire(now); n != 1 || d.NumFlows() != 3 {
			t.Fatalf("Expire removed %d, %d flows left", n, d.NumFlows())
		}
	}
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("warm ObserveSummary + Expire allocate %.1f/op, want 0", n)
	}
}

// TestRecordSize pins what one tracked five-tuple costs the filter: a field
// added to the record fails here by name, not as a drift in the benchmark's
// heap_b_per_key on `background`.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 96 {
		t.Errorf("flowdetect record is %d bytes, budget 96", n)
	}
}

// TestDetectorRetention pins what a scan storm leaves behind: a tap tracking
// a steady 2 000 tuples sees ten times that many one-packet tuples, they
// expire, and the table gives the room back — the live heap it holds
// afterwards is bounded by the steady population (2 000 records and their
// index words come to ≈225 KB), not by the storm's peak. A Go map, which
// never returns buckets, kept ≈2.5 MB here.
func TestDetectorRetention(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are only meaningful in the plain build")
	}
	const steady, storm = 2000, 20000
	d := New(Config{})
	base := time.Date(2026, 6, 1, 8, 0, 0, 0, time.UTC)
	tuple := func(i int) packet.Summary {
		return packet.Summary{
			Key: packet.TupleOf(packet.FlowKey{
				Src: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), Dst: netip.AddrFrom4([4]byte{203, 0, 113, 10}),
				SrcPort: 40000, DstPort: 53, Proto: packet.ProtoUDP,
			}),
			PayloadLen: 80, Reversed: true, UDP: true,
		}
	}
	feed := func(from, to int, at time.Time) {
		for i := from; i < to; i++ {
			s := tuple(i)
			d.ObserveSummary(at, &s)
		}
	}
	feed(0, steady, base)
	feed(steady, steady+storm, base.Add(time.Second))
	if d.NumFlows() != steady+storm {
		t.Fatalf("%d flows at the storm's peak", d.NumFlows())
	}
	feed(0, steady, base.Add(10*time.Second)) // the steady population carries on
	if n := d.Expire(base.Add(5 * time.Second)); n != storm || d.NumFlows() != steady {
		t.Fatalf("Expire removed %d, %d flows left", n, d.NumFlows())
	}

	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	flows := d.NumFlows()
	d = nil
	after := live()
	const bound = 320 << 10
	if retained := int64(before) - int64(after); retained > bound {
		t.Fatalf("detector holds %d B for %d flows after a %d-tuple storm, want at most %d", retained, flows, storm, bound)
	} else {
		t.Logf("detector holds %d B for %d flows after a %d-tuple storm", retained, flows, storm)
	}
}
