package engine

import (
	"net/netip"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/flowdetect"
	"gamelens/internal/packet"
	"gamelens/internal/race"
	"gamelens/internal/rollup"
)

// newDrainRig builds the minimal emitter rig — one shard with a report
// ring, an engine that does not retain, no goroutines — so the drain path
// runs synchronously on the test goroutine, which is what an AllocsPerRun
// pin (and an uncontended benchmark) needs.
func newDrainRig(ringCap int, sink core.ReportSink, batchSink func([]*core.SessionReport)) (*Engine, *shard) {
	s := &shard{reports: newSPSCRing[*core.SessionReport](ringCap)}
	e := &Engine{
		cfg:    Config{Sink: sink, BatchSink: batchSink, StreamOnly: true},
		shards: []*shard{s},
	}
	e.emitScratch = make([]*core.SessionReport, 0, len(s.reports.slots))
	return e, s
}

// stormReports synthesizes n finalized-looking session reports for n
// distinct subscribers, all ending inside one rollup bucket.
func stormReports(n int) []*core.SessionReport {
	start := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	out := make([]*core.SessionReport, n)
	for i := range out {
		key := packet.FlowKey{
			Src: netip.AddrFrom4([4]byte{203, 0, 113, 7}), Dst: netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)}),
			SrcPort: 9295, DstPort: uint16(52000 + i), Proto: packet.ProtoUDP,
		}.Canonical()
		out[i] = &core.SessionReport{
			Flow:           &flowdetect.Flow{Key: key, ServerPort: 9295, FirstSeen: start},
			MeanDownMbps:   5 + float64(i%30),
			EffectiveScore: float64(i%10) / 10,
			End:            start.Add(time.Duration(i) * time.Second),
		}
	}
	return out
}

// TestEmitterDrainAllocs is the sinkgate pin: the steady-state emit→rollup
// drain — pop a run off a shard's report ring, deliver it to a per-report
// sink and a rollup batch sink — must not allocate, so what a
// report costs is the one struct its finalization allocates.
func TestEmitterDrainAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned without -race instrumentation")
	}
	ru := rollup.New(rollup.Config{Window: 24 * time.Hour})
	e, s := newDrainRig(64, func(*core.SessionReport) {}, ru.ObserveReports)
	reports := stormReports(32)
	allocs := testing.AllocsPerRun(200, func() {
		for _, r := range reports {
			if !s.reports.push(r) {
				t.Fatal("report ring unexpectedly full")
			}
		}
		if n := e.drainReports(); n != len(reports) {
			t.Fatalf("drained %d reports, want %d", n, len(reports))
		}
	})
	if allocs != 0 {
		t.Fatalf("emitter drain allocated %.1f allocs/op steady-state, want 0", allocs)
	}
}

// TestDeliverRetains pins retention mode: delivered pointers go to streamed
// (for Finish), in delivery order.
func TestDeliverRetains(t *testing.T) {
	s := &shard{reports: newSPSCRing[*core.SessionReport](8)}
	e := &Engine{shards: []*shard{s}, retain: true}
	e.emitScratch = make([]*core.SessionReport, 0, len(s.reports.slots))
	reports := stormReports(5)
	for _, r := range reports {
		s.reports.push(r)
	}
	if n := e.drainReports(); n != len(reports) {
		t.Fatalf("drained %d, want %d", n, len(reports))
	}
	if len(e.streamed) != len(reports) {
		t.Fatalf("retained %d reports, want %d", len(e.streamed), len(reports))
	}
	for i, r := range e.streamed {
		if r != reports[i] {
			t.Fatalf("streamed[%d] is not the delivered pointer", i)
		}
	}
	if e.emitted.Load() != int64(len(reports)) {
		t.Fatalf("emitted = %d, want %d", e.emitted.Load(), len(reports))
	}
}

// BenchmarkEmitterDrain measures the report path in isolation: ring push →
// emitter drain → sink + rollup batch observe. The
// reports/s metric is the emission-side counterpart of BenchmarkSteadyState's
// pkts/s.
func BenchmarkEmitterDrain(b *testing.B) {
	ru := rollup.New(rollup.Config{Window: 24 * time.Hour})
	e, s := newDrainRig(256, func(*core.SessionReport) {}, ru.ObserveReports)
	reports := stormReports(128)
	drain := func() {
		for _, r := range reports {
			s.reports.push(r)
		}
		e.drainReports()
	}
	// One warm-up drain populates the rollup's subscriber maps and sketch
	// buffers, so short -benchtime runs measure the allocation-free steady
	// state (the one sinkgate pins) rather than first-touch growth.
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain()
	}
	b.StopTimer()
	total := float64(b.N) * float64(len(reports))
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(total/secs, "reports/s")
	}
}
