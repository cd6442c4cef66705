package main

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"gamelens"
	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/trace"
)

// scaled shrinks a workload for the tests: a sixteenth of the
// flows and background, the same packet-time structure.
func (w *packetWorkload) scaled(div int) *packetWorkload {
	c := *w
	c.src.flows /= div
	c.src.sessions = min(c.src.sessions, c.src.flows*2)
	c.src.bgPerChunk /= div
	if c.src.bgTuples > 0 {
		c.src.bgTuples /= div
	}
	c.keys = c.src.flows + 2*c.src.bgTuples
	c.refEvery = 1
	return &c
}

// smallSource is the steady schedule at a sixteenth of its flows.
func smallSource(seed int64) *source {
	return newSource(packetWorkloads[0].scaled(16).src, seed)
}

// TestFrameFidelity: a template-patched frame decodes to the same five-tuple,
// direction, payload length and RTP header as gamesim.FrameBuilder.Build
// gives the same record, and carries a valid IPv4 header checksum.
func TestFrameFidelity(t *testing.T) {
	src := smallSource(7)
	builders := map[int]*gamesim.FrameBuilder{}
	var got, want packet.Decoded
	checked := 0
	for c := 0; c < 6; c++ {
		recs := src.nextChunk()
		for i := range recs {
			r := &recs[i]
			f := &src.flows[r.id()]
			fb := builders[f.ident]
			if fb == nil {
				fb = gamesim.NewFrameBuilder(endpoints(f.ident))
				builders[f.ident] = fb
			}
			ref := fb.Build(trace.Pkt{T: time.Duration(r.ts - f.start), Dir: trace.Direction(r.kind()), Size: int(r.size)})
			frame := src.frame(r)
			if err := packet.Decode(ref, &want); err != nil {
				t.Fatal(err)
			}
			if err := packet.Decode(frame, &got); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if got.Flow() != want.Flow() || packet.PeekFlow(frame) != want.Flow() {
				t.Fatalf("record %d: flow %v, FrameBuilder gives %v", i, got.Flow(), want.Flow())
			}
			if len(got.Payload) != len(want.Payload) || len(frame) != len(ref) {
				t.Fatalf("record %d: payload %d bytes in a %d-byte frame, FrameBuilder gives %d in %d",
					i, len(got.Payload), len(frame), len(want.Payload), len(ref))
			}
			var a, b packet.RTP
			if _, err := a.DecodeFromBytes(got.Payload); err != nil {
				t.Fatal(err)
			}
			if _, err := b.DecodeFromBytes(want.Payload); err != nil {
				t.Fatal(err)
			}
			if a.PayloadType != b.PayloadType || a.SeqNumber != b.SeqNumber || a.Timestamp != b.Timestamp || a.SSRC != b.SSRC {
				t.Fatalf("record %d: RTP %+v, FrameBuilder gives %+v", i, a, b)
			}
			if !packet.VerifyChecksum(frame[packet.EthernetHeaderLen:]) {
				t.Fatalf("record %d: IPv4 header checksum does not verify", i)
			}
			checked++
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d records checked", checked)
	}
}

// TestBackgroundFrames: every background frame decodes (PeekFlow agreeing
// with Decode), IPv4 ones carry a valid header checksum, and exactly the
// injected truncated frames fail to decode.
func TestBackgroundFrames(t *testing.T) {
	w := packetWorkloads[1].scaled(16)
	w.src.bgFromChunk = 0
	src := newSource(w.src, 3)
	var dec packet.Decoded
	kinds := map[uint8]int{}
	var errs int64
	for c := 0; c < 4; c++ {
		recs := src.nextChunk()
		for i := range recs {
			r := &recs[i]
			frame := src.frame(r)
			kinds[r.kind()]++
			if err := packet.Decode(frame, &dec); err != nil {
				if r.kind() != kindTrunc {
					t.Fatalf("kind %d: %v", r.kind(), err)
				}
				errs++
				continue
			}
			if r.kind() == kindTrunc {
				t.Fatal("a truncated frame decoded")
			}
			if packet.PeekFlow(frame) != dec.Flow() {
				t.Fatalf("kind %d: PeekFlow %v, Decode %v", r.kind(), packet.PeekFlow(frame), dec.Flow())
			}
			if dec.HasIP4 && !packet.VerifyChecksum(frame[packet.EthernetHeaderLen:]) {
				t.Fatalf("kind %d: IPv4 header checksum does not verify", r.kind())
			}
			if r.kind() >= kindTCP && r.kind() <= kindUDP6 && len(dec.Payload) != int(r.size) {
				t.Fatalf("kind %d: payload %d bytes, scheduled %d", r.kind(), len(dec.Payload), r.size)
			}
		}
	}
	for k := uint8(kindDown); k <= kindTrunc; k++ {
		if kinds[k] == 0 {
			t.Errorf("no record of kind %d in four chunks", k)
		}
	}
	if errs != src.Truncated || errs != src.Packets/1000 {
		t.Fatalf("%d decode errors, %d injected, %d packets", errs, src.Truncated, src.Packets)
	}
}

// TestScheduleDeterminism: equal seeds give equal schedules, different seeds
// different ones, a rewound source repeats itself, and every chunk is in
// timestamp order with each flow's sequence numbers consecutive.
func TestScheduleDeterminism(t *testing.T) {
	hash := func(s *source) uint64 {
		for c := 0; c < 8; c++ {
			recs := s.nextChunk()
			for i := 1; i < len(recs); i++ {
				if recs[i].ts < recs[i-1].ts {
					t.Fatalf("chunk %d: record %d out of order", c, i)
				}
			}
		}
		return s.Hash()
	}
	a, b, c := smallSource(11), smallSource(11), smallSource(12)
	ha := hash(a)
	if hb := hash(b); ha != hb {
		t.Fatalf("equal seeds, hashes %x and %x", ha, hb)
	}
	if hc := hash(c); ha == hc {
		t.Fatal("different seeds, equal hashes")
	}
	a.reset()
	if again := hash(a); again != ha {
		t.Fatalf("after reset %x, first time %x", again, ha)
	}

	churn := newSource(packetWorkloads[2].scaled(16).src, 5)
	seq := map[[2]uint32]uint16{}
	idents := map[int]bool{}
	for c := 0; c < 60; c++ {
		for _, r := range churn.nextChunk() {
			f := &churn.flows[r.id()]
			idents[f.ident] = true
			k := [2]uint32{uint32(f.ident), uint32(r.kind())}
			if r.seq != seq[k]+1 {
				t.Fatalf("flow %d kind %d: seq %d after %d", f.ident, r.kind(), r.seq, seq[k])
			}
			seq[k] = r.seq
			if off := time.Duration(r.ts - f.start); off < 0 || off >= 8*time.Second {
				t.Fatalf("churn flow %d plays at offset %v", f.ident, off)
			}
		}
	}
	if len(idents) < 2*len(churn.flows) {
		t.Fatalf("60 chunks of churn saw only %d five-tuples on %d slots", len(idents), len(churn.flows))
	}
}

var (
	trainOnce   sync.Once
	trainModel  *gamelens.Models
	trainErr    error
	smallModels = func() (*gamelens.Models, error) {
		trainOnce.Do(func() {
			trainModel, trainErr = gamelens.TrainModels(42, gamelens.TrainOptions{SessionsPerTitle: 2, SessionLength: 3 * time.Minute})
		})
		return trainModel, trainErr
	}
)

func testEnv(t *testing.T) *env {
	dir := t.TempDir()
	return &env{shards: 2, tmp: dir, outDir: dir, train: smallModels}
}

// TestWorkloadsSmall runs every workload at a small scale through the same
// harness the benchmark uses — set-up, timed segments, output checks — and,
// outside -short, the traced pass too.
func TestWorkloadsSmall(t *testing.T) {
	smallHistory := historyWorkload{subscribers: 24, perHour: 96, batch: 64, shards: 4, hours: 8 * 24, minHours: 30}
	check := func(t *testing.T, out *outcome, traced bool, layer ...string) {
		t.Helper()
		if out.failed != 0 || out.attempted < 1 {
			t.Fatalf("%d of %d operations failed: %v", out.failed, out.attempted, out.problems)
		}
		var want []string
		for _, d := range endToEnd {
			want = append(want, d.Name)
		}
		if traced {
			want = append(want, layer...)
		}
		for _, name := range want {
			if out.metrics[name] <= 0 {
				t.Errorf("%s = %v", name, out.metrics[name])
			}
		}
	}
	traces := []bool{false}
	if !testing.Short() {
		traces = append(traces, true)
	}
	for _, traced := range traces {
		for _, w := range packetWorkloads {
			w := w.scaled(16)
			t.Run(w.name, func(t *testing.T) {
				out, err := runPacket(w, testEnv(t), 3, 0.2, traced)
				if err != nil {
					t.Fatal(err)
				}
				check(t, out, traced, "core.single_ns_per_pkt", "core.handle_ns", "flowdetect.observe_ns", "engine.handoff_ns", "gen.ns_per_pkt", "pcapio.next_ns")
				if traced && out.metrics["core.residual_share"] > 0.5 {
					t.Errorf("decode + handle is %v off the fused figure", out.metrics["core.residual_share"])
				}
				if w.src.bgPerChunk > 0 && out.metrics["engine.decode_errors"] == 0 {
					t.Error("background run injected no undecodable frames")
				}
				if w.archive && out.metrics["wl.title_acc"] < 0.8 {
					t.Errorf("title accuracy %v", out.metrics["wl.title_acc"])
				}
			})
		}
		t.Run("history", func(t *testing.T) {
			out, err := runHistory(&smallHistory, testEnv(t), 3, 0.2, traced)
			if err != nil {
				t.Fatal(err)
			}
			check(t, out, traced, "rollup.fold_ns", "store.observe_ns", "sketch.add_ns", "persist.atomic_ms_p50", "persist.footer_ns_per_kb")
			if out.metrics["store.sealed"] < 24 || out.metrics["store.compactions"] < 1 || out.metrics["rollup.checkpoints"] < 50 {
				t.Errorf("30 hours sealed %v hours, compacted %v days, wrote %v checkpoints",
					out.metrics["store.sealed"], out.metrics["store.compactions"], out.metrics["rollup.checkpoints"])
			}
		})
	}
}

// TestOutputCheckCatchesDamage: a report the engine did not deliver, or
// delivered differently, is counted as failed operations.
func TestOutputCheckCatchesDamage(t *testing.T) {
	w := packetWorkloads[0].scaled(16)
	r := &packetRun{w: w, env: testEnv(t), scratch: t.TempDir(), out: &outcome{metrics: map[string]float64{}}, src: newSource(w.src, 3)}
	if err := r.enginePass(minSegments); err != nil {
		t.Fatal(err)
	}
	r.got[0].MeanDownMbps++
	r.got = r.got[:len(r.got)-1]
	if err := r.checkOutputs(); err != nil {
		t.Fatal(err)
	}
	if r.out.failed != 2 {
		t.Fatalf("one altered and one missing report counted as %d failures: %v", r.out.failed, r.out.problems)
	}
}

// TestBenchmarkJSONMatchesRegistry: BENCHMARK.json names exactly the
// workloads and metrics the program reports, with the same units, directions
// and bounds.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, the program has %v", len(doc.Workloads), workloadNames)
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, the program has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, the program has %v", kind, g.Name, g.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("%d per-layer metrics, run_seconds %d, paths %v", len(doc.PerLayer), doc.RunSeconds, doc.Paths)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{103, 104, 102, 103, 105}, "lower", "same"},
		{[]float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{[]float64{120, 121, 119, 120, 122}, "higher", "better"},
		{[]float64{80, 81, 79, 80, 82}, "higher", "worse"},
		{[]float64{80, 140, 60, 100, 120}, "lower", "unresolved"},
	} {
		if _, v := verdict(base, c.b, c.better, 0.10); v != c.want {
			t.Errorf("%v (%s is better): %s, want %s", c.b, c.better, v, c.want)
		}
	}
}

func BenchmarkFeed(b *testing.B) {
	src := newSource(packetWorkloads[0].src, 1)
	var recs []rec
	for i := 0; i < 110; i++ {
		recs = src.nextChunk()
	}
	b.ResetTimer()
	for n := 0; n < b.N; n += len(recs) {
		src.feed(recs, func(time.Time, []byte) {})
	}
}
