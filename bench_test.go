// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end at a
// reduced-but-faithful size; run cmd/experiments for the printed artifacts.
// The trailing ablation benches time the design choices
// experiments.Ablations varies.
package gamelens

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"gamelens/internal/experiments"
	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/packet"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
)

// benchOptions keeps each iteration in the single-digit seconds.
func benchOptions() experiments.Options {
	return experiments.Options{
		TrainPerTitle:  3,
		TestPerTitle:   1,
		SessionMinutes: 10,
		FleetSessions:  30,
		Trees:          25,
		Seed:           3,
	}
}

var (
	benchCorpusOnce sync.Once
	benchCorpus     *experiments.Corpus
	benchFieldOnce  sync.Once
	benchField      *experiments.FieldRun
)

func corpus(b testing.TB) *experiments.Corpus {
	b.Helper()
	benchCorpusOnce.Do(func() {
		benchCorpus = experiments.NewCorpus(benchOptions())
	})
	return benchCorpus
}

func fieldRun(b *testing.B) *experiments.FieldRun {
	b.Helper()
	c := corpus(b)
	benchFieldOnce.Do(func() {
		fr, err := experiments.NewFieldRun(c)
		if err != nil {
			panic(err)
		}
		benchField = fr
	})
	return benchField
}

func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table1(benchOptions()); len(r.Table.Rows) != 13 {
			b.Fatal("bad catalog")
		}
	}
}

func BenchmarkTable2Dataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table2(benchOptions()); len(r.Table.Rows) != 8 {
			b.Fatal("bad dataset table")
		}
	}
}

func BenchmarkFigure3LaunchGroups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure3(benchOptions()); len(r.Table.Rows) != 4 {
			b.Fatal("bad launch groups")
		}
	}
}

func BenchmarkFigure4Volumetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure4(benchOptions()); len(r.Table.Rows) == 0 {
			b.Fatal("bad volumetrics")
		}
	}
}

func BenchmarkFigure5Transitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure5(benchOptions()); len(r.Table.Rows) != 2 {
			b.Fatal("bad transitions")
		}
	}
}

func BenchmarkFigure8WindowSweep(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Attributes(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Importance(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10AlphaSweep(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4StagePattern(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14TitleTuning(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure15PatternTuning(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure15(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5TransitionImportance(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Durations(b *testing.B) {
	fr := fieldRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure11(fr); len(r.Table.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure12Bandwidth(b *testing.B) {
	fr := fieldRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure12(fr); len(r.Table.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure13EffectiveQoE(b *testing.B) {
	fr := fieldRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure13(fr); len(r.Table.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFieldValidation(b *testing.B) {
	fr := fieldRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.FieldValidation(fr); len(r.Table.Rows) != 5 {
			b.Fatal("bad validation table")
		}
	}
}

func BenchmarkAblationsDesignChoices(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainDefaultModels times the end-user training path exposed by
// the facade.
func BenchmarkTrainDefaultModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := TrainModels(int64(i)+1, TrainOptions{SessionsPerTitle: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine shard scaling ---

var (
	benchModelsOnce sync.Once
	benchModels     *Models
	benchStreamOnce sync.Once
	benchStream     *gamesim.PacketStream
)

// engineModels trains deployment-style models on the cached benchmark
// corpus once.
func engineModels(b testing.TB) *Models {
	b.Helper()
	c := corpus(b)
	benchModelsOnce.Do(func() {
		opts := benchOptions()
		m, err := TrainModelsFromSessions(c.Train, opts.Seed, TrainOptions{
			TitleConfig: titleclass.Config{
				Forest: mlkit.ForestConfig{NumTrees: opts.Trees, MaxDepth: 10},
				Seed:   opts.Seed + 31,
			},
			StageConfig: stageclass.Config{
				StageForest:   mlkit.ForestConfig{NumTrees: opts.Trees, MaxDepth: 10},
				PatternForest: mlkit.ForestConfig{NumTrees: opts.Trees, MaxDepth: 10},
				Seed:          opts.Seed + 33,
			},
		})
		if err != nil {
			panic(err)
		}
		benchModels = m
	})
	return benchModels
}

// engineStream expands a multi-flow capture once from the cached corpus's
// held-out sessions.
func engineStream(b testing.TB) *gamesim.PacketStream {
	b.Helper()
	c := corpus(b)
	benchStreamOnce.Do(func() {
		sessions := c.Test
		if len(sessions) > 6 {
			sessions = sessions[:6]
		}
		benchStream = gamesim.NewPacketStream(sessions, 45*time.Second,
			time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC), 613*time.Millisecond)
	})
	return benchStream
}

// replayParallel feeds each flow from its own goroutine holding its own
// EngineProducer — the engine's intended deployment shape (one reader per
// capture port / RSS queue), where per-flow arrival order is preserved but
// flows interleave freely. Frames go in raw (Producer.HandleFrame): the
// reader parses each once into a fixed-size summary, and only summaries
// cross to the shard workers.
func replayParallel(st *gamesim.PacketStream, eng *Engine) {
	var wg sync.WaitGroup
	for i := range st.Flows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := eng.Producer()
			defer p.Close()
			st.ReplayOneFrames(i, p.HandleFrame)
		}(i)
	}
	wg.Wait()
}

// --- Flow lifecycle ---

var (
	evictStreamOnce sync.Once
	evictStream     *gamesim.PacketStream
)

// evictionStream expands a long capture of many short, mostly-sequential
// flows (40s each, starting 60s apart): the workload where a TTL-less
// pipeline accumulates every session while an evicting one holds only the
// couple that are concurrently live.
func evictionStream(b *testing.B) *gamesim.PacketStream {
	b.Helper()
	c := corpus(b)
	evictStreamOnce.Do(func() {
		flows := 18
		if testing.Short() {
			flows = 6
		}
		var sessions []*gamesim.Session
		for i := 0; i < flows; i++ {
			sessions = append(sessions, c.Test[i%len(c.Test)])
		}
		evictStream = gamesim.NewPacketStream(sessions, 40*time.Second,
			time.Date(2026, 4, 2, 6, 0, 0, 0, time.UTC), time.Minute)
	})
	return evictStream
}

// BenchmarkSteadyState drives a long multi-flow capture through the full
// deployment path — sharded engine → per-shard pipelines → per-shard report
// rings → emitter → sharded per-subscriber rollup, with TTL eviction
// streaming reports through the batched sink, fed by one reader
// through its Producer — and reports ns/pkt, pkts/s, reports/s and (via
// ReportAllocs) the per-iteration B/op (the per-report emission cost in
// isolation is BenchmarkEmitterDrain in internal/engine). It rebuilds
// engine and rollup every iteration over a short capture, so it is a smoke
// of the path (`make benchsmoke`), not performance evidence — that is
// bench/. Before timing, it pins the correctness side: the order-normalized
// report set is byte-identical at shards 1..8 and identical to the
// single-threaded pipeline on the same capture.
func BenchmarkSteadyState(b *testing.B) {
	m := engineModels(b)
	st := evictionStream(b)

	render := func(reports []*SessionReport) string {
		var sb []byte
		for _, r := range reports {
			sb = append(sb, r.String()...)
			sb = append(sb, '\n')
		}
		return string(sb)
	}
	runOnce := func(shards int) string {
		if shards == 0 {
			pipe := NewPipeline(PipelineConfig{}, m)
			err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
				pipe.HandlePacket(ts, dec, payload)
			})
			if err != nil {
				b.Fatal(err)
			}
			return render(pipe.Finish())
		}
		eng := NewEngine(EngineConfig{Shards: shards}, m)
		gamesim.ReplayRawFrames(st.Flows, st.Eps, st.Starts, eng.Producer().HandleFrame)
		return render(eng.Finish())
	}
	want := runOnce(0)
	for _, shards := range []int{1, 2, 4, 8} {
		if got := runOnce(shards); got != want {
			b.Fatalf("shards=%d reports differ from pipeline:\n%s\nwant:\n%s", shards, got, want)
		}
	}

	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var emitted int64
			for i := 0; i < b.N; i++ {
				ru := NewRollup(RollupConfig{Window: time.Hour, Buckets: 12})
				eng := NewEngine(EngineConfig{
					Shards:     shards,
					BatchSink:  ru.ObserveReports,
					StreamOnly: true,
					Pipeline:   PipelineConfig{FlowTTL: 15 * time.Second},
				}, m)
				gamesim.ReplayRawFrames(st.Flows, st.Eps, st.Starts, eng.Producer().HandleFrame)
				eng.Finish()
				emitted += eng.Stats().EmittedReports
				if rs := ru.Stats(); rs.Ingested+rs.Late != int64(len(st.Flows)) {
					b.Fatalf("rollup saw %d entries, want %d", rs.Ingested+rs.Late, len(st.Flows))
				}
			}
			b.StopTimer()
			pkts := float64(st.Total) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
			b.ReportMetric(pkts/b.Elapsed().Seconds(), "pkts/s")
			b.ReportMetric(float64(emitted)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// BenchmarkRollupIngest times the report-stream hot path of the
// per-subscriber rollup subsystem: folding one finished session into its
// window bucket, percentile sketch insertions (throughput + QoE proxy)
// included. Entry timestamps march forward so the ring keeps rotating
// (bucket resets included, which is where sketch buffers reallocate), the
// steady state of a long-running monitor; subscribers cycle so the map
// stays hot rather than growing.
func BenchmarkRollupIngest(b *testing.B) {
	const subscribers = 256
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	titles := []string{"Fortnite", "Hearthstone", "Dota 2", ""}
	entries := make([]RollupEntry, 1024)
	for i := range entries {
		e := RollupEntry{
			// byte(i) wraps mod 256 == subscribers, so the 1024 entries
			// cycle over exactly 256 distinct addresses.
			Subscriber:   netip.AddrFrom4([4]byte{10, 77, 0, byte(i % subscribers)}),
			Title:        titles[i%len(titles)],
			MeanDownMbps: 8 + float64(i%17),
			QoEProxy:     float64(i%11) / 10,
		}
		if e.Title == "" {
			e.Pattern = "continuous-play"
		}
		e.StageMinutes[2] = 5.5
		entries[i] = e
	}
	ru := NewRollup(RollupConfig{Window: time.Hour, Buckets: 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%len(entries)]
		e.End = base.Add(time.Duration(i) * 500 * time.Millisecond)
		ru.Observe(e)
	}
	b.StopTimer()
	if st := ru.Stats(); st.Ingested != int64(b.N) || st.Late != 0 {
		b.Fatalf("ingested %d late %d, want %d/0", st.Ingested, st.Late, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkPipelineEviction compares the unbounded baseline (every session
// resident until Finish) against TTL eviction on a long many-flow capture.
// live_flows is the peak resident session count — bounded and small under
// eviction, equal to the total flow count without it — det_flows is the
// packet filter's peak flow-table size (eviction must free detector entries
// along with sessions, or the filter table grows without bound even when
// the session table is TTL-bounded), and ReportAllocs shows the
// per-iteration allocation cost of the lifecycle machinery.
func BenchmarkPipelineEviction(b *testing.B) {
	m := engineModels(b)
	st := evictionStream(b)

	run := func(b *testing.B, cfg PipelineConfig) {
		b.ReportAllocs()
		b.ResetTimer()
		peak, peakDet := 0, 0
		for i := 0; i < b.N; i++ {
			reports := 0
			cfg.Sink = func(*SessionReport) { reports++ }
			pipe := NewPipeline(cfg, m)
			live := 0
			err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
				pipe.HandlePacket(ts, dec, payload)
				if n := pipe.NumFlows(); n > live {
					live = n
				}
				if n := pipe.DetectorFlows(); n > peakDet {
					peakDet = n
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			pipe.Finish()
			if reports != len(st.Flows) {
				b.Fatalf("%d reports, want %d", reports, len(st.Flows))
			}
			if pipe.NumFlows() != 0 || pipe.DetectorFlows() != 0 {
				b.Fatalf("flow state after Finish: %d sessions, %d detector flows; want 0/0",
					pipe.NumFlows(), pipe.DetectorFlows())
			}
			if live > peak {
				peak = live
			}
		}
		if cfg.FlowTTL > 0 && peakDet >= len(st.Flows) {
			b.Fatalf("detector peaked at %d flows with a TTL; eviction is not freeing filter entries (total %d)",
				peakDet, len(st.Flows))
		}
		b.ReportMetric(float64(st.Total)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		b.ReportMetric(float64(peak), "live_flows")
		b.ReportMetric(float64(peakDet), "det_flows")
	}

	b.Run("unbounded", func(b *testing.B) {
		run(b, PipelineConfig{})
	})
	b.Run("ttl15s", func(b *testing.B) {
		run(b, PipelineConfig{FlowTTL: 15 * time.Second})
	})
}

// BenchmarkEngineShards replays the same multi-flow capture through the
// plain single-threaded pipeline (one reader goroutine — the only shape it
// supports) and through the sharded engine at 1..8 shards fed by one
// reader per flow, each with its own lock-free EngineProducer on the raw
// frame path (decode runs on the shard workers). pkts/s counts packets
// analyzed per wall second. With a single reader the workload is
// ingest-bound (frame build + decode dominate the per-packet analysis
// cost), which is exactly why the engine exists: it lets both the readers
// and the analysis spread across cores. The scalegate smoke in `make
// check` guards the monotonicity of this curve.
func BenchmarkEngineShards(b *testing.B) {
	m := engineModels(b)
	st := engineStream(b)

	run := func(b *testing.B, feed func() int) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if flows := feed(); flows != len(st.Flows) {
				b.Fatalf("%d flows reported, want %d", flows, len(st.Flows))
			}
		}
		b.ReportMetric(float64(st.Total)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	}

	b.Run("pipeline", func(b *testing.B) {
		run(b, func() int {
			pipe := NewPipeline(PipelineConfig{}, m)
			err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
				pipe.HandlePacket(ts, dec, payload)
			})
			if err != nil {
				b.Fatal(err)
			}
			return len(pipe.Finish())
		})
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprint(shards), func(b *testing.B) {
			run(b, func() int {
				eng := NewEngine(EngineConfig{Shards: shards}, m)
				replayParallel(st, eng)
				return len(eng.Finish())
			})
		})
	}
}
