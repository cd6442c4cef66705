package engine_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/engine"
	"gamelens/internal/flowdetect"
	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/packet"
	"gamelens/internal/qoe"
	"gamelens/internal/race"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// Package fixtures: small-but-real classifiers and a seeded multi-flow
// packet stream, trained/generated once and shared by every test (the
// seeded-fixture idiom used across this repo's test suites).
var (
	modelsOnce sync.Once
	titleModel *titleclass.Classifier
	stageModel *stageclass.Classifier
)

func models(t testing.TB) (*titleclass.Classifier, *stageclass.Classifier) {
	t.Helper()
	modelsOnce.Do(func() {
		sessLen, titleTrees, stageTrees := 10*time.Minute, 30, 25
		if race.Enabled {
			sessLen, titleTrees, stageTrees = 5*time.Minute, 15, 15
		}
		rng := rand.New(rand.NewSource(600))
		var train []*gamesim.Session
		for id := gamesim.TitleID(0); id < gamesim.NumTitles; id++ {
			for i := 0; i < 2; i++ {
				cfg := gamesim.RandomConfig(rng)
				train = append(train, gamesim.Generate(id, cfg, gamesim.LabNetwork(),
					600+int64(id)*577+int64(i), gamesim.Options{SessionLength: sessLen}))
			}
		}
		var err error
		titleModel, err = titleclass.Train(train, titleclass.Config{
			Forest: mlkit.ForestConfig{NumTrees: titleTrees, MaxDepth: 10}, Seed: 61,
		})
		if err != nil {
			panic(err)
		}
		stageModel, err = stageclass.Train(train, stageclass.Config{
			StageForest:   mlkit.ForestConfig{NumTrees: stageTrees, MaxDepth: 10},
			PatternForest: mlkit.ForestConfig{NumTrees: stageTrees, MaxDepth: 10},
			Seed:          63,
		})
		if err != nil {
			panic(err)
		}
	})
	return titleModel, stageModel
}

var (
	streamOnce sync.Once
	testStream *gamesim.PacketStream
)

// streamFlows is the shared stream's flow count: 6 in the plain pass, 3
// under the race detector (the per-packet instrumentation is ~50x, so the
// race pass runs the same equivalence matrices over a smaller capture).
var streamFlows = 6

// sharedStream expands streamFlows seeded sessions (staggered starts, ~2
// minutes each — 30 seconds under the race detector) once for the whole
// package.
func sharedStream(t testing.TB) *gamesim.PacketStream {
	t.Helper()
	streamOnce.Do(func() {
		length, limit := 4*time.Minute, 2*time.Minute
		if race.Enabled {
			streamFlows, length, limit = 3, 90*time.Second, 30*time.Second
		}
		rng := rand.New(rand.NewSource(77))
		var sessions []*gamesim.Session
		for i := 0; i < streamFlows; i++ {
			id := gamesim.TitleID(i % int(gamesim.NumTitles))
			sessions = append(sessions, gamesim.Generate(id, gamesim.RandomConfig(rng), gamesim.LabNetwork(),
				900+int64(i)*131, gamesim.Options{SessionLength: length}))
		}
		testStream = gamesim.NewPacketStream(sessions, limit,
			time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC), 777*time.Millisecond)
	})
	return testStream
}

// feedFrames replays the stream's raw frames in global timestamp order
// through handle, the way a capture loop feeds Producer.HandleFrame.
func feedFrames(st *gamesim.PacketStream, handle func(ts time.Time, frame []byte)) {
	gamesim.ReplayRawFrames(st.Flows, st.Eps, st.Starts, handle)
}

// feed replays the same stream decoded, for the single core.Pipeline the
// engine is held to.
func feed(t testing.TB, st *gamesim.PacketStream, handle func(ts time.Time, dec *packet.Decoded, payload []byte)) {
	t.Helper()
	if err := st.Replay(handle); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// normReport flattens a SessionReport into a comparable value.
type normReport struct {
	Key          string
	Platform     flowdetect.Platform
	DownPkts     int
	UpPkts       int
	DownBytes    int64
	Title        titleclass.Result
	Pattern      stageclass.PatternResult
	PatternKnown bool
	StageMinutes [trace.NumStages]float64
	MeanDownMbps float64
	Objective    qoe.Level
	Effective    qoe.Level
}

func normalize(reports []*core.SessionReport) map[string]normReport {
	out := make(map[string]normReport, len(reports))
	for _, r := range reports {
		out[r.Flow.Key.String()] = normReport{
			Key:          r.Flow.Key.String(),
			Platform:     r.Flow.Platform,
			DownPkts:     r.Flow.DownPkts,
			UpPkts:       r.Flow.UpPkts,
			DownBytes:    r.Flow.DownBytes,
			Title:        r.Title,
			Pattern:      r.Pattern,
			PatternKnown: r.PatternKnown,
			StageMinutes: r.StageMinutes,
			MeanDownMbps: r.MeanDownMbps,
			Objective:    r.Objective,
			Effective:    r.Effective,
		}
	}
	return out
}

// TestEngineMatchesPipeline is the sharding invariant: for every shard
// count, the engine's merged reports must be identical (order-normalized)
// to a single core.Pipeline fed the same capture.
func TestEngineMatchesPipeline(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	pipe := core.New(core.Config{}, tm, sm)
	feed(t, st, func(ts time.Time, dec *packet.Decoded, payload []byte) {
		pipe.HandlePacket(ts, dec, payload)
	})
	want := normalize(pipe.Finish())
	if len(want) != streamFlows {
		t.Fatalf("baseline pipeline found %d flows, want %d", len(want), streamFlows)
	}

	tests := []struct {
		name   string
		shards int
		batch  int
		queue  int
	}{
		{"1shard", 1, 64, 128},
		{"2shards", 2, 64, 128},
		{"3shards_smallbatch", 3, 4, 8},
		{"4shards", 4, 64, 128},
		{"5shards_batch1", 5, 1, 16},
		{"8shards", 8, 32, 64},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eng := engine.New(engine.Config{
				Shards: tc.shards, BatchSize: tc.batch, QueueDepth: tc.queue,
			}, tm, sm)
			feedFrames(st, eng.Producer().HandleFrame)
			got := normalize(eng.Finish())
			if len(got) != len(want) {
				t.Fatalf("engine found %d flows, pipeline found %d", len(got), len(want))
			}
			for key, w := range want {
				g, ok := got[key]
				if !ok {
					t.Fatalf("flow %s missing from engine reports", key)
				}
				if g != w {
					t.Errorf("flow %s diverged:\n engine   %+v\n pipeline %+v", key, g, w)
				}
			}
		})
	}
}

// TestFinishDeterministicOrder checks the merged report order is the same
// regardless of shard count: sorted by flow start, ties by key.
func TestFinishDeterministicOrder(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)
	var orders [][]string
	for _, shards := range []int{1, 4, 7} {
		eng := engine.New(engine.Config{Shards: shards}, tm, sm)
		feedFrames(st, eng.Producer().HandleFrame)
		reports := eng.Finish()
		var order []string
		for i, r := range reports {
			order = append(order, r.Flow.Key.String())
			if i > 0 && r.Flow.FirstSeen.Before(reports[i-1].Flow.FirstSeen) {
				t.Errorf("shards=%d: report %d starts before report %d", shards, i, i-1)
			}
		}
		orders = append(orders, order)
	}
	for i := 1; i < len(orders); i++ {
		if len(orders[i]) != len(orders[0]) {
			t.Fatalf("order length diverged: %v vs %v", orders[i], orders[0])
		}
		for j := range orders[i] {
			if orders[i][j] != orders[0][j] {
				t.Errorf("report order diverged at %d: %s vs %s", j, orders[i][j], orders[0][j])
			}
		}
	}
}

// TestShardIndexDeterministic pins the routing function's contract:
// in-range, direction-independent, and stable across calls.
func TestShardIndexDeterministic(t *testing.T) {
	keys := []packet.FlowKey{
		{Src: netip.MustParseAddr("203.0.113.10"), Dst: netip.MustParseAddr("192.168.1.50"), SrcPort: 49004, DstPort: 54321, Proto: packet.ProtoUDP},
		{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"), SrcPort: 9295, DstPort: 40000, Proto: packet.ProtoUDP},
		{Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8::2"), SrcPort: 9988, DstPort: 51000, Proto: packet.ProtoUDP},
		{Src: netip.MustParseAddr("198.51.100.7"), Dst: netip.MustParseAddr("198.51.100.8"), SrcPort: 443, DstPort: 52000, Proto: packet.ProtoTCP},
		{}, // zero key (non-IP frames) must route too, not panic
	}
	for _, shards := range []int{1, 2, 3, 4, 8, 16} {
		for i, k := range keys {
			got := engine.ShardIndex(k, shards)
			if got < 0 || got >= shards {
				t.Fatalf("key %d shards=%d: index %d out of range", i, shards, got)
			}
			if again := engine.ShardIndex(k, shards); again != got {
				t.Errorf("key %d shards=%d: unstable index %d vs %d", i, shards, again, got)
			}
			if rev := engine.ShardIndex(k.Reverse(), shards); rev != got {
				t.Errorf("key %d shards=%d: reverse direction routed to %d, forward to %d", i, shards, rev, got)
			}
			if shards == 1 && got != 0 {
				t.Errorf("key %d: single shard must route to 0, got %d", i, got)
			}
		}
	}
}

// TestShardIndexSpreads checks the hash actually partitions: across many
// distinct client endpoints every shard of a 4-way engine gets work.
func TestShardIndexSpreads(t *testing.T) {
	const shards = 4
	var hit [shards]int
	for i := 0; i < 256; i++ {
		ep := gamesim.FlowEndpoints(i)
		k := packet.FlowKey{
			Src: ep.ServerAddr, Dst: ep.ClientAddr,
			SrcPort: ep.ServerPort, DstPort: ep.ClientPort,
			Proto: packet.ProtoUDP,
		}
		hit[engine.ShardIndex(k, shards)]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Errorf("shard %d received no flows out of 256", s)
		}
	}
}

// TestStreamedMatchesFinish is the lifecycle half of the sharding
// invariant: at every shard count, the reports streamed through the merged
// sink (with eviction disabled — the sink only fires at Finish) must be
// order-normalized identical both to the engine's Finish return and to the
// single-pipeline Finish-only baseline.
func TestStreamedMatchesFinish(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	pipe := core.New(core.Config{}, tm, sm)
	feed(t, st, func(ts time.Time, dec *packet.Decoded, payload []byte) {
		pipe.HandlePacket(ts, dec, payload)
	})
	want := normalize(pipe.Finish())

	for shards := 1; shards <= 8; shards++ {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			var mu sync.Mutex
			var streamed []*core.SessionReport
			eng := engine.New(engine.Config{
				Shards: shards,
				Sink: func(r *core.SessionReport) {
					mu.Lock()
					streamed = append(streamed, r)
					mu.Unlock()
				},
			}, tm, sm)
			feedFrames(st, eng.Producer().HandleFrame)
			finished := eng.Finish()
			if len(streamed) != len(finished) {
				t.Fatalf("sink saw %d reports, Finish returned %d", len(streamed), len(finished))
			}
			got := normalize(streamed)
			if len(got) != len(want) {
				t.Fatalf("streamed %d distinct flows, baseline has %d", len(got), len(want))
			}
			for key, w := range want {
				g, ok := got[key]
				if !ok {
					t.Fatalf("flow %s missing from streamed reports", key)
				}
				if g != w {
					t.Errorf("flow %s diverged:\n streamed %+v\n baseline %+v", key, g, w)
				}
			}
			fromFinish := normalize(finished)
			for key, w := range fromFinish {
				if got[key] != w {
					t.Errorf("flow %s: streamed report differs from Finish report", key)
				}
			}
			if st := eng.Stats(); st.EmittedReports != int64(len(streamed)) {
				t.Errorf("EmittedReports = %d, want %d", st.EmittedReports, len(streamed))
			}
		})
	}
}

// TestEngineEvictionBoundsActiveFlows replays a mostly-sequential capture
// (short flows, long stagger) through a single-shard engine with a finite
// TTL: flows must be evicted mid-run, the post-Finish active count must
// stay far below the total, and every flow must still yield exactly one
// report. Multi-shard counts re-check the exactly-once invariant (eviction
// there depends on how flows hash across shards, so the eviction count
// itself is not asserted).
func TestEngineEvictionBoundsActiveFlows(t *testing.T) {
	tm, sm := models(t)
	rng := rand.New(rand.NewSource(55))
	var sessions []*gamesim.Session
	const flows = 8
	for i := 0; i < flows; i++ {
		id := gamesim.TitleID(i % int(gamesim.NumTitles))
		sessions = append(sessions, gamesim.Generate(id, gamesim.RandomConfig(rng), gamesim.LabNetwork(),
			3100+int64(i)*17, gamesim.Options{SessionLength: 3 * time.Minute}))
	}
	// 45s flows starting 75s apart: each goes idle 30s before the next
	// begins, so a 15s TTL keeps at most ~2 flows resident.
	st := gamesim.NewPacketStream(sessions, 45*time.Second,
		time.Date(2026, 3, 3, 7, 0, 0, 0, time.UTC), 75*time.Second)

	shardCounts := []int{1, 2, 4, 8}
	if race.Enabled {
		shardCounts = []int{1, 4}
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			var mu sync.Mutex
			seen := map[string]int{}
			eng := engine.New(engine.Config{
				Shards: shards,
				Sink: func(r *core.SessionReport) {
					mu.Lock()
					seen[r.Flow.Key.String()]++
					mu.Unlock()
				},
				Pipeline: core.Config{FlowTTL: 15 * time.Second},
			}, tm, sm)
			feedFrames(st, eng.Producer().HandleFrame)
			reports := eng.Finish()
			if len(reports) != flows {
				t.Fatalf("%d reports, want %d", len(reports), flows)
			}
			for key, n := range seen {
				if n != 1 {
					t.Errorf("flow %s reported %d times", key, n)
				}
			}
			stats := eng.Stats()
			if stats.Flows() != flows {
				t.Errorf("Stats.Flows() = %d, want %d cumulative", stats.Flows(), flows)
			}
			if stats.ActiveFlows+int(stats.EvictedFlows) != flows {
				t.Errorf("active %d + evicted %d != %d", stats.ActiveFlows, stats.EvictedFlows, flows)
			}
			if shards == 1 {
				// One shard sees the whole packet clock, so eviction is
				// deterministic: all but the last couple of flows expire
				// mid-run.
				if stats.EvictedFlows < flows-2 {
					t.Errorf("only %d of %d flows evicted on one shard", stats.EvictedFlows, flows)
				}
				if stats.ActiveFlows > 2 {
					t.Errorf("ActiveFlows = %d after Finish, want <= 2 (memory unbounded?)", stats.ActiveFlows)
				}
			}
		})
	}
}

// waitStats polls the live Stats until cond holds and returns the snapshot
// that satisfied it; what names the awaited event for the timeout message.
func waitStats(t testing.TB, eng *engine.Engine, what string, cond func(engine.Stats) bool) engine.Stats {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		st := eng.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats %+v)", what, st)
		}
	}
}

// waitConsumed blocks until the shard workers have consumed every packet
// handed in so far (the caller has flushed or closed its producers), so the
// live Stats that follow are exact and a later out-of-band sweep cannot
// overtake a queued batch.
func waitConsumed(t testing.TB, eng *engine.Engine) engine.Stats {
	t.Helper()
	return waitStats(t, eng, "the workers to drain", func(st engine.Stats) bool {
		return st.Processed+st.Dropped == st.PacketsIn
	})
}

// TestProducerExpireIdle pins the quiet-shard eviction path: once a shard's
// own traffic stops, its packet clock freezes and no TTL can fire — until
// the producer that fed it calls ExpireIdle with a later packet-time
// instant. The sweep is in-band (FIFO behind every packet the producer
// handed in, flushed or still pending), so at every shard count it must
// stream, before Finish, exactly the reports — Evicted set — that one
// core.Pipeline fed the same capture and swept at the same instant emits.
func TestProducerExpireIdle(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)
	cfg := core.Config{FlowTTL: 30 * time.Second}

	var wantReports []*core.SessionReport
	pipeCfg := cfg
	pipeCfg.Sink = func(r *core.SessionReport) { wantReports = append(wantReports, r) }
	pipe := core.New(pipeCfg, tm, sm)
	var last time.Time
	feed(t, st, func(ts time.Time, dec *packet.Decoded, payload []byte) {
		pipe.HandlePacket(ts, dec, payload)
		if ts.After(last) {
			last = ts
		}
	})
	// All flows are now silent, but the clock is frozen at the last packet.
	// A sweep instant past every flow's TTL horizon must evict all of them.
	sweep := last.Add(time.Minute)
	if n := pipe.ExpireIdle(sweep); n != streamFlows || len(wantReports) != streamFlows {
		t.Fatalf("baseline sweep evicted %d flows (%d reports), want %d", n, len(wantReports), streamFlows)
	}
	want := normalize(wantReports)

	shardCounts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if race.Enabled {
		shardCounts = []int{1, 4}
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			reports := make(chan *core.SessionReport, streamFlows)
			eng := engine.New(engine.Config{
				Shards:   shards,
				Sink:     func(r *core.SessionReport) { reports <- r },
				Pipeline: cfg,
			}, tm, sm)
			p := eng.Producer()
			feedFrames(st, p.HandleFrame)
			p.ExpireIdle(sweep) // no Flush first: the sweep flushes ahead of itself

			// The sweep runs asynchronously, on the shard workers.
			var streamed []*core.SessionReport
			deadline := time.After(30 * time.Second)
			for len(streamed) < streamFlows {
				select {
				case r := <-reports:
					if !r.Evicted {
						t.Errorf("flow %s report not marked Evicted", r.Flow.Key)
					}
					streamed = append(streamed, r)
				case <-deadline:
					t.Fatalf("only %d of %d flows evicted by ExpireIdle", len(streamed), streamFlows)
				}
			}
			got := normalize(streamed)
			for key, w := range want {
				if g, ok := got[key]; !ok || g != w {
					t.Errorf("flow %s diverged (present=%v):\n engine   %+v\n pipeline %+v", key, ok, g, w)
				}
			}

			final := eng.Finish()
			if len(final) != streamFlows {
				t.Fatalf("Finish returned %d reports, want %d", len(final), streamFlows)
			}
			stats := eng.Stats()
			if int(stats.EvictedFlows) != streamFlows || stats.ActiveFlows != 0 {
				t.Errorf("evicted=%d active=%d after ExpireIdle, want %d and 0",
					stats.EvictedFlows, stats.ActiveFlows, streamFlows)
			}
			select {
			case r := <-reports:
				t.Errorf("unexpected extra report for %s after full eviction", r.Flow.Key)
			default:
			}
		})
	}
}

// TestStreamOnlyDoesNotRetain pins the continuous-monitor memory contract:
// with StreamOnly, every report reaches the sink exactly once (evictions
// and shutdown finalizations alike) but Finish returns nil — nothing is
// retained per flow once its report has been delivered.
func TestStreamOnlyDoesNotRetain(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	var mu sync.Mutex
	seen := map[string]int{}
	eng := engine.New(engine.Config{
		Shards:     2,
		StreamOnly: true,
		Sink: func(r *core.SessionReport) {
			mu.Lock()
			seen[r.Flow.Key.String()]++
			mu.Unlock()
		},
		Pipeline: core.Config{FlowTTL: time.Minute},
	}, tm, sm)
	feedFrames(st, eng.Producer().HandleFrame)
	if got := eng.Finish(); got != nil {
		t.Errorf("StreamOnly Finish returned %d reports, want nil", len(got))
	}
	if len(seen) != streamFlows {
		t.Fatalf("sink saw %d distinct flows, want %d", len(seen), streamFlows)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("flow %s delivered %d times", key, n)
		}
	}
	if st := eng.Stats(); st.EmittedReports != int64(streamFlows) {
		t.Errorf("EmittedReports = %d, want %d", st.EmittedReports, streamFlows)
	}
}

// TestAdaptiveBatchTrickle pins the low-rate contract the adaptive batcher
// exists for: on a link slower than one packet per second, the effective
// threshold must collapse to 1 so every packet flushes immediately instead
// of waiting out BatchSize.
func TestAdaptiveBatchTrickle(t *testing.T) {
	tm, sm := models(t)
	var pkts []trace.Pkt
	for i := 0; i < 40; i++ {
		pkts = append(pkts, trace.Pkt{T: time.Duration(i) * 2 * time.Second, Dir: trace.Down, Size: 1200})
	}
	eng := engine.New(engine.Config{Shards: 1, BatchSize: 64, FlushLatency: 25 * time.Millisecond}, tm, sm)
	gamesim.ReplayFlowFrames(pkts, gamesim.FlowEndpoints(900),
		time.Date(2026, 3, 4, 5, 0, 0, 0, time.UTC), eng.Producer().HandleFrame)
	if got := eng.Stats().ShardBatch[0]; got != 1 {
		t.Errorf("effective batch on a 0.5 pkt/s trickle = %d, want 1", got)
	}
	eng.Finish()
}

// TestAdaptiveBatchStats checks the adaptive batcher's observable contract:
// a slow trickle of packets must shrink the effective batch below the
// configured cap (bounding latency), while disabled adaptation pins it at
// BatchSize.
func TestAdaptiveBatchStats(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	// sharedStream packets arrive hundreds per second per flow; with a
	// 5ms budget the threshold must adapt below the cap.
	eng := engine.New(engine.Config{Shards: 2, BatchSize: 512, FlushLatency: 5 * time.Millisecond}, tm, sm)
	feedFrames(st, eng.Producer().HandleFrame)
	adapted := eng.Stats()
	eng.Finish()

	fixed := engine.New(engine.Config{Shards: 2, BatchSize: 512, FlushLatency: -1}, tm, sm)
	feedFrames(st, fixed.Producer().HandleFrame)
	fixedStats := fixed.Stats()
	fixed.Finish()

	for i, eff := range adapted.ShardBatch {
		if eff < 1 || eff > 512 {
			t.Errorf("shard %d effective batch %d out of [1, 512]", i, eff)
		}
		if eff == 512 {
			t.Errorf("shard %d did not adapt below the cap on a low-rate stream", i)
		}
	}
	for i, eff := range fixedStats.ShardBatch {
		if eff != 512 {
			t.Errorf("adaptation disabled but shard %d threshold is %d, want 512", i, eff)
		}
	}
}

// TestEngineStats checks the engine-level counters: packets in, drops, and
// per-shard flow counts consistent with the routing function.
func TestEngineStats(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)
	const shards = 4
	eng := engine.New(engine.Config{Shards: shards}, tm, sm)
	feedFrames(st, eng.Producer().HandleFrame)
	reports := eng.Finish()

	stats := eng.Stats()
	if stats.Shards != shards {
		t.Errorf("Stats.Shards = %d, want %d", stats.Shards, shards)
	}
	if stats.PacketsIn != int64(st.Total) {
		t.Errorf("PacketsIn = %d, want %d", stats.PacketsIn, st.Total)
	}
	if stats.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (lossless mode)", stats.Dropped)
	}
	if got := stats.Flows(); got != len(reports) {
		t.Errorf("Stats.Flows() = %d, want %d reports", got, len(reports))
	}
	var wantPerShard [shards]int
	for i := 0; i < streamFlows; i++ {
		wantPerShard[engine.ShardIndex(st.Key(i), shards)]++
	}
	for s := 0; s < shards; s++ {
		if stats.ShardFlows[s] != wantPerShard[s] {
			t.Errorf("shard %d tracks %d flows, routing predicts %d", s, stats.ShardFlows[s], wantPerShard[s])
		}
	}
}

// TestShardIndexPinned holds shard routing to the values it had before the
// five-tuple travelled as a packet.Tuple: a fleet that restarts onto a new
// build must keep sending every flow to the shard that holds its state, and
// ShardIndex is documented as stable across processes. Canonicalization is
// part of the pin (keys 1 and 2 are one conversation).
func TestShardIndexPinned(t *testing.T) {
	a := netip.MustParseAddr
	pins := []struct {
		key  packet.FlowKey
		want [4]int // shards = 2, 3, 8, 1000003
	}{
		{packet.FlowKey{}, [4]int{0, 2, 2, 800746}},
		{packet.FlowKey{Src: a("203.0.113.7"), Dst: a("10.0.0.9"), SrcPort: 49003, DstPort: 50001, Proto: packet.ProtoUDP}, [4]int{1, 0, 5, 795249}},
		{packet.FlowKey{Src: a("10.0.0.9"), Dst: a("203.0.113.7"), SrcPort: 50001, DstPort: 49003, Proto: packet.ProtoUDP}, [4]int{1, 0, 5, 795249}},
		{packet.FlowKey{Src: a("10.1.1.2"), Dst: a("10.1.1.2"), SrcPort: 9, DstPort: 7, Proto: packet.ProtoTCP}, [4]int{1, 1, 3, 159049}},
		{packet.FlowKey{Src: a("2001:db8::1"), Dst: a("2001:db8::2"), SrcPort: 9295, DstPort: 40000, Proto: packet.ProtoUDP}, [4]int{1, 1, 1, 818289}},
		{packet.FlowKey{Src: a("::ffff:1.2.3.4"), Dst: a("2001:db8::2"), SrcPort: 443, DstPort: 51000, Proto: packet.ProtoTCP}, [4]int{0, 2, 2, 659670}},
		{packet.FlowKey{Src: a("192.0.2.1"), Dst: a("198.51.100.200")}, [4]int{1, 2, 1, 747190}},
		{packet.FlowKey{Src: a("100.64.3.17"), Dst: a("203.0.113.250"), SrcPort: 3478, DstPort: 61234, Proto: packet.ProtoUDP}, [4]int{0, 0, 0, 815553}},
	}
	for _, p := range pins {
		for i, shards := range []int{2, 3, 8, 1000003} {
			if got := engine.ShardIndex(p.key, shards); got != p.want[i] {
				t.Errorf("ShardIndex(%v, %d) = %d, pinned %d", p.key, shards, got, p.want[i])
			}
		}
		if got := engine.ShardIndex(p.key, 1); got != 0 {
			t.Errorf("ShardIndex(%v, 1) = %d", p.key, got)
		}
	}
}

// TestRingEntrySize pins what one queued packet costs a lane: QueueDepth ×
// BatchSize of these per producer and shard is most of an idle engine's
// heap, so a field added to the entry (or to packet.Summary) fails here by
// name.
func TestRingEntrySize(t *testing.T) {
	if engine.RingEntrySize > 72 {
		t.Errorf("engine ring entry is %d bytes, budget 72", engine.RingEntrySize)
	}
}
