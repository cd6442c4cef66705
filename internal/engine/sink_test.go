package engine_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/engine"
	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/race"
)

// shardOf maps one gamesim endpoint identity to its engine shard.
func shardOf(ep gamesim.Endpoints, shards int) int {
	return engine.ShardIndex(packet.FlowKey{
		Src: ep.ServerAddr, Dst: ep.ClientAddr,
		SrcPort: ep.ServerPort, DstPort: ep.ClientPort,
		Proto: packet.ProtoUDP,
	}, shards)
}

// pickEndpoints returns n endpoint indices (scanning upward from start)
// whose flows route to the given shard.
func pickEndpoints(t *testing.T, shard, shards, n, start int) []int {
	t.Helper()
	var out []int
	for i := start; len(out) < n; i++ {
		if i > start+100000 {
			t.Fatal("could not find endpoints routing to shard")
		}
		if shardOf(gamesim.FlowEndpoints(i), shards) == shard {
			out = append(out, i)
		}
	}
	return out
}

// TestSlowSinkShardIsolation is the regression the per-shard report rings
// exist for: pre-emitter, Engine.emit invoked the user sink under the
// shared sinkMu, so one slow consumer stalled every shard worker. Now a
// blocked sink backs up only the emitting shard's report ring — here
// shard 0, whose evictions saturate a deliberately tiny ring while the
// sink refuses to return — and the other shard's ingest must keep flowing
// to completion the whole time.
func TestSlowSinkShardIsolation(t *testing.T) {
	tm, sm := models(t)
	const shards = 2
	onShard0 := pickEndpoints(t, 0, shards, 3, 3000)
	onShard1 := pickEndpoints(t, 1, shards, 1, 4000)

	gate := make(chan struct{})
	blocked := make(chan struct{})
	var blockOnce sync.Once
	eng := engine.New(engine.Config{
		Shards: shards, BatchSize: 16, QueueDepth: 8,
		ReportQueue: 1, // one report saturates the lane
		StreamOnly:  true,
		Sink: func(r *core.SessionReport) {
			blockOnce.Do(func() { close(blocked) })
			<-gate
		},
		TickInterval: -1, // evictions only on explicit ExpireIdle
		Pipeline:     core.Config{FlowTTL: 45 * time.Second},
	}, tm, sm)

	base := time.Date(2026, 3, 3, 9, 0, 0, 0, time.UTC)
	p := eng.Producer()
	replay := func(epIdx int, start time.Time) int64 {
		rng := rand.New(rand.NewSource(2100 + int64(epIdx)))
		s := gamesim.Generate(gamesim.TitleID(epIdx%int(gamesim.NumTitles)),
			gamesim.RandomConfig(rng), gamesim.LabNetwork(),
			2100+int64(epIdx)*13, gamesim.Options{SessionLength: time.Minute})
		var n int64
		gamesim.ReplayFlowFrames(s.ExpandPackets(20*time.Second), gamesim.FlowEndpoints(epIdx), start, func(ts time.Time, frame []byte) {
			p.HandleFrame(ts, frame)
			n++
		})
		return n
	}

	var fed int64
	for _, i := range onShard0 {
		fed += replay(i, base)
	}
	// Evict all three shard-0 sessions: report one is swallowed by the
	// blocked sink, report two fills the one-slot ring, report three wedges
	// the shard-0 worker in its push loop.
	p.ExpireIdle(base.Add(10 * time.Minute))
	<-blocked

	waitStats(t, eng, "shard 0's report ring to back up behind the blocked sink",
		func(st engine.Stats) bool { return st.ReportBacklog >= 1 })

	// The property under test: with shard 0's emission wedged, shard 1
	// still ingests a whole flow to completion.
	fed += replay(onShard1[0], base)
	p.Flush()
	waitStats(t, eng, "shard 1 to consume its packets while shard 0 is blocked",
		func(st engine.Stats) bool { return st.Processed == fed })

	close(gate)
	if reports := eng.Finish(); reports != nil {
		t.Fatalf("StreamOnly Finish returned %d reports, want nil", len(reports))
	}
	st := eng.Stats()
	want := int64(len(onShard0) + len(onShard1))
	if st.EmittedReports != want {
		t.Errorf("EmittedReports = %d, want %d", st.EmittedReports, want)
	}
	if st.ReportBacklog != 0 {
		t.Errorf("ReportBacklog = %d after Finish, want 0", st.ReportBacklog)
	}
}

// evictionStorm drives cfg's engine through two waves of concurrently fed
// flows — the second starting past the first's TTL horizon, so its packets
// set off a storm of first-wave evictions on every shard at once, through
// deliberately tiny report rings — finishes the engine and returns it with
// the flow count.
func evictionStorm(t *testing.T, cfg engine.Config) (*engine.Engine, int) {
	t.Helper()
	tm, sm := models(t)
	flows := 16
	if race.Enabled {
		flows = 8
	}
	cfg.BatchSize, cfg.QueueDepth = 8, 4
	cfg.ReportQueue = 2 // tiny rings so the storm exercises backpressure
	cfg.StreamOnly = true
	cfg.Pipeline = core.Config{FlowTTL: 45 * time.Second, SweepInterval: 5 * time.Second}
	eng := engine.New(cfg, tm, sm)

	base := time.Date(2026, 3, 3, 11, 0, 0, 0, time.UTC)
	replayWave := func(lo, hi int, start time.Time) {
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(2300 + int64(i)))
				s := gamesim.Generate(gamesim.TitleID(i%int(gamesim.NumTitles)),
					gamesim.RandomConfig(rng), gamesim.LabNetwork(),
					2300+int64(i)*31, gamesim.Options{SessionLength: time.Minute})
				p := eng.Producer()
				defer p.Close()
				gamesim.ReplayFlowFrames(s.ExpandPackets(30*time.Second), gamesim.FlowEndpoints(500+i), start, p.HandleFrame)
			}(i)
		}
		wg.Wait()
		waitConsumed(t, eng) // the next wave's sweeps must not overtake this wave's queued tails
	}
	replayWave(0, flows/2, base)
	replayWave(flows/2, flows, base.Add(90*time.Second))
	eng.Finish()
	return eng, flows
}

// TestEvictionStormExactlyOnce floods every shard with concurrently
// evicting flows and asserts the end-to-end exactly-once invariant: every
// flow's report crosses the emitter exactly once — none lost at the rings
// or the close protocol, none duplicated. Run under
// `go test -race ./internal/engine`; the report rings' atomics are the
// only synchronization between shard workers and the emitter.
func TestEvictionStormExactlyOnce(t *testing.T) {
	seen := make(map[string]int)
	eng, flows := evictionStorm(t, engine.Config{
		Shards: 4,
		Sink:   func(r *core.SessionReport) { seen[r.Flow.Key.String()]++ },
	})

	if len(seen) != flows {
		t.Fatalf("sink saw %d distinct flows, want %d", len(seen), flows)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("flow %s delivered %d times through the emitter, want exactly once", key, n)
		}
	}
	st := eng.Stats()
	if st.EmittedReports != int64(flows) {
		t.Errorf("EmittedReports = %d, want %d", st.EmittedReports, flows)
	}
	if st.RecycledReports != 0 {
		t.Errorf("RecycledReports = %d, want 0: reports are handed over, never recycled", st.RecycledReports)
	}
	if st.EvictedFlows == 0 {
		t.Error("storm evicted nothing; the test lost its point")
	}
}

// TestReportsOwnedAfterDelivery pins the one sink contract: a delivered
// report belongs to the sink, under StreamOnly as in retention mode. Both
// sinks keep the pointers they are handed beside a value copy taken at
// delivery; after the storm and Finish every kept pointer must still read
// as its copy (nothing wrote to it again) and no pointer may have been
// delivered twice.
func TestReportsOwnedAfterDelivery(t *testing.T) {
	type kept struct {
		ptr  *core.SessionReport
		copy core.SessionReport
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			var viaSink, viaBatch []kept
			eng, flows := evictionStorm(t, engine.Config{
				Shards: shards,
				Sink:   func(r *core.SessionReport) { viaSink = append(viaSink, kept{r, *r}) },
				BatchSink: func(rs []*core.SessionReport) {
					for _, r := range rs {
						viaBatch = append(viaBatch, kept{r, *r})
					}
				},
			})
			for name, got := range map[string][]kept{"Sink": viaSink, "BatchSink": viaBatch} {
				if len(got) != flows {
					t.Errorf("%s was handed %d reports, want %d", name, len(got), flows)
				}
				seen := make(map[*core.SessionReport]bool)
				for _, k := range got {
					if seen[k.ptr] {
						t.Errorf("%s was handed report %p twice", name, k.ptr)
					}
					seen[k.ptr] = true
					if *k.ptr != k.copy {
						t.Errorf("%s: report of %v was rewritten after delivery:\n now  %v\n then %v",
							name, k.copy.Flow.Key, k.ptr, &k.copy)
					}
				}
			}
			if st := eng.Stats(); st.EmittedReports != int64(flows) {
				t.Errorf("EmittedReports = %d, want %d", st.EmittedReports, flows)
			}
		})
	}
}
