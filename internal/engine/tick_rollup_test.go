package engine_test

// Tests for the automatic shard-clock tick (Config.TickInterval) and for
// the rollup subsystem's determinism over the engine's report stream — the
// two halves of the operator-dashboard story: quiet shards evict without
// operator code, and the per-subscriber window built from the order-
// normalized reports is byte-identical at every shard count.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/engine"
	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/race"
	"gamelens/internal/rollup"
	"gamelens/internal/trace"
)

// shardedEndpoints finds one endpoint index routing to each shard of a
// 2-shard engine, so a test can place flows on specific shards.
func shardedEndpoints(t *testing.T) (shard0, shard1 int) {
	t.Helper()
	shard0, shard1 = -1, -1
	for i := 0; i < 4096 && (shard0 < 0 || shard1 < 0); i++ {
		ep := gamesim.FlowEndpoints(i)
		key := packet.FlowKey{
			Src: ep.ServerAddr, Dst: ep.ClientAddr,
			SrcPort: ep.ServerPort, DstPort: ep.ClientPort,
			Proto: packet.ProtoUDP,
		}
		switch engine.ShardIndex(key, 2) {
		case 0:
			if shard0 < 0 {
				shard0 = i
			}
		case 1:
			if shard1 < 0 {
				shard1 = i
			}
		}
	}
	if shard0 < 0 || shard1 < 0 {
		t.Fatal("could not find endpoints for both shards")
	}
	return shard0, shard1
}

// TestAutoTickEvictsQuietShard pins the PR's tentpole lifecycle close-out:
// a shard whose own traffic has stopped never advances its own packet
// clock, but the engine's automatic tick — driven by the newest capture
// timestamp engine-wide — must evict its idle flows anyway, with no
// ExpireIdle caller anywhere.
func TestAutoTickEvictsQuietShard(t *testing.T) {
	tm, sm := models(t)
	epA, epB := shardedEndpoints(t)

	rng := rand.New(rand.NewSource(91))
	short := gamesim.Generate(0, gamesim.RandomConfig(rng), gamesim.LabNetwork(), 9100,
		gamesim.Options{SessionLength: time.Minute})
	long := gamesim.Generate(1, gamesim.RandomConfig(rng), gamesim.LabNetwork(), 9200,
		gamesim.Options{SessionLength: 2 * time.Minute})
	base := time.Date(2026, 7, 5, 8, 0, 0, 0, time.UTC)
	// Flow A (shard 0) stops at +15s; flow B (shard 1) runs to +60s, so
	// only B's packets can advance any clock past A's 15s TTL horizon.
	st := &gamesim.PacketStream{
		Flows:  [][]trace.Pkt{short.ExpandPackets(15 * time.Second), long.ExpandPackets(60 * time.Second)},
		Eps:    []gamesim.Endpoints{gamesim.FlowEndpoints(epA), gamesim.FlowEndpoints(epB)},
		Starts: []time.Time{base, base},
	}
	keyA := st.Key(0)

	reports := make(chan *core.SessionReport, 4)
	eng := engine.New(engine.Config{
		Shards:       2,
		Sink:         func(r *core.SessionReport) { reports <- r },
		TickInterval: 5 * time.Second,
		Pipeline:     core.Config{FlowTTL: 15 * time.Second},
	}, tm, sm)
	feedFrames(st, eng.Producer().HandleFrame)

	// A went idle at +15s, TTL expires at +30s, and B's traffic reaches
	// +60s: the automatic tick must have swept shard 0 during the replay.
	// The sweep runs asynchronously on the shard worker, so poll (with a
	// generous wall-clock deadline) — but call neither ExpireIdle nor
	// Finish until the eviction is observed.
	deadline := time.After(30 * time.Second)
	var evicted *core.SessionReport
	for evicted == nil {
		select {
		case r := <-reports:
			if r.Flow.Key == keyA {
				evicted = r
			} else {
				t.Fatalf("unexpected report for %v before Finish", r.Flow.Key)
			}
		case <-deadline:
			t.Fatal("quiet shard's flow never evicted by the automatic tick")
		}
	}
	if !evicted.Evicted {
		t.Error("auto-tick report not marked Evicted")
	}
	if stats := eng.Stats(); stats.EvictedFlows < 1 {
		t.Errorf("EvictedFlows = %d before Finish, want >= 1", stats.EvictedFlows)
	}

	final := eng.Finish()
	if len(final) != 2 {
		t.Fatalf("Finish returned %d reports, want 2 (A evicted + B finalized)", len(final))
	}
	for _, r := range final {
		if r.Flow.Key == keyA && !r.Evicted {
			t.Error("flow A re-reported as non-evicted by Finish")
		}
	}
}

// TestAutoTickDisabled pins the negative-TickInterval escape hatch: with
// ticks off, a quiet shard's flows survive the whole replay (the PR 2
// behavior) until a manual ExpireIdle.
func TestAutoTickDisabled(t *testing.T) {
	tm, sm := models(t)
	epA, epB := shardedEndpoints(t)

	rng := rand.New(rand.NewSource(93))
	short := gamesim.Generate(2, gamesim.RandomConfig(rng), gamesim.LabNetwork(), 9300,
		gamesim.Options{SessionLength: time.Minute})
	long := gamesim.Generate(3, gamesim.RandomConfig(rng), gamesim.LabNetwork(), 9400,
		gamesim.Options{SessionLength: 2 * time.Minute})
	base := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	st := &gamesim.PacketStream{
		Flows:  [][]trace.Pkt{short.ExpandPackets(15 * time.Second), long.ExpandPackets(60 * time.Second)},
		Eps:    []gamesim.Endpoints{gamesim.FlowEndpoints(epA), gamesim.FlowEndpoints(epB)},
		Starts: []time.Time{base, base},
	}

	eng := engine.New(engine.Config{
		Shards:       2,
		TickInterval: -1,
		Pipeline:     core.Config{FlowTTL: 15 * time.Second},
	}, tm, sm)
	p := eng.Producer()
	feedFrames(st, p.HandleFrame)
	p.Flush()
	// Drain, so the stats are exact, then check nothing was evicted.
	if stats := waitConsumed(t, eng); stats.EvictedFlows != 0 {
		t.Errorf("EvictedFlows = %d with ticks disabled, want 0", stats.EvictedFlows)
	}
	eng.Finish()
}

// TestRollupCheckpointIdenticalAcrossShards is the determinism half of the
// rollup contract: with eviction on, the order-normalized report set of an
// N-shard engine (Finish's sorted merge, pinned identical across N by the
// PR 1/2 equivalence tests) must produce a byte-identical rollup
// checkpoint for every N — per-subscriber windows don't care how the
// capture was sharded.
func TestRollupCheckpointIdenticalAcrossShards(t *testing.T) {
	tm, sm := models(t)
	rng := rand.New(rand.NewSource(57))
	flows := 8
	shardCounts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if race.Enabled {
		flows, shardCounts = 4, []int{1, 4, 8}
	}
	var sessions []*gamesim.Session
	for i := 0; i < flows; i++ {
		id := gamesim.TitleID(i % int(gamesim.NumTitles))
		sessions = append(sessions, gamesim.Generate(id, gamesim.RandomConfig(rng), gamesim.LabNetwork(),
			5100+int64(i)*19, gamesim.Options{SessionLength: 3 * time.Minute}))
	}
	// 45s flows starting 75s apart: every flow but the last goes idle a
	// full TTL before the capture ends, so the eviction verdicts are
	// deterministic regardless of sharding (the automatic tick sweeps on
	// the engine-wide clock).
	st := gamesim.NewPacketStream(sessions, 45*time.Second,
		time.Date(2026, 7, 6, 6, 0, 0, 0, time.UTC), 75*time.Second)

	var want []byte
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			eng := engine.New(engine.Config{
				Shards:   shards,
				Pipeline: core.Config{FlowTTL: 15 * time.Second},
			}, tm, sm)
			feedFrames(st, eng.Producer().HandleFrame)
			reports := eng.Finish() // order-normalized: sorted by (start, key)
			if len(reports) != flows {
				t.Fatalf("%d reports, want %d", len(reports), flows)
			}

			ru := rollup.New(rollup.Config{Window: time.Hour, Buckets: 12})
			for _, r := range reports {
				ru.Observe(rollup.FromReport(r))
			}
			if got := ru.Stats(); got.Ingested != int64(flows) || got.Late != 0 {
				t.Fatalf("rollup ingested %d late %d, want %d/0", got.Ingested, got.Late, flows)
			}
			var buf bytes.Buffer
			if err := ru.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
				// Sanity: distinct subscribers were attributed (each flow
				// has its own client address).
				if subs := ru.Subscribers(); len(subs) != flows {
					t.Fatalf("%d subscribers, want %d", len(subs), flows)
				}
				return
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("checkpoint diverged from 1-shard baseline:\n%s\nvs\n%s",
					want, buf.Bytes())
			}
		})
	}
}
