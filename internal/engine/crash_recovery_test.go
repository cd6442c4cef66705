package engine_test

// The failure-containment layer's engine-level tests.
//
// TestCrashRecoveryProperty is the PR's headline: replay a capture through
// the engine at every shard count 1..8, checkpoint the rollup on the
// packet clock, simulate a crash at a seeded checkpoint boundary (clean
// stop and torn-newest-generation flavors), recover, and require the
// restored rollup to be byte-identical to the uninterrupted run truncated
// at the recovery point — with the un-checkpointed tail provably bounded
// by one checkpoint interval plus one drain batch.
//
// TestEmitterSinkPanicSupervision is the sink-panic satellite: a user sink
// that panics mid-run must poison itself, not the emitter — Finish
// completes under -race and every report is delivered-or-counted.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/engine"
	"gamelens/internal/faultinject"
	"gamelens/internal/gamesim"
	"gamelens/internal/race"
	"gamelens/internal/rollup"
)

// recoveryStream builds the crash-recovery capture: staggered flows whose
// evictions and report End times advance packet time far enough for many
// bucket rotations. Returns the stream and its flow count.
func recoveryStream(t *testing.T) (*gamesim.PacketStream, int) {
	t.Helper()
	flows := 8
	if race.Enabled {
		flows = 4
	}
	rng := rand.New(rand.NewSource(58))
	var sessions []*gamesim.Session
	for i := 0; i < flows; i++ {
		id := gamesim.TitleID(i % int(gamesim.NumTitles))
		sessions = append(sessions, gamesim.Generate(id, gamesim.RandomConfig(rng), gamesim.LabNetwork(),
			5300+int64(i)*23, gamesim.Options{SessionLength: 3 * time.Minute}))
	}
	return gamesim.NewPacketStream(sessions, 45*time.Second,
		time.Date(2026, 7, 7, 6, 0, 0, 0, time.UTC), 75*time.Second), flows
}

// ckptRollupCfg gives 60-second buckets, so the 75-second flow stagger
// rotates the bucket index on essentially every report.
var ckptRollupCfg = rollup.Config{Window: 4 * time.Minute, Buckets: 4}

func TestCrashRecoveryProperty(t *testing.T) {
	tm, sm := models(t)
	st, flows := recoveryStream(t)
	shardCounts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if race.Enabled {
		shardCounts = []int{1, 4, 8}
	}
	width := int64(ckptRollupCfg.Window) / int64(ckptRollupCfg.Buckets)
	bucketOf := func(ts time.Time) int64 {
		idx := ts.UnixNano() / width
		if ts.UnixNano()%width != 0 && ts.UnixNano() < 0 {
			idx--
		}
		return idx
	}

	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			// Replay through the engine; Finish's order-normalized report
			// set is pinned identical across shard counts, so the entry
			// stream the checkpointer sees is the same at every N.
			eng := engine.New(engine.Config{
				Shards:   shards,
				Pipeline: core.Config{FlowTTL: 15 * time.Second},
			}, tm, sm)
			feedFrames(st, eng.Producer().HandleFrame)
			reports := eng.Finish()
			if len(reports) != flows {
				t.Fatalf("%d reports, want %d", len(reports), flows)
			}

			// Checkpointed run: fold the reports into a rollup one drain
			// batch at a time, ticking the checkpointer after each —
			// exactly what the emitter's Checkpoint hook does live, made
			// deterministic by driving the batches ourselves.
			dir := t.TempDir()
			base := filepath.Join(dir, "rollup.ckpt")
			ru := rollup.New(ckptRollupCfg)
			cp := rollup.NewCheckpointer(ru, rollup.CheckpointerConfig{
				Path: base, EveryBuckets: 1, Keep: -1, Backoff: -1,
			})
			prefix := map[uint64]int{} // generation -> entries covered
			var gen uint64
			maxAdv, lastIdx := int64(0), int64(-1) // clock buckets one batch advances
			for i, r := range reports {
				ru.ObserveReports(reports[i : i+1])
				idx := bucketOf(ru.Clock())
				if lastIdx >= 0 && idx-lastIdx > maxAdv {
					maxAdv = idx - lastIdx
				}
				lastIdx = idx
				wrote, err := cp.Tick()
				if err != nil {
					t.Fatalf("tick after report %d: %v", i, err)
				}
				if wrote {
					gen++
					prefix[gen] = i + 1
				}
				_ = r
			}
			if gen < 2 {
				t.Fatalf("only %d generations written; the property needs at least 2", gen)
			}

			// Every generation file is byte-identical to an uninterrupted,
			// unsharded run truncated at that generation's prefix — the
			// recovery-point guarantee, at every shard count.
			refAt := func(n int) []byte {
				ref := rollup.New(ckptRollupCfg)
				for _, r := range reports[:n] {
					ref.Observe(rollup.FromReport(r))
				}
				var buf bytes.Buffer
				if err := ref.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			clockAt := map[uint64]time.Time{}
			for g := uint64(1); g <= gen; g++ {
				got, err := os.ReadFile(fmt.Sprintf("%s.gen-%d", base, g))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, refAt(prefix[g])) {
					t.Errorf("generation %d diverges from the uninterrupted run truncated at entry %d", g, prefix[g])
				}
				r, err := rollup.Restore(bytes.NewReader(got))
				if err != nil {
					t.Fatal(err)
				}
				clockAt[g] = r.Clock()
			}

			// Loss bound: consecutive generations are at least EveryBuckets
			// (=1) bucket rotations apart (no spurious checkpoints) and at
			// most one interval plus one drain batch's clock advance — the
			// un-checkpointed tail a crash can lose.
			for g := uint64(2); g <= gen; g++ {
				gap := bucketOf(clockAt[g]) - bucketOf(clockAt[g-1])
				if gap < 1 {
					t.Errorf("generations %d->%d only %d buckets apart", g-1, g, gap)
				}
				if gap > maxAdv {
					t.Errorf("generations %d->%d are %d buckets apart, want <= interval+batch = %d",
						g-1, g, gap, maxAdv)
				}
			}

			// Crash flavor 1 — clean kill between checkpoints: recovery
			// lands exactly on the newest generation.
			rec, info, err := rollup.Recover(nil, base)
			if err != nil {
				t.Fatal(err)
			}
			if info.Generation != gen {
				t.Fatalf("recovered generation %d, want %d", info.Generation, gen)
			}
			var buf bytes.Buffer
			if err := rec.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), refAt(prefix[gen])) {
				t.Error("clean-crash recovery diverges from the truncated uninterrupted run")
			}

			// Crash flavor 2 — the newest generation is torn at a seeded
			// byte offset: recovery quarantines it and falls back one
			// generation, byte-identically.
			rng := rand.New(rand.NewSource(int64(4000 + shards)))
			newest := fmt.Sprintf("%s.gen-%d", base, gen)
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Intn(len(data))
			if err := os.WriteFile(newest, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			rec2, info2, err := rollup.Recover(nil, base)
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			if info2.Generation != gen-1 || len(info2.Quarantined) != 1 {
				t.Fatalf("cut=%d: recovered generation %d (quarantined %v), want fallback to %d",
					cut, info2.Generation, info2.Quarantined, gen-1)
			}
			buf.Reset()
			if err := rec2.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), refAt(prefix[gen-1])) {
				t.Errorf("cut=%d: torn-crash recovery diverges from the truncated uninterrupted run", cut)
			}
		})
	}
}

// TestEngineCheckpointHookLive wires a real Checkpointer into
// engine.Config.Checkpoint and lets the emitter drive it off live eviction
// drains: generations appear on disk during the replay, every one of them
// restores, and the engine counters agree with the checkpointer's own.
func TestEngineCheckpointHookLive(t *testing.T) {
	tm, sm := models(t)
	st, _ := recoveryStream(t)

	dir := t.TempDir()
	base := filepath.Join(dir, "rollup.ckpt")
	ru := rollup.New(ckptRollupCfg)
	cp := rollup.NewCheckpointer(ru, rollup.CheckpointerConfig{
		Path: base, EveryBuckets: 1, Keep: -1, Backoff: -1,
	})
	eng := engine.New(engine.Config{
		Shards:       2,
		BatchSink:    ru.ObserveReports,
		Checkpoint:   cp.Tick,
		StreamOnly:   true,
		Sink:         func(*core.SessionReport) {},
		TickInterval: 5 * time.Second,
		Pipeline:     core.Config{FlowTTL: 15 * time.Second},
	}, tm, sm)

	// Pace the replay on packet-time boundaries: before crossing each 60s
	// of capture time, wait for the emitter to drain what the evictions
	// queued, so drains (and therefore Checkpoint hook calls) happen at
	// distinct rollup clocks instead of one burst at Finish.
	var nextPause time.Time
	p := eng.Producer()
	feedFrames(st, func(ts time.Time, frame []byte) {
		if nextPause.IsZero() {
			nextPause = ts.Add(time.Minute)
		}
		if ts.After(nextPause) {
			nextPause = ts.Add(time.Minute)
			waitStats(t, eng, "the emitter to drain the report backlog",
				func(st engine.Stats) bool { return st.ReportBacklog == 0 })
		}
		p.HandleFrame(ts, frame)
	})
	eng.Finish()

	written, failed := cp.Generations()
	if written < 1 {
		t.Fatalf("no generations written by the live hook (failed=%d)", failed)
	}
	stats := eng.Stats()
	if stats.CheckpointGenerations != written || stats.CheckpointFailures != failed {
		t.Errorf("engine counters (gens %d, failures %d) disagree with checkpointer (%d, %d)",
			stats.CheckpointGenerations, stats.CheckpointFailures, written, failed)
	}
	for g := int64(1); g <= written; g++ {
		if _, err := rollup.LoadFile(nil, fmt.Sprintf("%s.gen-%d", base, g)); err != nil {
			t.Errorf("live generation %d does not restore: %v", g, err)
		}
	}
	// Final checkpoint covers the run's tail (the Finish-time reports the
	// hook deliberately does not checkpoint).
	if err := cp.Final(); err != nil {
		t.Fatal(err)
	}
	if _, err := rollup.LoadFile(nil, base); err != nil {
		t.Errorf("final checkpoint does not restore: %v", err)
	}
}

// TestEmitterSinkPanicSupervision is the sink-panic regression satellite:
// a per-report sink that panics on its 3rd report must not wedge the
// workers or deadlock Finish (this test runs under -race in the race
// gate), and every emitted report is delivered or counted dropped.
func TestEmitterSinkPanicSupervision(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	var delivered atomic.Int64
	sink := faultinject.PanicSink(func(*core.SessionReport) { delivered.Add(1) }, 3)
	eng := engine.New(engine.Config{
		Shards:      4,
		ReportQueue: 2, // tiny ring: a wedged emitter would deadlock the workers here
		Sink:        sink,
		StreamOnly:  true,
		Pipeline:    core.Config{FlowTTL: 15 * time.Second},
	}, tm, sm)
	feedFrames(st, eng.Producer().HandleFrame)
	if reports := eng.Finish(); reports != nil {
		t.Fatalf("StreamOnly Finish returned %d reports, want nil", len(reports))
	}

	stats := eng.Stats()
	n := int64(streamFlows)
	if stats.EmittedReports != n {
		t.Fatalf("EmittedReports = %d, want %d", stats.EmittedReports, n)
	}
	if stats.SinkPanics != 1 {
		t.Errorf("SinkPanics = %d, want 1", stats.SinkPanics)
	}
	// Exactly-once-or-counted: 2 delivered before the panic, the 3rd
	// consumed by the panic, the rest counted dropped.
	if delivered.Load() != 2 {
		t.Errorf("sink delivered %d reports before poisoning, want 2", delivered.Load())
	}
	if want := n - 3; stats.SinkDropped != want {
		t.Errorf("SinkDropped = %d, want %d", stats.SinkDropped, want)
	}
	if got := delivered.Load() + 1 + stats.SinkDropped; got != stats.EmittedReports {
		t.Errorf("delivered+panicked+dropped = %d, want EmittedReports %d", got, stats.EmittedReports)
	}
}

// TestEmitterBatchSinkPanicIsolated pins that a poisoned BatchSink does not
// take the per-report Sink down with it: the batch path stops after its
// panic, the report path keeps delivering everything.
func TestEmitterBatchSinkPanicIsolated(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	var delivered, batches atomic.Int64
	eng := engine.New(engine.Config{
		Shards:     2,
		Sink:       func(*core.SessionReport) { delivered.Add(1) },
		BatchSink:  faultinject.PanicBatchSink(func([]*core.SessionReport) { batches.Add(1) }, 1),
		StreamOnly: true,
	}, tm, sm)
	feedFrames(st, eng.Producer().HandleFrame)
	eng.Finish()

	stats := eng.Stats()
	if delivered.Load() != int64(streamFlows) {
		t.Errorf("per-report sink delivered %d, want all %d despite the batch sink panic", delivered.Load(), streamFlows)
	}
	if batches.Load() != 0 {
		t.Errorf("inner batch sink saw %d batches after the first panicked, want 0", batches.Load())
	}
	if stats.SinkPanics != 1 {
		t.Errorf("SinkPanics = %d, want 1", stats.SinkPanics)
	}
	if stats.SinkDropped != 0 {
		t.Errorf("SinkDropped = %d, want 0 (only the batch path was poisoned)", stats.SinkDropped)
	}
}

// TestCheckpointHookPanicPoisoned: a panicking Checkpoint hook counts one
// failure, is never called again, and the run completes.
func TestCheckpointHookPanicPoisoned(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	var calls atomic.Int64
	eng := engine.New(engine.Config{
		Shards:     2,
		Sink:       func(*core.SessionReport) {},
		StreamOnly: true,
		Checkpoint: func() (bool, error) {
			calls.Add(1)
			panic("checkpoint hook exploded")
		},
		Pipeline: core.Config{FlowTTL: 15 * time.Second},
	}, tm, sm)
	feedFrames(st, eng.Producer().HandleFrame)
	eng.Finish()

	stats := eng.Stats()
	if calls.Load() != stats.CheckpointFailures {
		t.Errorf("hook called %d times with %d failures counted; a poisoned hook is called exactly once",
			calls.Load(), stats.CheckpointFailures)
	}
	if calls.Load() > 1 {
		t.Errorf("poisoned hook called %d times, want at most 1", calls.Load())
	}
	if stats.CheckpointGenerations != 0 {
		t.Errorf("CheckpointGenerations = %d from a hook that never wrote", stats.CheckpointGenerations)
	}
}
