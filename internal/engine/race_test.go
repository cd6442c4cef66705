package engine_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/engine"
	"gamelens/internal/gamesim"
	"gamelens/internal/race"
)

// TestConcurrentHandleFrame hammers one engine from many goroutines (one
// per flow, each with its own Producer — the deployment shape) while
// another goroutine polls Stats, then checks the counters and merged
// reports are coherent. Run it under
// `go test -race ./internal/engine` — that race pass is the point.
func TestConcurrentHandleFrame(t *testing.T) {
	tm, sm := models(t)
	const shards = 4
	flows, sessLen, expand := 12, 2*time.Minute, 75*time.Second
	if race.Enabled {
		flows, sessLen, expand = 6, time.Minute, 40*time.Second
	}
	eng := engine.New(engine.Config{
		Shards: shards, BatchSize: 16, QueueDepth: 8,
	}, tm, sm)

	base := time.Date(2026, 3, 2, 12, 0, 0, 0, time.UTC)
	var fed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1200 + int64(i)))
			s := gamesim.Generate(gamesim.TitleID(i%int(gamesim.NumTitles)),
				gamesim.RandomConfig(rng), gamesim.LabNetwork(),
				1200+int64(i)*17, gamesim.Options{SessionLength: sessLen})
			start := base.Add(time.Duration(i) * 311 * time.Millisecond)
			p := eng.Producer()
			defer p.Close()
			gamesim.ReplayFlowFrames(s.ExpandPackets(expand), gamesim.FlowEndpoints(i), start, func(ts time.Time, frame []byte) {
				p.HandleFrame(ts, frame)
				fed.Add(1)
			})
		}(i)
	}

	// Concurrent observer: live Stats reads must be race-free against the
	// producers.
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := eng.Stats()
				if st.PacketsIn < 0 || st.Dropped != 0 {
					t.Error("incoherent live stats")
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	wg.Wait()
	close(stop)
	obs.Wait()
	reports := eng.Finish()

	stats := eng.Stats()
	if stats.PacketsIn != fed.Load() {
		t.Errorf("PacketsIn = %d, want %d", stats.PacketsIn, fed.Load())
	}
	if len(reports) != flows {
		t.Fatalf("got %d session reports, want %d", len(reports), flows)
	}
	seen := make(map[string]bool)
	for _, r := range reports {
		key := r.Flow.Key.String()
		if seen[key] {
			t.Errorf("flow %s reported twice", key)
		}
		seen[key] = true
	}
	if got := stats.Flows(); got != flows {
		t.Errorf("Stats.Flows() = %d, want %d", got, flows)
	}
}

// TestConcurrentSinkConsumer is the lifecycle stress: many goroutines, each
// with its own Producer, feed an engine whose pipelines evict on a short
// TTL, while the merged sink hands every report to a separate consumer
// goroutine over a channel and another goroutine polls the lifecycle
// counters. Run under
// `go test -race ./internal/engine` — shard workers pushing report rings
// concurrently with producers, the emitter invoking the sink, the
// consumer, and Stats readers is exactly the surface the report path's
// atomics must cover.
func TestConcurrentSinkConsumer(t *testing.T) {
	tm, sm := models(t)
	const shards = 4
	flows := 12
	if race.Enabled {
		flows = 8
	}
	reports := make(chan *core.SessionReport, flows)
	// The TTL must exceed each phase's 30s packet-time window: producers
	// replay at wall speed, so within a phase one flow's packet clock can
	// run the full window ahead of another's, and a tighter TTL would
	// evict a flow its producer is still feeding (yielding a duplicate
	// session — real behavior for a flow idle past the TTL, but not what
	// this test pins).
	eng := engine.New(engine.Config{
		Shards: shards, BatchSize: 16, QueueDepth: 8,
		Sink: func(r *core.SessionReport) { reports <- r },
		Pipeline: core.Config{
			FlowTTL:       45 * time.Second,
			SweepInterval: 5 * time.Second,
		},
	}, tm, sm)

	// Consumer: drain the report stream as it is produced.
	var consumed sync.WaitGroup
	consumed.Add(1)
	seen := map[string]int{}
	var evictedSeen int
	go func() {
		defer consumed.Done()
		for r := range reports {
			seen[r.Flow.Key.String()]++
			if r.Evicted {
				evictedSeen++
			}
		}
	}()

	base := time.Date(2026, 3, 2, 14, 0, 0, 0, time.UTC)
	// Two waves of concurrent producers: the first wave's flows all end by
	// base+30s; the second starts at base+90s, past the first wave's TTL
	// horizon, so its packets drive eviction of first-wave sessions while
	// second-wave producers, the consumer, and the Stats poller all run.
	replayWave := func(lo, hi int, start time.Time) {
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(1400 + int64(i)))
				s := gamesim.Generate(gamesim.TitleID(i%int(gamesim.NumTitles)),
					gamesim.RandomConfig(rng), gamesim.LabNetwork(),
					1400+int64(i)*23, gamesim.Options{SessionLength: time.Minute})
				p := eng.Producer()
				defer p.Close()
				gamesim.ReplayFlowFrames(s.ExpandPackets(30*time.Second), gamesim.FlowEndpoints(200+i), start, p.HandleFrame)
			}(i)
		}
		wg.Wait()
		// A wave is over once the shards have consumed it: the next wave's
		// sweeps travel other producers' lanes and must find these flows
		// whole, not overtake their queued tails.
		waitConsumed(t, eng)
	}

	// Observer: live lifecycle counters must stay coherent while flows
	// are created and evicted underneath. Emission is asynchronous (the
	// emitter drains the shard report rings), so a live read may see an
	// evicted flow whose report is still queued: the invariant is
	// EmittedReports + ReportBacklog >= EvictedFlows. Even that read is
	// three counters sampled at different instants — the emitter can hold
	// reports it has popped but not yet counted — so an apparent violation
	// only fails the test if it persists across re-reads (a real lost
	// report never recovers; sampling skew resolves in microseconds).
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	coherent := func(st engine.Stats) bool {
		return st.ActiveFlows >= 0 && st.EvictedFlows >= 0 &&
			st.EmittedReports+int64(st.ReportBacklog) >= st.EvictedFlows
	}
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if st := eng.Stats(); !coherent(st) {
					deadline := time.Now().Add(2 * time.Second)
					for !coherent(eng.Stats()) {
						if time.Now().After(deadline) {
							t.Errorf("incoherent lifecycle stats: %+v", eng.Stats())
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	replayWave(0, flows/2, base)
	replayWave(flows/2, flows, base.Add(90*time.Second))
	close(stop)
	obs.Wait()
	final := eng.Finish()
	close(reports)
	consumed.Wait()

	if len(final) != flows {
		t.Fatalf("Finish returned %d reports, want %d", len(final), flows)
	}
	if len(seen) != flows {
		t.Fatalf("consumer saw %d distinct flows, want %d", len(seen), flows)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("flow %s delivered %d times", key, n)
		}
	}
	stats := eng.Stats()
	if stats.EmittedReports != int64(flows) {
		t.Errorf("EmittedReports = %d, want %d", stats.EmittedReports, flows)
	}
	if int(stats.EvictedFlows) != evictedSeen {
		t.Errorf("Stats.EvictedFlows = %d but consumer saw %d evicted reports", stats.EvictedFlows, evictedSeen)
	}
}

// TestDropOverload exercises the load-shedding path: a deliberately starved
// queue must drop batches, count them, and still finish cleanly with
// coherent counters.
func TestDropOverload(t *testing.T) {
	tm, sm := models(t)
	eng := engine.New(engine.Config{
		Shards: 2, BatchSize: 2, QueueDepth: 1, DropOverload: true,
	}, tm, sm)

	base := time.Date(2026, 3, 2, 13, 0, 0, 0, time.UTC)
	var fed int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1300 + int64(i)))
			s := gamesim.Generate(gamesim.TitleID(i%int(gamesim.NumTitles)),
				gamesim.RandomConfig(rng), gamesim.LabNetwork(),
				1300+int64(i)*7, gamesim.Options{SessionLength: time.Minute})
			start := base.Add(time.Duration(i) * 97 * time.Millisecond)
			n := int64(0)
			p := eng.Producer()
			defer p.Close()
			gamesim.ReplayFlowFrames(s.ExpandPackets(30*time.Second), gamesim.FlowEndpoints(100+i), start, func(ts time.Time, frame []byte) {
				p.HandleFrame(ts, frame)
				n++
			})
			atomic.AddInt64(&fed, n)
		}(i)
	}
	wg.Wait()
	eng.Finish()

	stats := eng.Stats()
	if stats.PacketsIn != fed {
		t.Errorf("PacketsIn = %d, want %d", stats.PacketsIn, fed)
	}
	if stats.Dropped < 0 || stats.Dropped > fed {
		t.Errorf("Dropped = %d out of range [0, %d]", stats.Dropped, fed)
	}
	// Every fed packet must be accounted for exactly once: consumed by a
	// shard pipeline or counted as shed.
	if stats.Processed+stats.Dropped != fed {
		t.Errorf("processed %d + dropped %d != fed %d", stats.Processed, stats.Dropped, fed)
	}
}

// TestEngineExpireIdleConcurrent drives Engine.ExpireIdle the way an
// operator does: from a goroutine of its own while several Producers feed.
// Its first call lands mid-run, so the control-only lane registers through
// the copy-on-write addQueue path with the workers already draining. The
// mid-run sweeps sit inside every flow's TTL horizon and must evict
// nothing; the last one, after the producers closed and the shards drained,
// evicts everything. Every flow is reported exactly once, the packet
// accounting balances, and a call after Finish is a no-op. Run under
// `go test -race ./internal/engine`.
func TestEngineExpireIdleConcurrent(t *testing.T) {
	tm, sm := models(t)
	flows := 6
	if race.Enabled {
		flows = 3
	}
	const ttl = 45 * time.Second
	seen := map[string]int{} // emitter-goroutine property until Finish returns
	notEvicted := 0
	eng := engine.New(engine.Config{
		Shards: 4, BatchSize: 16, QueueDepth: 8,
		Sink: func(r *core.SessionReport) {
			seen[r.Flow.Key.String()]++
			if !r.Evicted {
				notEvicted++
			}
		},
		Pipeline: core.Config{FlowTTL: ttl, SweepInterval: 5 * time.Second},
	}, tm, sm)

	base := time.Date(2026, 3, 2, 15, 0, 0, 0, time.UTC)
	var fed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1500 + int64(i)))
			s := gamesim.Generate(gamesim.TitleID(i%int(gamesim.NumTitles)),
				gamesim.RandomConfig(rng), gamesim.LabNetwork(),
				1500+int64(i)*29, gamesim.Options{SessionLength: time.Minute})
			p := eng.Producer()
			defer p.Close()
			gamesim.ReplayFlowFrames(s.ExpandPackets(30*time.Second), gamesim.FlowEndpoints(300+i), base, func(ts time.Time, frame []byte) {
				p.HandleFrame(ts, frame)
				fed.Add(1)
			})
		}(i)
	}

	// The operator: once packets are flowing, sweep repeatedly at an instant
	// less than one TTL past the capture's first packet — no flow, however
	// far its producer lags, is idle that long.
	stop := make(chan struct{})
	var op sync.WaitGroup
	op.Add(1)
	go func() {
		defer op.Done()
		for eng.Stats().Processed == 0 {
			select {
			case <-stop:
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		for {
			eng.ExpireIdle(base.Add(ttl - time.Second))
			select {
			case <-stop:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()

	wg.Wait()
	close(stop)
	op.Wait()
	if st := waitConsumed(t, eng); st.EvictedFlows != 0 {
		t.Errorf("mid-run sweeps evicted %d live flows", st.EvictedFlows)
	}
	eng.ExpireIdle(base.Add(10 * time.Minute))
	waitStats(t, eng, "the final sweep to evict every flow",
		func(st engine.Stats) bool { return st.EvictedFlows == int64(flows) })
	reports := eng.Finish()

	if len(reports) != flows || len(seen) != flows {
		t.Fatalf("Finish returned %d reports, sink saw %d distinct flows, want %d", len(reports), len(seen), flows)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("flow %s reported %d times", key, n)
		}
	}
	if notEvicted != 0 {
		t.Errorf("%d reports not marked Evicted after the final sweep", notEvicted)
	}
	stats := eng.Stats()
	if stats.PacketsIn != fed.Load() || stats.Processed+stats.Dropped != stats.PacketsIn || stats.Dropped != 0 {
		t.Errorf("accounting: in=%d processed=%d dropped=%d, fed %d", stats.PacketsIn, stats.Processed, stats.Dropped, fed.Load())
	}

	// After Finish the sweep has no workers to reach: it must return at
	// once, however often it is called, and count nothing.
	for i := 0; i < 1000; i++ {
		eng.ExpireIdle(base.Add(time.Hour))
	}
	if after := eng.Stats(); after.Dropped != 0 || after.PacketsIn != stats.PacketsIn || after.EmittedReports != stats.EmittedReports {
		t.Errorf("ExpireIdle after Finish moved the counters: %+v", after)
	}
}
