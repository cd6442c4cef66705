package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"gamelens"
	"gamelens/internal/core"
	"gamelens/internal/engine"
	"gamelens/internal/packet"
	"gamelens/internal/rollup"
	"gamelens/internal/rollup/store"
)

// Load model of every packet workload: closed loop, one client. A single
// generator goroutine owns one engine.Producer and feeds the schedule one
// chunk at a time; backpressure blocks (DropOverload off), so nothing is
// lost, and the engine runs max(1, nproc-1) shards so the box never has
// more busy threads than cores. A timed segment is "feed one chunk through
// Producer.HandleFrame, Flush, wait until the engine has processed every
// packet and delivered every report to the end of the sink path". Chunks are
// built between segments with the clock stopped.
//
// Work is fixed: every workload runs the number of timed segments frozen in
// its table entry, sized to take about nominalSeconds on the 2-core box the
// benchmark was defined on. The same seed therefore feeds the same packets
// and produces the same reports, counts and disk bytes on every box and
// every commit; a faster commit finishes the same work sooner. --seconds
// scales the segment count in proportion (the tests run a fortieth).

// nominalSeconds is BENCHMARK.json's run_seconds, the --seconds at which a
// run does exactly the frozen amount of work.
const nominalSeconds = 8

// minSegments is the fewest timed segments any run takes a median over.
const minSegments = 20

// scaleWork is how many of a workload's frozen units a run of the given
// --seconds does.
func scaleWork(units int, seconds float64) int {
	return max(minSegments, int(math.Round(float64(units)*seconds/nominalSeconds)))
}

// launchWindow is the deployment's launch window (core.Config's default),
// given explicitly to every pipeline the benchmark builds and to the stage
// trackers of the traced pass, so the two cannot disagree.
const launchWindow = 50 * time.Second

// packetWorkload is one tap workload.
type packetWorkload struct {
	name    string
	src     sourceConfig
	flowTTL time.Duration
	// warmChunks are fed untimed before the first segment (they count into
	// setup_s): they carry the flows past the 50 s launch window, or the
	// churn slots through their first full period.
	warmChunks int
	// segments is the frozen number of timed segments (one chunk each) of a
	// run at nominalSeconds.
	segments int
	// archive wires the sinks of `classify -rollup 1h -checkpoint F
	// -checkpoint-every 1 -archive DIR`; without it the sharded rollup
	// alone consumes the reports.
	archive bool
	// keys is the nominal number of keys the engine tracks at once (gaming
	// flows, subscribers, and background five-tuples once per IP version),
	// the divisor of heap_b_per_key.
	keys int
	// refEvery selects the flows the single-pipeline reference replays:
	// slot i is replayed when i%refEvery == 0. Flows are independent, so
	// the subset's reports must equal the engine's for those flows.
	refEvery int
}

var packetWorkloads = []*packetWorkload{
	{
		name:    "steady",
		src:     sourceConfig{flows: 256, sessions: 64, sessionLen: 3 * time.Minute, chunkShift: 29},
		flowTTL: 15 * time.Second, warmChunks: 100, segments: 180, keys: 256, refEvery: 4,
	},
	{
		name: "background",
		src: sourceConfig{flows: 64, sessions: 64, sessionLen: 3 * time.Minute, chunkShift: 28,
			bgPerChunk: 193000, bgTuples: 50000, bgFromChunk: 196},
		flowTTL: 5 * time.Second, warmChunks: 196 + 28, segments: 192, keys: 64 + 2*50000, refEvery: 1,
	},
	{
		name: "churn",
		src: sourceConfig{flows: 256, sessions: 130, sessionLen: 70 * time.Second, chunkShift: 29,
			churnPlay: 8 * time.Second, churnPeriod: 14 * time.Second},
		flowTTL: 5 * time.Second, warmChunks: 28, segments: 400, archive: true, keys: 256 + subscriberPool, refEvery: 4,
	},
}

// env is what a run needs from its surroundings.
type env struct {
	shards int
	tmp    string // scratch directory inside the checkout, removed at exit
	outDir string
	train  func() (*gamelens.Models, error)
}

// trainModels trains the classifiers the way cmd/classify does at start-up,
// on a corpus cut down (3 sessions per title, 5 minutes each, against
// classify's 6 x 20 min) so that set-up fits a run; the forests keep their
// deployed shape (500 / 100 / 100 trees, depth 10). The training seed is
// classify's default and does not follow -seed: the models are part of the
// program under test, not of its input.
func trainModels() (*gamelens.Models, error) {
	return gamelens.TrainModels(42, gamelens.TrainOptions{SessionsPerTitle: 3, SessionLength: 5 * time.Minute})
}

// setupTrainings is how many times a run trains the models: training is the
// noisiest part of set-up and the only part cheap to repeat, so setup_s takes
// the median training time.
const setupTrainings = 3

// timedTrain trains setupTrainings times and returns the last models with
// the median duration.
func timedTrain(e *env) (*gamelens.Models, time.Duration, error) {
	var models *gamelens.Models
	var took []float64
	for i := 0; i < setupTrainings; i++ {
		t0 := now()
		m, err := e.train()
		if err != nil {
			return nil, 0, err
		}
		took = append(took, float64(since(t0)))
		models = m
	}
	return models, time.Duration(median(took)), nil
}

// outcome is what one run of one workload produced.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
	segments  int
	perf      []perfRow // the traced pass's cost table, for PERF.md
}

// perfRow is one line of the per-layer cost table: a layer's mean cost per
// call, how many calls one unit of work (a frame, or a report) makes, and
// their product. Rows of depth 1 and 2 are parts of the nearest shallower
// row above them; only depth-0 rows are summed.
type perfRow struct {
	Layer     string
	NsPerCall float64
	PerUnit   float64
	Depth     int
}

func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// packetRun carries one packet workload through its passes.
type packetRun struct {
	w      *packetWorkload
	env    *env
	src    *source
	models *gamelens.Models
	out    *outcome

	scratch string               // this run's own directory under env.tmp
	got     []core.SessionReport // every report the engine delivered, in delivery order
	chunks  int64                // chunks fed to the engine, warm-up included
	tr      *tracer
}

// runPacket runs one packet workload: the engine pass and its output checks,
// and with trace set the single-goroutine traced pass as well.
func runPacket(w *packetWorkload, e *env, seed int64, seconds float64, trace bool) (*outcome, error) {
	r := &packetRun{w: w, env: e, out: &outcome{metrics: map[string]float64{}}}
	scratch, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	r.scratch = scratch
	cfg := w.src
	cfg.keepSessions = trace // the traced pass replays the sessions' own slots and launch records
	t0 := now()
	r.src = newSource(cfg, seed)
	r.out.metrics["gen.build_s"] = since(t0).Seconds()
	timed := scaleWork(w.segments, seconds)
	if trace {
		// A traced run does a third of the segments in the engine pass
		// (engine.* metrics) and replays exactly those chunks on one
		// goroutine in the traced pass (everything per layer).
		timed = max(minSegments, timed/3)
		r.tr = newTracer(fmt.Sprintf("%s/seed=%d", w.name, seed))
	}
	if err := r.enginePass(timed); err != nil {
		return nil, err
	}
	if err := r.checkOutputs(); err != nil {
		return nil, err
	}
	if trace {
		if err := r.tracedPass(); err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(e.outDir, w.name+".trace.json")); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

// enginePass is the end-to-end measurement: set-up, warm-up, then the given
// number of timed segments.
func (r *packetRun) enginePass(timed int) error {
	w, m := r.w, r.out.metrics
	r.got = make([]core.SessionReport, 0, 1<<16)

	// Set-up, as a user of classify sees it: train, construct, warm up.
	models, setup, err := timedTrain(r.env)
	if err != nil {
		return err
	}
	r.models = models
	base := liveHeap()

	t0 := now()
	ru := rollup.NewSharded(r.env.shards, rollup.Config{Window: time.Hour})
	var arch *store.Store
	var cp *rollup.Checkpointer
	archDir := filepath.Join(r.scratch, "archive")
	if w.archive {
		if arch, err = store.Open(store.Config{Dir: archDir}); err != nil {
			return err
		}
		cp = rollup.NewCheckpointer(ru, rollup.CheckpointerConfig{
			Path: filepath.Join(r.scratch, "rollup.ckpt"), EveryBuckets: 1, Archive: arch,
		})
	}
	var sinkCalls, sinkReports int64
	var foldNs, archNs time.Duration
	var ticks tickSamples
	// settled is how many reports have been through the whole sink path. The
	// emitter pops reports off the ring before it calls Sink, BatchSink and
	// the Checkpoint hook, so an empty ring does not mean the sinks are done;
	// the last callback of a drain publishes the count here instead, and a
	// segment ends only once it equals the flows evicted. The atomic store
	// also orders the emitter's writes (r.got, the counters above) before
	// the generator goroutine's reads.
	var settled atomic.Int64
	cfg := engine.Config{
		Shards:     r.env.shards,
		Pipeline:   core.Config{FlowTTL: w.flowTTL, LaunchWindow: launchWindow},
		StreamOnly: true,
		Sink:       func(rep *core.SessionReport) { r.got = append(r.got, *rep) },
		BatchSink: func(reports []*core.SessionReport) {
			sinkCalls++
			sinkReports += int64(len(reports))
			t := now()
			ru.ObserveReports(reports)
			foldNs += since(t)
			if arch != nil {
				t = now()
				arch.ObserveReports(reports)
				archNs += since(t)
			}
			if cp == nil {
				settled.Store(sinkReports)
			}
		},
	}
	if cp != nil {
		cfg.Checkpoint = func() (bool, error) {
			t := now()
			wrote, err := cp.Tick()
			ticks.record(wrote, since(t))
			settled.Store(sinkReports)
			return wrote, err
		}
	}
	eng := engine.New(cfg, models.Title, models.Stage)
	p := eng.Producer()
	setup += since(t0)

	src := r.src
	src.reset()
	drain := func() engine.Stats {
		p.Flush()
		for {
			// A shard publishes its eviction count before it counts a batch
			// processed, so once every packet is processed EvictedFlows is
			// the number of reports this segment owes the sinks.
			st := eng.Stats()
			if st.Processed+st.Dropped == st.PacketsIn && settled.Load() == st.EvictedFlows {
				return st
			}
			pause(20 * time.Microsecond)
		}
	}
	for i := 0; i < w.warmChunks; i++ {
		recs := src.nextChunk()
		t0 = now()
		src.feed(recs, p.HandleFrame)
		drain()
		setup += since(t0)
	}
	m["setup_s"] = setup.Seconds()
	warmReports := int64(len(r.got))

	// Timed segments.
	var segs segments
	var fedNs []float64
	var backlogMax int
	var last []rec
	mallocs0, bytes0 := memCounters()
	for len(segs.opsPerS) < timed {
		recs := src.nextChunk()
		c0, t0 := cpuTime(), now()
		src.feed(recs, p.HandleFrame)
		fed := since(t0)
		backlogMax = max(backlogMax, eng.Stats().ReportBacklog)
		drain()
		segs.add(len(recs), since(t0), cpuTime()-c0)
		fedNs = append(fedNs, float64(fed)/float64(len(recs)))
		last = recs
	}
	mallocs1, bytes1 := memCounters()
	timedPackets := segs.ops
	timedReports := int64(len(r.got)) - warmReports
	r.chunks = src.chunk
	r.out.segments = len(segs.opsPerS)

	// The generator's own cost, to take out of the hand-off figure: the
	// fastest of a few feeds into a no-op handler, as for any fixed cost.
	genNs := quantile(timeCalls(9, func() { src.feed(last, func(time.Time, []byte) {}) }), 0) * 1e6 / float64(len(last))
	peak := liveHeap()

	live := eng.Stats()
	end := epoch.Add(time.Duration(src.chunk << w.src.chunkShift))
	t0 = now()
	eng.ExpireIdle(end) // one last sweep at a known instant, so eviction flags are comparable
	p.Close()
	eng.Finish()
	finish := since(t0)
	if cp != nil {
		if err := cp.Final(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
	}
	st := eng.Stats()

	segs.publish(m)
	m["heap_b_per_key"] = float64(int64(peak)-int64(base)) / float64(w.keys)
	m["wl.pkts_per_s"], m["wl.cpu_ns_per_pkt"], m["wl.heap_b_per_flow"] = m["ops_per_s"], m["cpu_ns_per_op"], m["heap_b_per_key"]
	m["wl.reports_per_s"] = float64(timedReports) / segs.wall.Seconds()

	m["gen.ns_per_pkt"] = genNs
	m["engine.handoff_ns"] = median(fedNs) - genNs
	m["engine.producer_busy_share"] = ratio(sum(fedNs), sum(segs.nsPerOp))
	m["engine.wall_ns_per_pkt"] = median(segs.nsPerOp) // not a published metric; the traced pass divides by it
	m["engine.allocs_per_kpkt"] = float64(mallocs1-mallocs0) / float64(timedPackets) * 1000
	m["engine.bytes_per_kpkt"] = float64(bytes1-bytes0) / float64(timedPackets) * 1000
	m["engine.finish_ms"] = ms(finish)
	m["engine.sink_calls"] = float64(sinkCalls)
	m["engine.sink_batch_mean"] = ratio(float64(sinkReports), float64(sinkCalls))
	m["engine.report_backlog_max"] = float64(backlogMax)
	var batchSum, flowMax, flowSum float64
	for i := range live.ShardBatch {
		batchSum += float64(live.ShardBatch[i])
		flowSum += float64(live.ShardFlows[i])
		flowMax = max(flowMax, float64(live.ShardFlows[i]))
	}
	m["engine.shard_batch"] = batchSum / float64(len(live.ShardBatch))
	m["engine.shard_skew"] = ratio(flowMax*float64(len(live.ShardFlows)), flowSum)
	m["engine.packets_in"] = float64(st.PacketsIn)
	m["engine.processed"] = float64(st.Processed)
	m["engine.dropped"] = float64(st.Dropped)
	m["engine.decode_errors"] = float64(st.DecodeErrors)
	m["engine.flows"] = float64(st.Flows())
	m["engine.evicted"] = float64(st.EvictedFlows)
	m["engine.emitted"] = float64(st.EmittedReports)
	m["engine.recycled"] = float64(st.RecycledReports)
	m["packet.decode_err_share"] = ratio(float64(st.DecodeErrors), float64(st.PacketsIn))

	m["rollup.fold_ns"] = ratio(float64(foldNs), float64(sinkReports))
	m["store.observe_ns"] = ratio(float64(archNs), float64(sinkReports))
	m["rollup.checkpoints"], m["rollup.checkpoint_failures"] = float64(st.CheckpointGenerations), float64(st.CheckpointFailures)
	ticks.publish(m)
	sinkMetrics(m, ru, arch, archDir, end)

	// Output checks on the counters.
	out := r.out
	out.attempted = st.PacketsIn
	out.fail(st.Dropped, "engine dropped %d packets", st.Dropped)
	out.fail(abs64(st.PacketsIn-st.Processed-st.Dropped), "Processed %d + Dropped %d != PacketsIn %d", st.Processed, st.Dropped, st.PacketsIn)
	out.fail(abs64(st.PacketsIn-src.Packets), "engine saw %d packets, the schedule holds %d", st.PacketsIn, src.Packets)
	out.fail(abs64(st.DecodeErrors-src.Truncated), "DecodeErrors %d != %d injected", st.DecodeErrors, src.Truncated)
	out.fail(abs64(st.EmittedReports-int64(len(r.got))), "EmittedReports %d != %d delivered", st.EmittedReports, len(r.got))
	out.fail(st.SinkPanics+st.SinkDropped+st.CheckpointFailures, "supervision counters non-zero: %d panics, %d dropped, %d checkpoint failures",
		st.SinkPanics, st.SinkDropped, st.CheckpointFailures)

	// Merged sharded rollup == unsharded reference; archive total == plain sum.
	ref := rollup.New(rollup.Config{Window: time.Hour})
	var refTotal rollup.Counts
	for i := range r.got {
		e := rollup.FromReport(&r.got[i])
		ref.Observe(e)
		refTotal.Add(e)
	}
	return checkSinks(out, ru, ref, arch, refTotal, end)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// sameCounts compares two aggregates through their JSON form: counts, maps
// and sketch cells exactly, float sums to a relative 1e-9 (the archive adds
// per cell and then across cells, the reference in arrival order, and float
// addition does not associate).
func sameCounts(a, b rollup.Counts) bool {
	var va, vb any
	for _, p := range []struct {
		c *rollup.Counts
		v *any
	}{{&a, &va}, {&b, &vb}} {
		j, err := json.Marshal(p.c)
		if err != nil || json.Unmarshal(j, p.v) != nil {
			return false
		}
	}
	return sameJSON(va, vb)
}

func sameJSON(a, b any) bool {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !sameJSON(v, w) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameJSON(x[i], y[i]) {
				return false
			}
		}
		return true
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	default:
		return a == b
	}
}

// checkOutputs replays the subset of flows the workload names through one
// single-goroutine core.Pipeline on the same schedule and compares its
// reports, order-normalised, with what the engine delivered for those flows.
// It also scores title decisions against the generator's ground truth.
func (r *packetRun) checkOutputs() error {
	w, src, out := r.w, r.src, r.out
	idents := map[packet.FlowKey]int{}
	lives := 1
	for _, c := range src.cycle {
		lives = max(lives, c+1)
	}
	for ident := 0; ident < lives*w.src.flows; ident++ {
		idents[flowKey(ident)] = ident
	}
	inSubset := func(ident int) bool { return ident%w.src.flows%w.refEvery == 0 }

	want := map[packet.FlowKey]core.SessionReport{}
	pipe := core.New(core.Config{FlowTTL: w.flowTTL, LaunchWindow: launchWindow, Sink: func(rep *core.SessionReport) {
		want[rep.Flow.Key] = *rep
	}}, r.models.Title, r.models.Stage)
	src.reset()
	var dec packet.Decoded
	for c := int64(0); c < r.chunks; c++ {
		recs := src.nextChunk()
		for i := range recs {
			rc := &recs[i]
			if rc.kind() > kindUp || !inSubset(src.flows[rc.id()].ident) {
				continue
			}
			if err := packet.Decode(src.frame(rc), &dec); err != nil {
				return fmt.Errorf("reference decode: %w", err)
			}
			pipe.HandlePacket(epoch.Add(time.Duration(rc.ts)), &dec, dec.Payload)
		}
	}
	pipe.ExpireIdle(epoch.Add(time.Duration(src.chunk << w.src.chunkShift)))
	pipe.Finish()

	var compared, differing, known, right int64
	for i := range r.got {
		g := &r.got[i]
		ident, ok := idents[g.Flow.Key]
		if !ok {
			out.fail(1, "engine reported an unscheduled flow %v", g.Flow.Key)
			continue
		}
		if g.Title.Known {
			known++
			if g.Title.Title == src.truth(ident) {
				right++
			}
		}
		if !inSubset(ident) {
			continue
		}
		compared++
		ref, ok := want[g.Flow.Key]
		if !ok || !sameReport(g, &ref) {
			differing++
		}
		delete(want, g.Flow.Key)
	}
	out.attempted += compared + int64(len(want))
	out.fail(differing, "%d of %d engine reports differ from the single-pipeline reference", differing, compared)
	out.fail(int64(len(want)), "%d reference reports missing from the engine's output", len(want))
	out.metrics["wl.title_acc"] = ratio(float64(right), float64(known))
	out.metrics["titleclass.known_share"] = ratio(float64(known), float64(len(r.got)))
	// A floor, not a metric bound: accuracy moves with the seed, but a
	// change that breaks title classification must not pass as "correct".
	if w.archive && known > 100 && float64(right) < 0.9*float64(known) {
		out.fail(known-right, "title accuracy %.3f below the 0.9 floor", float64(right)/float64(known))
	}
	return nil
}

// sameReport compares two reports of one flow field by field; the detector's
// flow record is compared by value.
func sameReport(a, b *core.SessionReport) bool {
	if *a.Flow != *b.Flow {
		return false
	}
	x, y := *a, *b
	x.Flow, y.Flow = nil, nil
	return x == y
}

// dirSize sums the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// numShards is the load model's shard count.
func numShards() int { return max(1, runtime.NumCPU()-1) }
