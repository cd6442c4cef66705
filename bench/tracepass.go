package main

import (
	"math"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/features"
	"gamelens/internal/flowdetect"
	"gamelens/internal/mlkit"
	"gamelens/internal/packet"
	"gamelens/internal/qoe"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// The traced pass replays the chunks the engine pass ran on one goroutine
// through PeekFlow → Decode → core.Pipeline.HandlePacket in batches of
// traceBatch frames, alternating two treatments batch by batch so both see
// the same traffic and the same pipeline state:
//
//   - fused, untraced: Decode and HandlePacket back to back per frame, one
//     span around the batch. Its ns per frame is core.single_ns_per_pkt,
//     the stream baseline.
//   - split, traced: one span per layer call-group over the batch (peek,
//     decode, handle), then the layers HandlePacket calls into, each run in
//     isolation by the replay below and recorded as a child span of the
//     handle span.
//
// What reconciles is the split decode + handle against the fused figure
// (core.residual_share). Inside the handle span, core.self_ns is what is left
// after the isolated children — a remainder by definition, not a measurement.
const traceBatch = 4096

// sessionInputs is what one generated session gives the isolation loops, all
// of it through exported functions of the layers themselves.
type sessionInputs struct {
	wide     []trace.Slot  // trace.Rebin(Slots, I): the slots a stage tracker is pushed
	qos      []qoe.SlotQoS // qoe.EstimateSessionQoS: the QoS of each of those slots
	ctx      []qoe.Context // the grading context of each slot, built as qoe.GradeSession builds it
	launch   []trace.Pkt   // the launch records inside the title window
	loopFrom int           // first slot past the launch stage: a flow that outlives its session loops from here, as the schedule does
}

// at maps a flow's k-th slot to an index into the session's series.
func (in *sessionInputs) at(k int) int {
	if k < len(in.wide) {
		return k
	}
	return in.loopFrom + (k-in.loopFrom)%(len(in.wide)-in.loopFrom)
}

// rflow is one gaming-flow slot of the schedule as the replay sees it: the
// real per-flow objects the pipeline keeps under HandlePacket and a cursor
// into the session the flow plays.
type rflow struct {
	ident   int
	in      *sessionInputs
	next    int // next slot of the session to push
	titled  bool
	tracker *stageclass.Tracker
	ext     *features.StageFeatureExtractor
}

// dueSlot is one slot waiting for its isolation loops.
type dueSlot struct {
	flow  int32
	k     int32 // index into the flow's sessionInputs
	stage stageclass.StageResult
	vec   [features.NumStageAttrs]float64
}

// replay runs the layers under HandlePacket in isolation from the
// generator's side. It copies no pipeline state: which session a flow plays,
// when it began and when it falls silent are the schedule's own records, and
// the inputs are the sessions' own slots and launch records. Per flow it
// holds a real stage tracker and feature extractor and pushes them one slot
// per I of packet time the flow has played — the rate at which the pipeline
// closes slots on the same schedule — and queues one title decision per
// flow once it has played its title window.
type replay struct {
	src    *source
	det    *flowdetect.Detector
	stages *stageclass.Classifier
	titles *titleclass.Classifier
	inputs map[*sessData]*sessionInputs
	flows  []rflow
	slot   int64 // the tracker's slot width I
	window int64 // the title classifier's window

	due      []dueSlot
	dueTitle [][]trace.Pkt

	observed, gaming, pushes int64
	titleSc                  titleclass.Scratch
	attrs                    [features.NumLaunchAttrs]float64
	titleProbs, stageProbs   []float64
	sink                     float64
}

func newReplay(src *source, titles *titleclass.Classifier, stages *stageclass.Classifier) *replay {
	i := stages.Config().Volumetric.I
	window := titles.Config().Window
	r := &replay{
		src: src, det: flowdetect.New(flowdetect.Config{}), stages: stages, titles: titles,
		inputs: map[*sessData]*sessionInputs{}, flows: make([]rflow, len(src.flows)),
		slot: int64(i), window: int64(window),
		titleProbs: make([]float64, titles.Model().NumClasses()),
		stageProbs: make([]float64, stages.StageModel().NumClasses()),
	}
	for _, d := range src.sess {
		gs := d.gs
		qs := qoe.EstimateSessionQoS(gs, i)
		ctx := make([]qoe.Context, len(qs))
		for k := range ctx {
			ctx[k] = qoe.Context{
				Demand: gs.Title.Demand, Stage: trace.StageAt(gs.Spans, time.Duration(k)*i),
				SettingsMbps: gs.PeakDownMbps, SettingsFPS: float64(gs.Config.FPS),
			}
		}
		n := 0
		for n < len(gs.Launch) && gs.Launch[n].T < window {
			n++
		}
		wide := trace.Rebin(gs.Slots, i)
		from := int((gs.LaunchEnd() + i - 1) / i)
		r.inputs[d] = &sessionInputs{wide: wide, qos: qs, ctx: ctx, launch: gs.Launch[:n], loopFrom: min(from, len(wide)-1)}
	}
	return r
}

// observe is the isolated flowdetect.Observe loop: a detector of its own over
// a decoded batch, with the verdicts counted after the span has closed.
func (r *replay) observe(tr *tracer, parent int, decs []packet.Decoded, ok []bool, ts []time.Time, states []flowdetect.State) {
	sp := tr.begin("flowdetect.observe", parent)
	n := 0
	for i := range decs {
		if !ok[i] {
			continue
		}
		states[i] = r.det.Observe(ts[i], &decs[i], decs[i].Payload)
		n++
	}
	tr.end(sp, n)
	r.observed += int64(n)
	for i := range decs {
		if ok[i] && states[i] == flowdetect.Gaming {
			r.gaming++
		}
	}
}

// advance queues what every flow owes up to packet time ts (ns from epoch).
func (r *replay) advance(ts int64) {
	for i := range r.src.flows {
		f := &r.src.flows[i]
		if f.sess == nil {
			continue // a churn slot before its first life
		}
		rf := &r.flows[i]
		if rf.in == nil || rf.ident != f.ident {
			*rf = rflow{ident: f.ident, in: r.inputs[f.sess], tracker: r.stages.NewTracker(launchWindow),
				ext: features.NewStageFeatureExtractor(r.stages.Config().Volumetric)}
		}
		played := min(ts-f.start, f.end)
		if !rf.titled && played >= r.window {
			rf.titled = true
			r.dueTitle = append(r.dueTitle, rf.in.launch)
		}
		for n := int(played / r.slot); rf.next < n; rf.next++ {
			r.due = append(r.due, dueSlot{flow: int32(i), k: int32(rf.in.at(rf.next))})
		}
	}
}

// isolate runs the queued inputs through each layer under HandlePacket on
// its own, one span per layer, all children of parent.
func (r *replay) isolate(tr *tracer, parent int) {
	stageModel := r.stages.StageModel()

	sp := tr.begin("stageclass.push", parent)
	for i := range r.due {
		d := &r.due[i]
		f := &r.flows[d.flow]
		d.stage = f.tracker.Push(f.in.wide[d.k])
	}
	tr.end(sp, len(r.due))
	r.pushes += int64(len(r.due))

	// The tracker's two children, again in isolation.
	sp = tr.begin("features.stage_push", parent)
	for i := range r.due {
		d := &r.due[i]
		f := &r.flows[d.flow]
		copy(d.vec[:], f.ext.Push(f.in.wide[d.k]))
	}
	tr.end(sp, len(r.due))
	predicted := 0
	sp = tr.begin("mlkit.stage_predict", parent)
	for i := range r.due {
		d := &r.due[i]
		if d.stage.Stage == trace.StageLaunch {
			continue // inside the launch window the tracker does not consult the forest
		}
		r.sink += stageModel.PredictProbaInto(d.vec[:], r.stageProbs)[0]
		predicted++
	}
	tr.end(sp, predicted)

	sp = tr.begin("qoe.slot", parent)
	for i := range r.due {
		d := &r.due[i]
		in := r.flows[d.flow].in
		r.sink += float64(qoe.Objective(in.qos[d.k])) + float64(qoe.Effective(in.qos[d.k], in.ctx[d.k]))
	}
	tr.end(sp, len(r.due))
	r.due = r.due[:0]

	if len(r.dueTitle) == 0 {
		return
	}
	cfg := r.titles.Config()
	sp = tr.begin("titleclass.classify", parent)
	for _, launch := range r.dueTitle {
		r.sink += r.titles.ClassifyWith(launch, &r.titleSc).Confidence
	}
	tr.end(sp, len(r.dueTitle))
	sp = tr.begin("features.launch_attrs", parent)
	for _, launch := range r.dueTitle {
		features.LaunchAttributesInto(r.attrs[:], launch, cfg.Window, cfg.Slot, cfg.Groups)
	}
	tr.end(sp, len(r.dueTitle))
	var model mlkit.Classifier = r.titles.Model()
	sp = tr.begin("mlkit.title_predict", parent)
	for range r.dueTitle {
		r.sink += model.PredictProbaInto(r.attrs[:], r.titleProbs)[0]
	}
	tr.end(sp, len(r.dueTitle))
	r.dueTitle = r.dueTitle[:0]
}

// tracedPass is the second, single-goroutine pass of a traced run, over the
// chunks the engine pass was fed.
func (r *packetRun) tracedPass() error {
	w, src, tr, m := r.w, r.src, r.tr, r.out.metrics
	pipe := core.New(core.Config{FlowTTL: w.flowTTL, LaunchWindow: launchWindow}, r.models.Title, r.models.Stage)
	src.reset()
	rp := newReplay(src, r.models.Title, r.models.Stage)
	sweepEvery := int64(core.DefaultSweepInterval(w.flowTTL))
	var nextSweep int64

	arena := make([]byte, 0, traceBatch*1600)
	offs := make([]int, traceBatch+1)
	ts := make([]time.Time, traceBatch)
	decs := make([]packet.Decoded, traceBatch)
	ok := make([]bool, traceBatch)
	states := make([]flowdetect.State, traceBatch)
	var sinkKey packet.FlowKey

	var tablePeak, batches int
	var last []rec
	for chunk := int64(0); chunk < r.chunks; chunk++ {
		recs := src.nextChunk()
		last = recs
		warm := chunk < int64(w.warmChunks)
		if chunk == int64(w.warmChunks) {
			rp.observed, rp.gaming, rp.pushes = 0, 0, 0 // shares and rates are of the measured chunks only
		}
		for lo := 0; lo < len(recs); lo += traceBatch {
			b := recs[lo:min(lo+traceBatch, len(recs))]
			// Materialise into a batch arena, as the engine's producer does,
			// so frames outlive their templates for the length of a batch.
			arena = arena[:0]
			for i := range b {
				offs[i] = len(arena)
				arena = append(arena, src.frame(&b[i])...)
				ts[i] = epoch.Add(time.Duration(b[i].ts))
			}
			offs[len(b)] = len(arena)
			frame := func(i int) []byte { return arena[offs[i]:offs[i+1]] }
			end := b[len(b)-1].ts

			split := !warm && batches%2 == 1
			batches++
			if split {
				root := tr.begin("trace.batch", -1)
				sp := tr.begin("packet.peek", root)
				for i := range b {
					sinkKey = packet.PeekFlow(frame(i))
				}
				tr.end(sp, len(b))
				sp = tr.begin("packet.decode", root)
				for i := range b {
					ok[i] = packet.Decode(frame(i), &decs[i]) == nil
				}
				tr.end(sp, len(b))
				handle := tr.begin("core.handle", root)
				for i := range b {
					if ok[i] {
						pipe.HandlePacket(ts[i], &decs[i], decs[i].Payload)
					}
				}
				tr.end(handle, len(b))
				rp.observe(tr, handle, decs[:len(b)], ok, ts, states)
				rp.advance(end)
				rp.isolate(tr, handle)
				r.sweeps(tr, root, pipe, rp.det, end, sweepEvery, &nextSweep)
				tr.end(root, len(b))
			} else {
				var sp int
				if !warm {
					sp = tr.begin("core.single", -1)
				}
				for i := range b {
					if ok[i] = packet.Decode(frame(i), &decs[i]) == nil; ok[i] {
						pipe.HandlePacket(ts[i], &decs[i], decs[i].Payload)
					}
				}
				if !warm {
					tr.end(sp, len(b))
				}
				// Keep the replay in step, unrecorded.
				rp.observe(nil, -1, decs[:len(b)], ok, ts, states)
				rp.advance(end)
				rp.isolate(nil, -1)
				r.sweeps(nil, -1, pipe, rp.det, end, sweepEvery, &nextSweep)
			}
			tablePeak = max(tablePeak, pipe.DetectorFlows())
		}
	}
	_ = sinkKey

	tot := tr.totals()
	frames := float64(tot["packet.decode"].Calls)
	perFrame := func(name string) float64 { return ratio(float64(tot[name].Ns), frames) }
	single := tot.perCall("core.single")
	decode, handle := tot.perCall("packet.decode"), tot.perCall("core.handle")
	children := perFrame("flowdetect.observe") + perFrame("stageclass.push") + perFrame("qoe.slot") + perFrame("titleclass.classify")
	m["core.single_ns_per_pkt"] = single
	m["packet.peek_ns"], m["packet.decode_ns"], m["core.handle_ns"] = tot.perCall("packet.peek"), decode, handle
	m["core.self_ns"] = max(0, handle-children)
	m["core.residual_share"] = ratio(math.Abs(single-decode-handle), single)
	m["core.expire_ns"], m["flowdetect.expire_ns"] = tot.perCall("core.expire"), tot.perCall("flowdetect.expire")
	m["flowdetect.observe_ns"] = tot.perCall("flowdetect.observe")
	m["flowdetect.gaming_share"] = ratio(float64(rp.gaming), float64(rp.observed))
	m["flowdetect.table_peak"] = float64(tablePeak)
	m["features.stage_push_ns"], m["features.launch_attrs_ns"] = tot.perCall("features.stage_push"), tot.perCall("features.launch_attrs")
	m["stageclass.push_ns"] = tot.perCall("stageclass.push")
	m["stageclass.pushes_per_kpkt"] = ratio(float64(rp.pushes)*1000, float64(rp.observed))
	m["mlkit.stage_predict_ns"], m["mlkit.title_predict_ns"] = tot.perCall("mlkit.stage_predict"), tot.perCall("mlkit.title_predict")
	m["titleclass.classify_ns"] = tot.perCall("titleclass.classify")
	m["qoe.slot_ns"] = tot.perCall("qoe.slot")
	m["trace.overhead_share"] = ratio(tot.perCall("trace.batch"), single) - 1
	m["engine.speedup"] = ratio(single, m["engine.wall_ns_per_pkt"])
	m["engine.cpu_over_single"] = ratio(m["cpu_ns_per_op"], single)
	m["core.flows_created"], m["core.flows_evicted"] = float64(pipe.CreatedFlows()), float64(pipe.EvictedFlows())
	pipe.Finish()
	m["core.reports_emitted"] = float64(pipe.EmittedReports())
	pcapMetric(m, src, last)
	microLayerMetrics(m, r.scratch, src.seed)

	row := func(layer string, depth int) perfRow {
		return perfRow{Layer: layer, NsPerCall: tot.perCall(layer), PerUnit: float64(tot[layer].Calls) / frames, Depth: depth}
	}
	r.out.perf = []perfRow{
		row("packet.decode", 0),
		row("core.handle", 0),
		row("flowdetect.observe", 1),
		row("stageclass.push", 1),
		row("features.stage_push", 2),
		row("mlkit.stage_predict", 2),
		row("qoe.slot", 1),
		row("titleclass.classify", 1),
		row("features.launch_attrs", 2),
		row("mlkit.title_predict", 2),
		{Layer: "core.self (the remainder)", NsPerCall: m["core.self_ns"], PerUnit: 1, Depth: 1},
	}
	return nil
}

// sweeps runs the lifecycle's two expiry calls on their own when the packet
// clock has moved a sweep interval on: Pipeline.ExpireIdle (the pipeline
// also sweeps by itself inside HandlePacket; an extra sweep at the same
// cutoff finds nothing more to evict but walks the same tables) and the
// replay detector's Expire.
func (r *packetRun) sweeps(tr *tracer, parent int, pipe *core.Pipeline, det *flowdetect.Detector, ts, every int64, next *int64) {
	if ts < *next {
		return
	}
	*next = ts + every
	at := epoch.Add(time.Duration(ts))
	sp := tr.begin("core.expire", parent)
	pipe.ExpireIdle(at)
	tr.end(sp, 1)
	sp = tr.begin("flowdetect.expire", parent)
	det.Expire(at.Add(-r.w.flowTTL))
	tr.end(sp, 1)
}
