// The emitter side of the report path: shard pipelines push finalized
// *core.SessionReports into per-shard SPSC rings, one emitter goroutine
// drains every ring and hands each report to the user sink(s), whose it
// then is. Like the ingest side: rings instead of locks, a doorbell instead
// of polling (see the package comment's report-path section).

package engine

import (
	"runtime"
	"time"

	"gamelens/internal/core"
)

// pushReport is each shard pipeline's sink: it enqueues one finalized
// report on the shard's report ring and rings the emitter's doorbell. The
// caller is the ring's single producer — the shard worker while it runs,
// then the Finish goroutine after wg.Wait() establishes the handover. A
// full ring blocks (per shard; other shards keep ingesting) until the
// emitter makes room: lossless backpressure that degrades one shard's
// ingest instead of stalling the fleet behind a slow sink.
//
//gamelens:noalloc
func (e *Engine) pushReport(s *shard, r *core.SessionReport) {
	for i := 0; !s.reports.push(r); i++ {
		e.wakeEmitter()
		if i < 64 {
			runtime.Gosched()
		} else {
			//gamelens:wallclock-ok backpressure backoff; never read into data
			time.Sleep(20 * time.Microsecond)
		}
	}
	e.wakeEmitter()
}

// wakeEmitter rings the emitter's doorbell without blocking.
func (e *Engine) wakeEmitter() {
	select {
	case e.emitWake <- struct{}{}:
	default:
	}
}

// runEmitter is the emitter goroutine: drain every shard's report ring,
// deliver to the sinks, retain for Finish if asked to, sleep on the
// doorbell when idle. Exits after Finish sets emitClosed and a final drain
// comes up empty — the same close protocol as the shard workers, so no report
// pushed before emitClosed can be lost. After each non-empty drain the
// checkpoint hook gets a chance to run (maybeCheckpoint): the drain path
// is where the rollup behind BatchSink just advanced its packet clock, so
// checkpoints land on bucket rotations without any timer goroutine. Finish
// does not checkpoint here — the operator's final checkpoint
// (rollup.Checkpointer.Final) covers the run's tail.
func (e *Engine) runEmitter() {
	defer e.emitWG.Done()
	for {
		if e.drainReports() == 0 {
			if e.emitClosed.Load() {
				// Closed and drained: one final pass in case a shard
				// pushed between the empty drain and the close flag.
				if e.drainReports() == 0 {
					break
				}
				continue
			}
			<-e.emitWake
		} else {
			e.maybeCheckpoint()
		}
	}
}

// maybeCheckpoint runs the supervised Config.Checkpoint hook, folding its
// outcome into the engine counters. A panicking hook is poisoned — counted
// once, never called again — so a broken checkpointer degrades the monitor
// to checkpoint-less operation instead of killing the emitter.
func (e *Engine) maybeCheckpoint() {
	if e.cfg.Checkpoint == nil || e.ckptPoisoned {
		return
	}
	wrote, err, panicked := e.callCheckpoint()
	if panicked {
		e.ckptPoisoned = true
		e.ckptFailures.Add(1)
		return
	}
	if err != nil {
		e.ckptFailures.Add(1)
	}
	if wrote {
		e.ckptGens.Add(1)
	}
}

// callCheckpoint invokes the hook, converting a panic into a verdict.
func (e *Engine) callCheckpoint() (wrote bool, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			wrote, err, panicked = false, nil, true
		}
	}()
	wrote, err = e.cfg.Checkpoint()
	return wrote, err, false
}

// drainReports consumes every report currently queued across the shard
// rings, returning how many it delivered. Per shard the run is popped into
// the reusable scratch and handed to deliver as one batch, so the user
// BatchSink (and a rollup behind it) pays one call — one lock — per run
// instead of per report. Under StreamOnly the drain allocates nothing: the
// scratch is pre-sized to the ring capacity (sinkgate pins this at
// 0 allocs/op).
//
//gamelens:noalloc
func (e *Engine) drainReports() int {
	total := 0
	for _, s := range e.shards {
		for {
			batch := e.emitScratch[:0]
			for len(batch) < cap(batch) {
				r, ok := s.reports.pop()
				if !ok {
					break
				}
				batch = append(batch, r)
			}
			if len(batch) == 0 {
				break
			}
			total += len(batch)
			e.deliver(batch)
		}
	}
	return total
}

// deliver hands one drained batch to the configured sinks and, in retention
// mode, keeps the pointers for Finish.
// Delivery is supervised: a panicking user sink is recovered (callSink /
// callBatchSink), marked poisoned, and skipped from then on, with skipped
// per-report deliveries counted in Stats.SinkDropped. The emitter itself
// never dies, so a poisoned run still drains rings and completes Finish —
// exactly-once-or-counted, never wedged.
func (e *Engine) deliver(reports []*core.SessionReport) {
	e.emitted.Add(int64(len(reports)))
	if e.cfg.Sink != nil {
		if e.sinkPoisoned {
			e.sinkDropped.Add(int64(len(reports)))
		} else {
			for i, r := range reports {
				if !e.callSink(r) {
					e.sinkPoisoned = true
					e.sinkDropped.Add(int64(len(reports) - i - 1))
					break
				}
			}
		}
	}
	if e.cfg.BatchSink != nil && !e.batchPoisoned {
		if !e.callBatchSink(reports) {
			e.batchPoisoned = true
		}
	}
	if e.retain {
		//gamelens:alloc-ok retention mode only; a StreamOnly drain skips it
		e.streamed = append(e.streamed, reports...)
	}
}

// callSink delivers one report to the per-report user sink, converting a
// panic into a poison verdict (ok=false). The defer is open-coded and its
// closure captures only stack state, so the steady-state cost is a flag
// check — TestEmitterDrainAllocs pins the whole drain at 0 allocs/op with
// this wrapper on the path.
func (e *Engine) callSink(r *core.SessionReport) (ok bool) {
	//gamelens:alloc-ok open-coded defer over a non-escaping closure; runtime-verified 0 allocs/op by TestEmitterDrainAllocs
	defer func() {
		if recover() != nil {
			e.sinkPanics.Add(1)
			ok = false
		}
	}()
	e.cfg.Sink(r)
	return true
}

// callBatchSink is callSink for the batch sink.
func (e *Engine) callBatchSink(reports []*core.SessionReport) (ok bool) {
	//gamelens:alloc-ok open-coded defer over a non-escaping closure; runtime-verified 0 allocs/op by TestEmitterDrainAllocs
	defer func() {
		if recover() != nil {
			e.sinkPanics.Add(1)
			ok = false
		}
	}()
	e.cfg.BatchSink(reports)
	return true
}
