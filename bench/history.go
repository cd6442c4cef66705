package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/qoe"
	"gamelens/internal/rollup"
	"gamelens/internal/rollup/store"
	"gamelens/internal/trace"
)

// historyWorkload has no packets: synthetic session entries spread over days
// of packet time go straight into the sharded rollup window and the tiered
// archive, through a Checkpointer ticked after every batch, with the
// operator's two dashboard queries issued every simulated hour. One op is
// one entry; one timed segment is one simulated hour (its entries, its
// ticks — seal, compaction, GC, generation checkpoints — and its queries).
// Writes run beside reads on the archive, and the JSON codec is most of the
// time, which is none of the time in the packet workloads.
type historyWorkload struct {
	subscribers int
	perHour     int // entries per simulated hour
	batch       int
	shards      int // rollup fan-out, fixed so results do not depend on the box
	// hours is the frozen number of simulated hours of a run at
	// nominalSeconds: eight days from a week boundary, so seven day
	// compactions and the week compaction all happen inside every run.
	hours    int
	minHours int // scaled-down runs go at least this far, so a day closes and compacts
}

var history = historyWorkload{subscribers: 160, perHour: 512, batch: 64, shards: 4, hours: 8 * 24, minHours: 30}

// hourEntries generates the entries ending in the given hour, in end-time
// order. It is a pure function of (seed, hour), so the reference fold after
// the run sees exactly the entries the program saw.
func (h *historyWorkload) hourEntries(dst []rollup.Entry, seed int64, hour int) []rollup.Entry {
	g := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(hour)*0xd1342543de82ef95 + 7)
	start := epoch.Add(time.Duration(hour) * time.Hour)
	step := time.Hour / time.Duration(h.perHour)
	dst = dst[:0]
	for i := 0; i < h.perHour; i++ {
		x, y := g.next(), g.next()
		sub := uint32(x % uint64(h.subscribers))
		e := rollup.Entry{
			Subscriber:   netip.AddrFrom4([4]byte{10, byte(sub >> 16), byte(sub >> 8), byte(sub)}),
			End:          start.Add(time.Duration(i)*step + time.Duration(x>>40)%step),
			MeanDownMbps: 4 + float64(y%5600)/100,
			Objective:    qoe.Level(y >> 20 % uint64(qoe.NumLevels)),
			Effective:    qoe.Level(y >> 24 % uint64(qoe.NumLevels)),
			QoEProxy:     float64(y>>28%1000) / 1000,
			Evicted:      true,
		}
		e.StageMinutes[trace.StageActive] = float64(y>>40%400) / 10
		e.StageMinutes[trace.StagePassive] = float64(y>>50%200) / 10
		e.StageMinutes[trace.StageIdle] = float64(x>>20%100) / 10
		if t := x >> 32 % 16; t < uint64(gamesim.NumTitles) {
			e.Title = gamesim.TitleID(t).String()
		} else {
			e.Pattern = gamesim.Pattern(t % uint64(gamesim.NumPatterns)).String()
		}
		dst = append(dst, e)
	}
	return dst
}

func runHistory(h *historyWorkload, e *env, seed int64, seconds float64, traced bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("history/seed=%d", seed))
	}
	m["gen.build_s"] = 0
	scratch, err := os.MkdirTemp(e.tmp, "history-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up as cmd/classify pays it at start: train, recovery scan, open
	// the archive, build the window and its checkpointer.
	_, setup, err := timedTrain(e)
	if err != nil {
		return nil, err
	}
	base := liveHeap()
	t0 := now()
	dir := filepath.Join(scratch, "archive")
	ckpt := filepath.Join(scratch, "rollup.ckpt")
	if _, _, err := rollup.Recover(nil, ckpt); err != nil {
		return nil, err
	}
	arch, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ru := rollup.NewSharded(h.shards, rollup.Config{Window: time.Hour})
	cp := rollup.NewCheckpointer(ru, rollup.CheckpointerConfig{Path: ckpt, EveryBuckets: 3, Archive: arch})
	m["setup_s"] = (setup + since(t0)).Seconds()

	var segs segments
	var ticks tickSamples
	var totalMs, topMs, queryMs []float64
	var foldNs, archNs time.Duration
	var entries []rollup.Entry
	var tickErrs int64
	hours := max(h.minHours, scaleWork(h.hours, seconds))
	for hour := 0; hour < hours; hour++ {
		entries = h.hourEntries(entries, seed, hour)
		hourSpan := tr.begin("history.hour", -1)
		c0, t0 := cpuTime(), now()
		for lo := 0; lo < len(entries); lo += h.batch {
			b := entries[lo:min(lo+h.batch, len(entries))]
			sp := tr.begin("rollup.fold", hourSpan)
			t := now()
			for i := range b {
				ru.Observe(b[i])
			}
			foldNs += since(t)
			tr.end(sp, len(b))
			sp = tr.begin("store.observe", hourSpan)
			t = now()
			arch.ObserveBatch(b)
			archNs += since(t)
			tr.end(sp, len(b))
			sp = tr.begin("store.tick", hourSpan)
			t = now()
			wrote, err := cp.Tick()
			ticks.record(wrote, since(t))
			tr.end(sp, 1)
			if err != nil {
				tickErrs++
			}
			if wrote {
				// The tick ran the archive's Tick and then wrote a
				// generation checkpoint, which is nearly all of its time.
				tr.rename(sp, "rollup.checkpoint")
			}
		}
		clock := entries[len(entries)-1].End
		sp := tr.begin("store.total", hourSpan)
		t := now()
		arch.Total(clock.Add(-24*time.Hour), clock)
		d1 := ms(since(t))
		tr.end(sp, 1)
		sp = tr.begin("store.topimpaired", hourSpan)
		t = now()
		arch.TopImpaired(clock.Add(-6*time.Hour), clock, 20)
		d2 := ms(since(t))
		tr.end(sp, 1)
		segs.add(len(entries), since(t0), cpuTime()-c0)
		tr.end(hourSpan, len(entries))
		totalMs, topMs, queryMs = append(totalMs, d1), append(topMs, d2), append(queryMs, d1, d2)
	}
	peak := liveHeap()
	if err := cp.Final(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	out.segments = hours
	total := segs.ops
	end := epoch.Add(time.Duration(hours) * time.Hour)

	segs.publish(m)
	// Nominal keys: one cell per subscriber in the live window and in every
	// partition the archive holds, durable or pending. Resident state grows
	// with the hours simulated; the divisor grows with it.
	resident := 1
	for _, n := range arch.Stats().Partitions {
		resident += n
	}
	resident += arch.Stats().Pending
	m["heap_b_per_key"] = float64(int64(peak)-int64(base)) / float64(h.subscribers*resident)
	m["wl.reports_per_s"] = m["ops_per_s"]
	m["wall_ns_per_op"] = float64(segs.wall) / float64(total) // not published; PERF.md's residual is against it
	m["wl.cpu_us_per_report"] = float64(segs.cpu) / float64(total) / 1e3
	m["wl.query_ms_p50"], m["wl.query_ms_p95"] = median(queryMs), quantile(queryMs, 0.95)
	m["store.total_ms_p50"], m["store.topimpaired_ms_p50"] = median(totalMs), median(topMs)
	ticks.publish(m)
	m["rollup.fold_ns"] = float64(foldNs) / float64(total)
	m["store.observe_ns"] = float64(archNs) / float64(total)
	written, failed := cp.Generations()
	m["rollup.checkpoints"], m["rollup.checkpoint_failures"] = float64(written), float64(failed)
	sinkMetrics(m, ru, arch, dir, end)
	rs, as := ru.Stats(), arch.Stats()
	if traced {
		microLayerMetrics(m, scratch, seed)
		tot := tr.totals()
		for _, layer := range []string{"rollup.fold", "store.observe", "store.tick", "rollup.checkpoint", "store.total", "store.topimpaired"} {
			out.perf = append(out.perf, perfRow{Layer: layer, NsPerCall: tot.perCall(layer), PerUnit: float64(tot[layer].Calls) / float64(total)})
		}
		if err := tr.write(filepath.Join(e.outDir, "history.trace.json")); err != nil {
			return nil, err
		}
	}

	// Output checks: nothing late, nothing failed, the merged sharded
	// window equals an unsharded one fed the same entries, and the archive's
	// total over the full range equals the plain sum of every entry.
	out.attempted = total + int64(2*hours)
	out.fail(rs.Late+as.Late, "%d entries counted late by the window, %d by the archive", rs.Late, as.Late)
	out.fail(abs64(rs.Ingested-total)+abs64(as.Ingested-total), "ingested %d (window) / %d (archive) of %d entries", rs.Ingested, as.Ingested, total)
	out.fail(tickErrs+failed+as.SealFailures+as.CompactFailures+as.PendingDropped+int64(len(as.Quarantined)),
		"durability faults: %d tick errors, %d checkpoint failures, %d seal, %d compact, %d dropped, %d quarantined",
		tickErrs, failed, as.SealFailures, as.CompactFailures, as.PendingDropped, len(as.Quarantined))
	ref := rollup.New(rollup.Config{Window: time.Hour})
	var refTotal rollup.Counts
	for hr := 0; hr < hours; hr++ {
		entries = h.hourEntries(entries, seed, hr)
		for i := range entries {
			ref.Observe(entries[i])
			refTotal.Add(entries[i])
		}
	}
	return out, checkSinks(out, ru, ref, arch, refTotal, end)
}
