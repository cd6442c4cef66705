package main

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"gamelens/internal/pcapio"
	"gamelens/internal/persist"
	"gamelens/internal/rollup"
	"gamelens/internal/rollup/store"
	"gamelens/internal/sketch"
)

// Layer measurements that are taken on a finished run's state or on inputs
// of their own, outside every timed segment.

// segments accumulates the per-segment figures the end-to-end metrics are
// medians of.
type segments struct {
	opsPerS, cpuPerOp, nsPerOp []float64
	wall, cpu                  time.Duration
	ops                        int64
}

func (s *segments) add(n int, wall, cpu time.Duration) {
	s.wall, s.cpu, s.ops = s.wall+wall, s.cpu+cpu, s.ops+int64(n)
	s.opsPerS = append(s.opsPerS, float64(n)/wall.Seconds())
	s.cpuPerOp = append(s.cpuPerOp, float64(cpu)/float64(n))
	s.nsPerOp = append(s.nsPerOp, float64(wall)/float64(n))
}

func (s *segments) publish(m map[string]float64) {
	m["ops_per_s"] = median(s.opsPerS)
	m["cpu_ns_per_op"] = median(s.cpuPerOp)
	m["wl.op_ns_p90"] = quantile(s.nsPerOp, 0.9)
}

// tickSamples sorts the durations of Checkpointer.Tick calls into the ones
// that wrote a generation checkpoint and the ones that otherwise touched the
// disk (seal, compaction, GC, tail flush). Ticks that found nothing due
// return in microseconds and are no sample of either.
type tickSamples struct {
	ckptMs, tickMs []float64
}

func (t *tickSamples) record(wrote bool, d time.Duration) {
	switch {
	case wrote:
		t.ckptMs = append(t.ckptMs, ms(d))
	case d > 50*time.Microsecond:
		t.tickMs = append(t.tickMs, ms(d))
	}
}

func (t *tickSamples) publish(m map[string]float64) {
	m["rollup.checkpoint_ms_p50"], m["rollup.checkpoint_ms_p95"] = median(t.ckptMs), quantile(t.ckptMs, 0.95)
	m["store.tick_ms_p50"], m["store.tick_ms_p95"], m["store.tick_ms_max"] = median(t.tickMs), quantile(t.tickMs, 0.95), maxOf(t.tickMs)
}

// sinkMetrics publishes what the report sinks hold after Final: the window's
// counters and whole-window costs, and with an archive its counters, size,
// reopen time and query times.
func sinkMetrics(m map[string]float64, ru *rollup.Sharded, arch *store.Store, dir string, end time.Time) {
	rs := ru.Stats()
	m["rollup.ingested"], m["rollup.late"], m["rollup.subscribers"] = float64(rs.Ingested), float64(rs.Late), float64(rs.Subscribers)
	rollupLayerMetrics(m, ru)
	if arch != nil {
		storeLayerMetrics(m, arch, dir, end)
		m["wl.disk_b_per_report"] = ratio(m["store.disk_bytes"], float64(arch.Stats().Ingested))
	}
}

// checkSinks compares the sinks with references fed the same entries: the
// merged sharded window must snapshot byte for byte like the unsharded ref,
// and the archive's total over the full range must equal refTotal.
func checkSinks(out *outcome, ru *rollup.Sharded, ref *rollup.Rollup, arch *store.Store, refTotal rollup.Counts, end time.Time) error {
	var a, b bytes.Buffer
	if err := ru.Snapshot(&a); err != nil {
		return err
	}
	if err := ref.Snapshot(&b); err != nil {
		return err
	}
	out.attempted++
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		out.fail(1, "merged sharded rollup differs from the unsharded reference")
	}
	if arch != nil {
		out.attempted++
		if !sameCounts(arch.Total(epoch.Add(-time.Hour), end.Add(time.Hour)), refTotal) {
			out.fail(1, "Store.Total over the full range differs from the reference Counts")
		}
	}
	return nil
}

// rollupLayerMetrics times the whole-window operations on the run's final
// window: canonical snapshot, restore of that snapshot, shard merge.
func rollupLayerMetrics(m map[string]float64, ru *rollup.Sharded) {
	var buf bytes.Buffer
	t0 := now()
	if err := ru.Snapshot(&buf); err != nil {
		return
	}
	m["rollup.snapshot_ms"] = ms(since(t0))
	m["rollup.snapshot_bytes"] = float64(buf.Len())
	t0 = now()
	if _, err := rollup.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		m["rollup.restore_ms"] = ms(since(t0))
	}
	t0 = now()
	if _, err := ru.Merged(); err == nil {
		m["rollup.merged_ms"] = ms(since(t0))
	}
}

// timeCalls runs f n times and returns each call's duration in ms.
func timeCalls(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := now()
		f()
		out[i] = ms(since(t0))
	}
	return out
}

// storeLayerMetrics reads the archive's counters and size after Final, times
// a reopen (manifest, partition scan and validation, pending tail) and, where
// the run itself issued no queries, the three query shapes.
func storeLayerMetrics(m map[string]float64, arch *store.Store, dir string, end time.Time) {
	st := arch.Stats()
	m["store.sealed"], m["store.compactions"], m["store.removed"] = float64(st.Sealed), float64(st.Compactions), float64(st.Removed)
	m["store.pending"], m["store.late"] = float64(st.Pending), float64(st.Late)
	if n, err := dirSize(dir); err == nil {
		m["store.disk_bytes"] = float64(n)
	}
	t0 := now()
	if _, err := store.Open(store.Config{Dir: dir}); err == nil {
		m["store.open_ms"] = ms(since(t0))
	}
	if _, ok := m["store.total_ms_p50"]; !ok {
		m["store.total_ms_p50"] = median(timeCalls(5, func() { arch.Total(end.Add(-24*time.Hour), end) }))
		m["store.topimpaired_ms_p50"] = median(timeCalls(5, func() { arch.TopImpaired(end.Add(-6*time.Hour), end, 20) }))
	}
	m["store.range_ms_p50"] = median(timeCalls(5, func() { arch.Range(end.Add(-24*time.Hour), end) }))
}

// microLayerMetrics measures the leaf layers on inputs of their own: the
// quantile sketch at the rollup's geometry, and the persist protocol on a
// representative 64 KiB document — which separates disk time from encode
// time inside the store's and the checkpointer's tick costs.
func microLayerMetrics(m map[string]float64, tmp string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := sketch.Config{Alpha: 0.05, Min: 1e-3, Max: 1e5}
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = 2 + rng.ExpFloat64()*20
	}
	a, b := sketch.New(cfg), sketch.New(cfg)
	t0 := now()
	for _, v := range vals {
		a.Add(v)
	}
	m["sketch.add_ns"] = float64(since(t0)) / float64(len(vals))
	for _, v := range vals[:1024] {
		b.Add(v * 1.3)
	}
	const merges = 2000
	t0 = now()
	for i := 0; i < merges; i++ {
		a.Merge(b)
	}
	m["sketch.merge_ns"] = float64(since(t0)) / merges
	var sink float64
	t0 = now()
	for i := 0; i < merges; i++ {
		sink += a.Quantile(0.5 + float64(i%50)/100)
	}
	m["sketch.quantile_ns"] = float64(since(t0)) / merges
	_ = sink

	doc := make([]byte, 64<<10)
	rng.Read(doc)
	doc[len(doc)-1] = '\n' // the footer protocol wants a newline-terminated document
	path := filepath.Join(tmp, "persist-probe.doc")
	m["persist.atomic_ms_p50"] = median(timeCalls(15, func() {
		// A failed probe write only makes the sample meaningless, and the
		// store's own writes, which are checked, would have failed first.
		_ = persist.AtomicFS(persist.OS, path, func(w io.Writer) error {
			_, err := w.Write(doc)
			return err
		})
	}))
	const footers = 200
	t0 = now()
	for i := 0; i < footers; i++ {
		if _, err := persist.SplitFooter(persist.AppendFooter(doc)); err != nil {
			return
		}
	}
	m["persist.footer_ns_per_kb"] = float64(since(t0)) / footers / float64(len(doc)>>10)
}

// pcapMetric writes one chunk into an in-memory capture and times the
// reader's Next over it: what cmd/classify's read loop adds in front of
// HandleFrame.
func pcapMetric(m map[string]float64, src *source, recs []rec) {
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, 65535)
	if err != nil {
		return
	}
	for i := range recs {
		f := src.frame(&recs[i])
		if err := w.WriteRecord(epoch.Add(time.Duration(recs[i].ts)), len(f), f); err != nil {
			return
		}
	}
	if err := w.Flush(); err != nil {
		return
	}
	rd, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return
	}
	n := 0
	t0 := now()
	for {
		if _, err := rd.Next(); err != nil {
			break
		}
		n++
	}
	m["pcapio.next_ns"] = ratio(float64(since(t0)), float64(n))
}
