package main

// metricDef is one named measurement: its unit, which direction is better
// and, for end-to-end metrics, the share of the parent's median by which it
// may worsen before a change counts as a regression. BENCHMARK.json repeats
// this table; TestBenchmarkJSONMatchesRegistry keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	Doc    string
}

// endToEnd are the metrics a user of the system sees, defined on every
// workload. An "op" is the workload's unit of work: a packet on steady,
// background and churn, a session report on history.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "start-up: train the models, construct engine and sinks, warm up; the schedule generator's own build is excluded"},
	{"ops_per_s", "1/s", "higher", 0.25, "ops per wall second, median over equal-length timed segments"},
	{"cpu_ns_per_op", "ns", "lower", 0.25, "process user+system CPU per op, median over timed segments"},
	{"heap_b_per_key", "B", "lower", 0.15, "live heap after a forced GC at the end of the timed part minus the pre-construction baseline, per nominal key (flow, detector tuple, subscriber or archive cell)"},
}

// perLayer are the metrics of single layers, named <module>.<metric>.
// Per-call costs come from the traced pass, counts from public getters.
var perLayer = []metricDef{
	{Name: "packet.peek_ns", Unit: "ns", Better: "lower", Doc: "PeekFlow per frame"},
	{Name: "packet.decode_ns", Unit: "ns", Better: "lower", Doc: "Decode per frame"},
	{Name: "packet.decode_err_share", Unit: "share", Better: "lower", Doc: "DecodeErrors / PacketsIn; equals the injected share"},

	{Name: "engine.handoff_ns", Unit: "ns", Better: "lower", Doc: "wall per HandleFrame on the generator goroutine, blocking included, generator cost subtracted"},
	{Name: "engine.producer_busy_share", Unit: "share", Better: "lower", Doc: "share of segment wall time the generator goroutine spent inside the feed loop"},
	{Name: "engine.speedup", Unit: "ratio", Better: "higher", Doc: "core.single_ns_per_pkt / engine wall ns per packet"},
	{Name: "engine.cpu_over_single", Unit: "ratio", Better: "lower", Doc: "engine CPU ns per packet / core.single_ns_per_pkt"},
	{Name: "engine.allocs_per_kpkt", Unit: "count", Better: "lower", Doc: "heap allocations per 1000 packets over timed segments"},
	{Name: "engine.bytes_per_kpkt", Unit: "B", Better: "lower", Doc: "heap bytes allocated per 1000 packets over timed segments"},
	{Name: "engine.finish_ms", Unit: "ms", Better: "lower", Doc: "final sweep + Finish: flush, stop workers, finalize live sessions, drain the emitter"},
	{Name: "engine.sink_calls", Unit: "count", Better: "lower", Doc: "BatchSink calls"},
	{Name: "engine.sink_batch_mean", Unit: "count", Better: "higher", Doc: "reports per BatchSink call"},
	{Name: "engine.report_backlog_max", Unit: "count", Better: "lower", Doc: "largest ReportBacklog sampled at segment ends"},
	{Name: "engine.shard_batch", Unit: "count", Better: "higher", Doc: "mean adaptive batch threshold across shards at the end"},
	{Name: "engine.shard_skew", Unit: "ratio", Better: "lower", Doc: "busiest shard's live flows / mean live flows"},
	{Name: "engine.packets_in", Unit: "count", Better: "higher"},
	{Name: "engine.processed", Unit: "count", Better: "higher"},
	{Name: "engine.dropped", Unit: "count", Better: "lower"},
	{Name: "engine.decode_errors", Unit: "count", Better: "lower"},
	{Name: "engine.flows", Unit: "count", Better: "higher"},
	{Name: "engine.evicted", Unit: "count", Better: "higher"},
	{Name: "engine.emitted", Unit: "count", Better: "higher"},
	{Name: "engine.recycled", Unit: "count", Better: "higher"},

	{Name: "flowdetect.observe_ns", Unit: "ns", Better: "lower", Doc: "Detector.Observe per decoded frame, isolated"},
	{Name: "flowdetect.gaming_share", Unit: "share", Better: "higher", Doc: "share of frames Observe put on the Gaming fast path"},
	{Name: "flowdetect.table_peak", Unit: "count", Better: "lower", Doc: "largest detector table seen at a batch boundary"},
	{Name: "flowdetect.expire_ns", Unit: "ns", Better: "lower", Doc: "Detector.Expire per call, isolated"},

	{Name: "core.single_ns_per_pkt", Unit: "ns", Better: "lower", Doc: "Decode + Pipeline.HandlePacket fused on one goroutine, untraced: the stream baseline"},
	{Name: "core.handle_ns", Unit: "ns", Better: "lower", Doc: "Pipeline.HandlePacket per frame in the traced pass"},
	{Name: "core.self_ns", Unit: "ns", Better: "lower", Doc: "core.handle_ns minus its isolated children, per frame"},
	{Name: "core.expire_ns", Unit: "ns", Better: "lower", Doc: "Pipeline.ExpireIdle per call"},
	{Name: "core.residual_share", Unit: "share", Better: "lower", Doc: "|core.single_ns_per_pkt - (decode + handle)| / core.single_ns_per_pkt"},
	{Name: "core.flows_created", Unit: "count", Better: "higher"},
	{Name: "core.flows_evicted", Unit: "count", Better: "higher"},
	{Name: "core.reports_emitted", Unit: "count", Better: "higher"},

	{Name: "features.stage_push_ns", Unit: "ns", Better: "lower", Doc: "StageFeatureExtractor.Push per slot, isolated"},
	{Name: "features.launch_attrs_ns", Unit: "ns", Better: "lower", Doc: "LaunchAttributesInto per title decision, isolated"},
	{Name: "stageclass.push_ns", Unit: "ns", Better: "lower", Doc: "Tracker.Push per slot, isolated (includes its extractor push and forest inference)"},
	{Name: "stageclass.pushes_per_kpkt", Unit: "count", Better: "lower", Doc: "Tracker.Push calls per 1000 frames"},
	{Name: "mlkit.stage_predict_ns", Unit: "ns", Better: "lower", Doc: "stage forest PredictProbaInto per slot, isolated"},
	{Name: "mlkit.title_predict_ns", Unit: "ns", Better: "lower", Doc: "title forest PredictProbaInto per decision, isolated"},
	{Name: "titleclass.classify_ns", Unit: "ns", Better: "lower", Doc: "ClassifyWith per title decision, isolated"},
	{Name: "titleclass.known_share", Unit: "share", Better: "higher", Doc: "share of title decisions above the confidence threshold"},
	{Name: "qoe.slot_ns", Unit: "ns", Better: "lower", Doc: "Objective + Effective per slot, isolated"},

	{Name: "rollup.fold_ns", Unit: "ns", Better: "lower", Doc: "sharded rollup fold per report, timed in the sink wrapper"},
	{Name: "rollup.snapshot_ms", Unit: "ms", Better: "lower", Doc: "Sharded.Snapshot of the final window"},
	{Name: "rollup.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "rollup.restore_ms", Unit: "ms", Better: "lower", Doc: "Restore of that snapshot"},
	{Name: "rollup.merged_ms", Unit: "ms", Better: "lower", Doc: "Sharded.Merged of the final window"},
	{Name: "rollup.checkpoint_ms_p50", Unit: "ms", Better: "lower", Doc: "Checkpointer.Tick calls that wrote a generation"},
	{Name: "rollup.checkpoint_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "rollup.ingested", Unit: "count", Better: "higher"},
	{Name: "rollup.late", Unit: "count", Better: "lower"},
	{Name: "rollup.subscribers", Unit: "count", Better: "higher"},
	{Name: "rollup.checkpoints", Unit: "count", Better: "higher"},
	{Name: "rollup.checkpoint_failures", Unit: "count", Better: "lower"},

	{Name: "sketch.add_ns", Unit: "ns", Better: "lower"},
	{Name: "sketch.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "sketch.quantile_ns", Unit: "ns", Better: "lower"},

	{Name: "store.observe_ns", Unit: "ns", Better: "lower", Doc: "archive fold per report"},
	{Name: "store.tick_ms_p50", Unit: "ms", Better: "lower", Doc: "Store.Tick calls that sealed, compacted, removed or flushed"},
	{Name: "store.tick_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "store.tick_ms_max", Unit: "ms", Better: "lower", Doc: "longest single Tick: the emitter stall"},
	{Name: "store.total_ms_p50", Unit: "ms", Better: "lower", Doc: "Store.Total over the last 24 h"},
	{Name: "store.topimpaired_ms_p50", Unit: "ms", Better: "lower", Doc: "Store.TopImpaired over the last 6 h, k=20"},
	{Name: "store.range_ms_p50", Unit: "ms", Better: "lower", Doc: "Store.Range over the last 24 h"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower", Doc: "reopen of the final archive: manifest, partition scan, pending tail"},
	{Name: "store.disk_bytes", Unit: "B", Better: "lower", Doc: "archive directory size after Final"},
	{Name: "store.sealed", Unit: "count", Better: "higher"},
	{Name: "store.compactions", Unit: "count", Better: "higher"},
	{Name: "store.removed", Unit: "count", Better: "higher"},
	{Name: "store.pending", Unit: "count", Better: "lower"},
	{Name: "store.late", Unit: "count", Better: "lower"},

	{Name: "persist.atomic_ms_p50", Unit: "ms", Better: "lower", Doc: "AtomicFS temp+fsync+rename of a 64 KiB document"},
	{Name: "persist.footer_ns_per_kb", Unit: "ns", Better: "lower", Doc: "AppendFooter + SplitFooter per KiB"},
	{Name: "pcapio.next_ns", Unit: "ns", Better: "lower", Doc: "Reader.Next per record over an in-memory capture of one chunk"},

	{Name: "gen.ns_per_pkt", Unit: "ns", Better: "lower", Doc: "schedule feed into a no-op handler, per frame"},
	{Name: "gen.build_s", Unit: "s", Better: "lower", Doc: "session generation and schedule construction"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Doc: "traced pass wall per frame (isolation loops included) / core.single_ns_per_pkt - 1"},

	// The workload-specific figures the issue names. They are defined on
	// some workloads only, so they cannot be end-to-end metrics here (every
	// end-to-end metric is reported, non-zero, on every workload).
	{Name: "wl.pkts_per_s", Unit: "1/s", Better: "higher", Doc: "steady, background, churn: ops_per_s"},
	{Name: "wl.cpu_ns_per_pkt", Unit: "ns", Better: "lower", Doc: "steady, background, churn: cpu_ns_per_op"},
	{Name: "wl.heap_b_per_flow", Unit: "B", Better: "lower", Doc: "steady, background, churn: heap_b_per_key"},
	{Name: "wl.op_ns_p90", Unit: "ns", Better: "lower", Doc: "wall ns per op of the 90th-percentile segment: what a stall (sweep, checkpoint, seal, compaction) costs"},
	{Name: "wl.reports_per_s", Unit: "1/s", Better: "higher", Doc: "churn, history: reports delivered per wall second of timed segments"},
	{Name: "wl.cpu_us_per_report", Unit: "us", Better: "lower", Doc: "history: process CPU per report"},
	{Name: "wl.title_acc", Unit: "share", Better: "higher", Doc: "churn: share of known-title reports matching the generator's ground truth"},
	{Name: "wl.query_ms_p50", Unit: "ms", Better: "lower", Doc: "history: Total(24 h) and TopImpaired(6 h, 20) together"},
	{Name: "wl.query_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "wl.disk_b_per_report", Unit: "B", Better: "lower", Doc: "churn, history: archive bytes after Final per report ingested"},
}

// metricValue is one measured metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick projects measured values onto defs: every def gets an entry (zero if
// the run did not produce it), nothing else does.
func pick(defs []metricDef, measured map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: measured[d.Name], Unit: d.Unit}
	}
	return out
}
