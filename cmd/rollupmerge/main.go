// Command rollupmerge folds per-tap rollup checkpoints and archive
// partition files into one fleet-view checkpoint: N monitors, each watching
// its own segment of the access network and persisting its per-subscriber
// history independently, merge into the single dashboard an operator
// actually watches. It also queries a tiered historical archive directory
// in place (-archive), answering the cross-tier range/percentile/top-K
// questions without a merge step.
//
// Merge semantics are the library's (internal/rollup Merge): window
// geometry must match exactly across all checkpoint inputs; the merged
// clock is the newest tap's; buckets that have aged out of the merged
// window prune silently, as any tap's own advancing clock would prune them;
// disjoint subscriber sets union — over a partitioned
// subscriber population the merged checkpoint is byte-identical to what a
// single tap covering everything would have written — and overlapping
// subscribers aggregate the union-sum of both taps' sessions (each session
// must be reported by exactly one tap; a session duplicated to two taps
// counts twice).
//
// Archive partition files (hour-*.part, day-*.part, week-*.part, as sealed
// by classify -archive) fold in via Rollup.InjectCounts: each subscriber
// cell lands whole in the fleet bucket containing the partition's start —
// the partition is the archive's unit of resolution, so a fold cannot be
// finer than the tier it reads. Folding both a coarse partition and the
// fine partitions it was compacted from double-counts; fold one covering
// tier, exactly as the store's own query path selects one. When every
// input is a partition file, the fleet window is synthesized to cover all
// of them at the finest input tier's resolution; with at least one
// checkpoint input, the first checkpoint's geometry (and aging) wins.
//
// The output is written atomically (write-temp-rename), so a crash
// mid-merge never corrupts an existing fleet checkpoint. The output path
// may also be one of the inputs.
//
// In query mode (-archive DIR) no output is written: the archive's
// manifest supplies the tier geometry, [-from, -to) bounds the range
// (RFC3339; each defaults to unbounded), and the report prints the
// per-subscriber aggregates, the fleet total with exact merged
// percentiles, and the -top most impaired subscribers — in the store's
// canonical deterministic order, so the same archive state prints
// byte-identically on every run.
//
// The usage line below is usageLine in main.go — flag.Usage and this
// comment share it as the single source of truth.
//
// Usage:
//
//	rollupmerge -o FLEET.ckpt INPUT.ckpt|INPUT.part [INPUT...] | rollupmerge -archive DIR [-from RFC3339] [-to RFC3339] [-top K]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"gamelens"
	"gamelens/internal/rollup"
)

// usageLine is the one authoritative usage string: flag.Usage prints it,
// and the package comment's Usage section quotes it.
const usageLine = "usage: rollupmerge -o FLEET.ckpt INPUT.ckpt|INPUT.part [INPUT...] | rollupmerge -archive DIR [-from RFC3339] [-to RFC3339] [-top K]"

// run merges the inputs named by args into the -o output, or queries the
// -archive directory; it is main without the exit codes, so the merge smoke
// test can drive the whole CLI in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rollupmerge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "fleet checkpoint to write (atomically); may be one of the inputs")
	archiveDir := fs.String("archive", "", "tiered archive directory to query in place instead of merging inputs")
	fromStr := fs.String("from", "", "query range start, RFC3339 (default: everything; requires -archive)")
	toStr := fs.String("to", "", "query range end, exclusive, RFC3339 (default: everything; requires -archive)")
	topK := fs.Int("top", 5, "most-impaired subscribers to rank in the query report (negative = all, 0 = none; requires -archive)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, usageLine)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	topSet := false
	fs.Visit(func(f *flag.Flag) { topSet = topSet || f.Name == "top" })

	if *archiveDir != "" {
		if *out != "" || fs.NArg() != 0 {
			fs.Usage()
			return errors.New("-archive queries in place: no -o output, no file inputs")
		}
		from, to, err := parseRange(*fromStr, *toStr)
		if err != nil {
			return err
		}
		return runQuery(*archiveDir, from, to, *topK, stdout, stderr)
	}
	if *fromStr != "" || *toStr != "" || topSet {
		return errors.New("-from/-to/-top require -archive")
	}
	if *out == "" {
		fs.Usage()
		return errors.New("missing -o output checkpoint")
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errors.New("no inputs to merge")
	}
	return runMerge(*out, fs.Args(), stdout)
}

// maxFleetBuckets is the ring resolution a checkpoint restores at most
// (rollup.Config.Buckets documents the bound Restore enforces); a fleet
// window synthesized past it could be written but never read back.
const maxFleetBuckets = 4096

// input is one loaded command-line input: exactly one of ckpt or part.
type input struct {
	path string
	ckpt *gamelens.Rollup
	part *gamelens.ArchivePartition
}

// runMerge folds checkpoint and partition inputs into one fleet checkpoint.
func runMerge(out string, paths []string, stdout io.Writer) error {
	inputs := make([]input, 0, len(paths))
	var fleet *gamelens.Rollup
	for _, path := range paths {
		if strings.HasSuffix(path, ".part") {
			p, err := gamelens.ReadArchivePartition(path)
			if err != nil {
				return fmt.Errorf("loading %s: %w", path, err)
			}
			var sessions int64
			for i := range p.Subs {
				sessions += p.Subs[i].Window.Sessions
			}
			fmt.Fprintf(stdout, "  %s: %s partition [%v, %v), %d subscribers, %d sessions\n",
				path, p.Tier, p.Start.Format(time.RFC3339),
				p.Start.Add(p.Span).Format(time.RFC3339), len(p.Subs), sessions)
			inputs = append(inputs, input{path: path, part: p})
			continue
		}
		tap, err := gamelens.LoadRollup(path)
		if err != nil {
			return fmt.Errorf("loading %s: %w", path, err)
		}
		st := tap.Stats()
		fmt.Fprintf(stdout, "  %s: %d subscribers, %d sessions ingested (%d late), window %v/%d, clock %v\n",
			path, st.Subscribers, st.Ingested, st.Late,
			tap.Config().Window, tap.Config().Buckets, tap.Clock().Format(time.RFC3339))
		if fleet == nil {
			fleet = tap // the first checkpoint's geometry wins
		}
		inputs = append(inputs, input{path: path, ckpt: tap})
	}
	if fleet == nil {
		cfg, err := partitionGeometry(inputs)
		if err != nil {
			return err
		}
		fleet = gamelens.NewRollup(cfg)
	}
	for _, in := range inputs {
		switch {
		case in.ckpt == fleet:
			// already the base
		case in.ckpt != nil:
			if err := fleet.Merge(in.ckpt); err != nil {
				return fmt.Errorf("merging %s: %w", in.path, err)
			}
		default:
			for i := range in.part.Subs {
				a := &in.part.Subs[i]
				fleet.InjectCounts(in.part.Start, a.Subscriber, &a.Window)
			}
		}
	}
	if err := fleet.SaveFile(out); err != nil {
		return fmt.Errorf("writing fleet checkpoint: %w", err)
	}
	st := fleet.Stats()
	fmt.Fprintf(stdout, "merged %d inputs into %s: %d subscribers, %d sessions ingested (%d late), clock %v\n",
		len(inputs), out, st.Subscribers, st.Ingested, st.Late, fleet.Clock().Format(time.RFC3339))
	return nil
}

// partitionGeometry synthesizes a fleet window covering every partition
// input at the finest input tier's resolution — the geometry used when no
// checkpoint input supplies one. The bucket width is the smallest input
// span, and the window stretches from the earliest start to the latest end
// (aligned to that width), so an all-partition fold never ages anything
// out regardless of input order. A stretch of more than maxFleetBuckets
// widths is refused: the fold would write a checkpoint nothing can load.
func partitionGeometry(inputs []input) (gamelens.RollupConfig, error) {
	width := time.Duration(math.MaxInt64)
	startNs, endNs := int64(math.MaxInt64), int64(math.MinInt64)
	for _, in := range inputs {
		if in.part == nil {
			continue
		}
		if in.part.Span < width {
			width = in.part.Span
		}
		if s := in.part.Start.UnixNano(); s < startNs {
			startNs = s
		}
		if e := in.part.Start.Add(in.part.Span).UnixNano(); e > endNs {
			endNs = e
		}
	}
	w := int64(width)
	startNs = rollup.FloorDiv(startNs, w) * w // partition starts below the epoch are legal
	endNs = -rollup.FloorDiv(-endNs, w) * w
	buckets := (endNs - startNs) / w
	if buckets > maxFleetBuckets {
		return gamelens.RollupConfig{}, fmt.Errorf(
			"partition inputs span %v at the finest input width %v: %d window buckets, and a checkpoint restores at most %d; fold a narrower range, or the coarser tier's partitions",
			time.Duration(endNs-startNs), width, buckets, maxFleetBuckets)
	}
	return gamelens.RollupConfig{Window: time.Duration(buckets) * width, Buckets: int(buckets)}, nil
}

// parseRange parses the -from/-to bounds; an empty bound is unbounded.
func parseRange(fromStr, toStr string) (from, to time.Time, err error) {
	from, to = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	if fromStr != "" {
		if from, err = time.Parse(time.RFC3339, fromStr); err != nil {
			return from, to, fmt.Errorf("-from: %w", err)
		}
	}
	if toStr != "" {
		if to, err = time.Parse(time.RFC3339, toStr); err != nil {
			return from, to, fmt.Errorf("-to: %w", err)
		}
	}
	return from, to, nil
}

// runQuery opens the archive (geometry adopted from its manifest) and
// prints the canonical range report: per-subscriber aggregates, the fleet
// total with exact merged percentiles, and the top-K impaired ranking.
func runQuery(dir string, from, to time.Time, top int, stdout, stderr io.Writer) error {
	arch, err := gamelens.OpenArchive(gamelens.ArchiveConfig{Dir: dir})
	if err != nil {
		return err
	}
	st := arch.Stats()
	for _, q := range st.Quarantined {
		fmt.Fprintf(stderr, "rollupmerge: warning: quarantined corrupt archive file as %s\n", q)
	}
	fmt.Fprintf(stdout, "archive %s: %d hour / %d day / %d week partitions, %d pending, clock %v\n",
		dir, st.Partitions[gamelens.ArchiveTierHour], st.Partitions[gamelens.ArchiveTierDay],
		st.Partitions[gamelens.ArchiveTierWeek], st.Pending, arch.Clock().Format(time.RFC3339))

	aggs := arch.Range(from, to)
	fmt.Fprintf(stdout, "per-subscriber aggregates over [%s, %s): %d subscribers\n",
		boundLabel(from), boundLabel(to), len(aggs))
	for i := range aggs {
		printAggregate(stdout, "  ", &aggs[i])
	}

	total := arch.Total(from, to)
	mbps, proxy := total.ThroughputPercentiles(), total.QoEProxyPercentiles()
	fmt.Fprintf(stdout, "fleet total: %d sessions (%d evicted)  Mbps p50/p90/p99 %.1f/%.1f/%.1f  QoE good obj %3.0f%% eff %3.0f%%  proxy p50/p90/p99 %.2f/%.2f/%.2f\n",
		total.Sessions, total.Evicted, mbps.P50, mbps.P90, mbps.P99,
		100*total.GoodShare(false), 100*total.GoodShare(true), proxy.P50, proxy.P90, proxy.P99)

	if top != 0 {
		ranked := arch.TopImpaired(from, to, top)
		fmt.Fprintf(stdout, "top %d impaired:\n", len(ranked))
		for i := range ranked {
			printAggregate(stdout, fmt.Sprintf("  #%d ", i+1), &ranked[i])
		}
	}
	return nil
}

// boundLabel renders one range bound; the unbounded sentinels print as an
// ellipsis rather than their year-1677/2262 expansions.
func boundLabel(t time.Time) string {
	if t.UnixNano() == math.MinInt64 || t.UnixNano() == math.MaxInt64 {
		return "…"
	}
	return t.Format(time.RFC3339)
}

// printAggregate renders one subscriber's range aggregate.
func printAggregate(w io.Writer, prefix string, a *gamelens.SubscriberAggregate) {
	win := &a.Window
	mbps := win.ThroughputPercentiles()
	fmt.Fprintf(w, "%s%-15v %3d sessions (%d evicted)  %5.1f Mbps (p50/p90/p99 %.1f/%.1f/%.1f)  QoE good obj %3.0f%% eff %3.0f%% proxy p50 %.2f\n",
		prefix, a.Subscriber, win.Sessions, win.Evicted, win.MeanDownMbps(),
		mbps.P50, mbps.P90, mbps.P99,
		100*win.GoodShare(false), 100*win.GoodShare(true), win.QoEProxyQuantile(0.5))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rollupmerge:", err)
		os.Exit(1)
	}
}
