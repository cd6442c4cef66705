// Command classify runs the full Fig 6 pipeline over a PCAP capture: it
// detects cloud-gaming streaming flows, classifies the game title from the
// launch window, tracks player activity stages, infers the gameplay
// activity pattern, and reports objective vs effective QoE per flow.
//
// Analysis runs on the sharded multi-core engine: flows are hash-partitioned
// across -shards worker pipelines (default: all cores). The reader hands
// raw frames to an engine producer, which parses each once into a
// fixed-size summary (five-tuple, direction, payload length) and ships
// that — never the bytes — to the owning shard over a lock-free ring, so
// the analysis runs on the shard cores. Frames that fail to parse are
// counted (and reported at end of run), not analyzed.
//
// Models are trained on startup from the built-in traffic substrate with
// -train-seed (or loaded with -title-model if a trained forest was exported
// by the trainer example).
//
// With -flow-ttl, the engine runs in streaming mode: flows idle past the
// TTL (in capture time) are finalized and printed as the replay reaches
// their expiry, the way a long-running ISP monitor emits them, and memory
// stays bounded by the number of concurrently active flows instead of the
// total flow count.
//
// With -rollup, every report also feeds a per-subscriber sliding window
// (session counts, per-title share, stage minutes, objective-vs-effective
// QoE, throughput/QoE-proxy percentiles), printed as an operator dashboard
// at end of run. Reports reach the window through the engine's batched
// emitter drain, one lock acquisition per drained run.
//
// # Durability
//
// -checkpoint makes the window durable. Startup runs a recovery scan over
// the checkpoint path: the newest valid candidate — the base file or any
// generation-numbered sibling (FILE.gen-N) left by a crashed run — is
// restored (a restarted monitor resumes its aggregations, on the same code
// path as a cold start), corrupt candidates are quarantined aside under
// their own name (the base file as FILE.corrupt-K, a generation as
// FILE.gen-N.corrupt-K, K the first free number, so repeated corruption
// keeps every copy) and logged, temp files a crashed write left behind
// (FILE.tmp-*, FILE.gen-N.tmp-*) are removed, and the scan degrades to the
// previous generation instead of crash-looping. At end of run the window
// is atomically rewritten to the base path; if that final write fails
// after bounded retries, classify exits non-zero naming the failure — a
// monitor must not report success while its durable state is stale.
//
// -checkpoint-every N additionally checkpoints mid-run: every N bucket
// rotations of capture time, the emitter writes a generation-numbered
// snapshot (FILE.gen-1, .gen-2, ...) off its drain path, so a crash loses
// at most one checkpoint interval of aggregations. SIGINT/SIGTERM trigger
// a graceful shutdown: the replay stops, in-flight flows finalize, and the
// final checkpoint is written before exit.
//
// A checkpoint carries its own window geometry; if -rollup asks for a
// different one, resuming would silently re-bucket history wrong, so
// classify refuses (non-zero exit) unless -rollup-force explicitly accepts
// the checkpoint's geometry. Multiple taps' checkpoints merge into one
// fleet view with the rollupmerge command.
//
// -archive DIR additionally keeps history beyond the sliding window: every
// report also feeds the tiered historical store, which seals each hour of
// packet time into an immutable partition file under DIR, compacts hours
// into days and days into weeks losslessly (the archive's day partition is
// byte-identical to the merge of its hours), and deletes expired
// partitions under -retain-hour/-retain-day/-retain-week (0 = the
// library's defaults; negative = retain forever) only once their compacted
// successor is durable. The archive advances on the packet clock from the
// same emitter hook as -checkpoint-every, resumes its unsealed tail across
// restarts, quarantines corrupt partitions aside as FILE.corrupt-N, and is
// queried (or folded into fleet checkpoints) with the rollupmerge command.
// An archive's tier geometry is pinned by its own manifest; reopening it
// never needs geometry flags.
//
// At end of run classify also prints the report-path counters — reports
// emitted, the emitter queue depth, and (when nonzero) the
// supervision counters: sink panics recovered, reports dropped after a
// sink was poisoned, checkpoint generations written and failed.
//
// The usage line below is usageLine in main.go — flag.Usage and this
// comment share it as the single source of truth; keep them in sync with
// gofmt-visible adjacency rather than by hand-maintained duplicates.
//
// Usage:
//
//	classify [-title-model FILE] [-train-seed N] [-lag MS] [-loss FRAC] [-shards N] [-flow-ttl DUR] [-rollup DUR] [-checkpoint FILE] [-checkpoint-every N] [-rollup-force] [-archive DIR] [-retain-hour DUR] [-retain-day DUR] [-retain-week DUR] capture.pcap
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gamelens"
	"gamelens/internal/pcapio"
	"gamelens/internal/persist"
	"gamelens/internal/rollup"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// usageLine is the one authoritative usage string: flag.Usage prints it,
// and the package comment's Usage section quotes it. A flag added here must
// be added to the flag set below (and vice versa) or the mismatch is
// visible in -h output next to PrintDefaults.
const usageLine = "usage: classify [-title-model FILE] [-train-seed N] [-lag MS] [-loss FRAC] [-shards N] [-flow-ttl DUR] [-rollup DUR] [-checkpoint FILE] [-checkpoint-every N] [-rollup-force] [-archive DIR] [-retain-hour DUR] [-retain-day DUR] [-retain-week DUR] capture.pcap"

// errUsage marks a command-line error: main exits 2 without a further
// message (the flag set already printed one).
var errUsage = errors.New("usage")

// errCheckpointWrite names the final-checkpoint failure: the run analyzed
// everything but could not make the rollup durable, so classify must exit
// non-zero rather than let an operator trust a stale checkpoint.
var errCheckpointWrite = errors.New("classify: final rollup checkpoint failed")

// errArchiveWrite is the archive counterpart: the run's unsealed tail (or a
// due partition) could not be made durable at shutdown.
var errArchiveWrite = errors.New("classify: final archive flush failed")

// ckptFS is the filesystem every checkpoint write and recovery scan goes
// through — a package seam so the fault-injection tests can run the real
// CLI path against injected ENOSPC and torn writes.
var ckptFS persist.FS = persist.OS

// trainModels builds the session classifiers; a package variable so tests
// can substitute a small, fast training corpus.
var trainModels = func(seed int64) (*gamelens.Models, error) {
	return gamelens.TrainModels(seed, gamelens.TrainOptions{SessionsPerTitle: 6, SessionLength: 20 * time.Minute})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("classify: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: args are the command
// line after the program name, stdout receives the report and dashboard
// output (diagnostics go through the log package). It returns errUsage for
// command-line errors and errCheckpointWrite-wrapped errors when the final
// checkpoint could not be written.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	modelPath := fs.String("title-model", "", "JSON forest exported by the trainer example")
	lagMs := fs.Float64("lag", 8, "measured path one-way lag in ms (for QoE grading)")
	loss := fs.Float64("loss", 0, "measured path loss rate (for QoE grading)")
	trainSeed := fs.Int64("train-seed", 42, "seed for built-in model training")
	shards := fs.Int("shards", 0, "analysis worker shards (0 = all cores)")
	flowTTL := fs.Duration("flow-ttl", 0, "evict flows idle this long in capture time and print their reports as they expire (0 = report everything at the end)")
	rollupWin := fs.Duration("rollup", 0, "maintain per-subscriber sliding-window aggregates over this window of capture time and print the dashboard at the end (0 = off unless -checkpoint is set, then 1h)")
	checkpoint := fs.String("checkpoint", "", "rollup checkpoint file: recovered at startup (newest valid generation; corrupt candidates quarantined), atomically rewritten at end of run")
	ckptEvery := fs.Int("checkpoint-every", 0, "also write a generation-numbered checkpoint every N window-bucket rotations of capture time (0 = final checkpoint only; requires -checkpoint)")
	rollupForce := fs.Bool("rollup-force", false, "resume from a checkpoint whose window geometry conflicts with -rollup (the checkpoint's geometry wins)")
	archiveDir := fs.String("archive", "", "tiered historical archive directory: every report also feeds hour partitions sealed under this directory, compacted losslessly into days and weeks, queryable with rollupmerge")
	retainHour := fs.Duration("retain-hour", 0, "hour-partition retention before compaction-backed deletion (0 = library default, negative = forever; requires -archive)")
	retainDay := fs.Duration("retain-day", 0, "day-partition retention (0 = library default, negative = forever; requires -archive)")
	retainWeek := fs.Duration("retain-week", 0, "week-partition retention (0 = library default, negative = forever; requires -archive)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usageLine)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errUsage
	}
	if *ckptEvery > 0 && *checkpoint == "" {
		return errors.New("-checkpoint-every requires -checkpoint")
	}
	if *archiveDir == "" && (*retainHour != 0 || *retainDay != 0 || *retainWeek != 0) {
		return errors.New("-retain-hour/-retain-day/-retain-week require -archive")
	}

	// A signal interrupts the replay, not the shutdown: the read loop
	// breaks, in-flight flows finalize through Finish, and the final
	// checkpoint still gets written — the graceful-flush path. Installed
	// before training so a signal during the slow startup is not fatal
	// either; it is consumed at the first read-loop iteration.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	log.Printf("training models (seed %d)...", *trainSeed)
	models, err := trainModels(*trainSeed)
	if err != nil {
		return err
	}
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		title, err := gamelens.LoadTitleModel(f, titleclass.Config{})
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %v", *modelPath, err)
		}
		models.Title = title
		log.Printf("loaded title model from %s", *modelPath)
	}

	// The per-subscriber rollup window: recovered from a checkpoint, or new.
	var ru *gamelens.Rollup
	var recInfo rollup.RecoverInfo
	if *rollupWin > 0 || *checkpoint != "" {
		resolved, info, resumed, err := resolveRollup(*checkpoint, *rollupWin, *rollupForce)
		if err != nil {
			return err
		}
		ru, recInfo = resolved, info
		for _, q := range info.Quarantined {
			log.Printf("warning: quarantined corrupt checkpoint as %s", q)
		}
		if resumed {
			st := ru.Stats()
			log.Printf("resumed rollup from %s (generation %d; %d subscribers, %d sessions ingested, clock %v)",
				info.Path, info.Generation, st.Subscribers, st.Ingested, ru.Clock().Format(time.RFC3339))
		}
	}

	// The tiered historical archive taps the same report stream as the
	// window; its geometry is pinned by its own on-disk manifest, so a
	// resumed archive needs no flags beyond the directory.
	var arch *gamelens.ArchiveStore
	if *archiveDir != "" {
		a, err := gamelens.OpenArchive(gamelens.ArchiveConfig{
			Dir:    *archiveDir,
			FS:     ckptFS,
			Retain: [3]time.Duration{*retainHour, *retainDay, *retainWeek},
		})
		if err != nil {
			return err
		}
		arch = a
		as := arch.Stats()
		for _, q := range as.Quarantined {
			log.Printf("warning: quarantined corrupt archive file as %s", q)
		}
		log.Printf("archive %s: %d hour / %d day / %d week partitions, %d pending, clock %v",
			*archiveDir, as.Partitions[gamelens.ArchiveTierHour],
			as.Partitions[gamelens.ArchiveTierDay], as.Partitions[gamelens.ArchiveTierWeek],
			as.Pending, arch.Clock().Format(time.RFC3339))
	}

	cfg := gamelens.EngineConfig{
		Shards: *shards,
		Pipeline: gamelens.PipelineConfig{
			QoSLag:  time.Duration(*lagMs * float64(time.Millisecond)),
			QoSLoss: *loss,
			FlowTTL: *flowTTL,
		},
	}
	// The rollup (and the archive) always ride the emitter's batched drain:
	// one lock acquisition per drained run instead of one per report.
	switch {
	case ru != nil && arch != nil:
		cfg.BatchSink = func(reports []*gamelens.SessionReport) {
			ru.ObserveReports(reports)
			arch.ObserveReports(reports)
		}
	case ru != nil:
		cfg.BatchSink = ru.ObserveReports
	case arch != nil:
		cfg.BatchSink = arch.ObserveReports
	}
	// Periodic durability: a Checkpointer over the live window, ticked by
	// the emitter after each drain, numbered from one past whatever the
	// recovery scan saw on disk so a resumed run never overwrites evidence.
	// The archive seals/compacts from the same hook (Archive), including
	// when periodic checkpoints are off; without any checkpointer the
	// archive ticks the emitter hook directly.
	var cp *rollup.Checkpointer
	if ru != nil && *checkpoint != "" {
		ccfg := rollup.CheckpointerConfig{
			Path:         *checkpoint,
			EveryBuckets: *ckptEvery,
			StartGen:     recInfo.NextGen,
			FS:           ckptFS,
		}
		if arch != nil {
			ccfg.Archive = arch
		}
		cp = rollup.NewCheckpointer(ru, ccfg)
		if *ckptEvery > 0 || arch != nil {
			cfg.Checkpoint = cp.Tick
		}
	} else if arch != nil {
		cfg.Checkpoint = func() (bool, error) { return false, arch.Tick() }
	}
	streaming := *flowTTL > 0
	if streaming {
		// In streaming mode every report — evicted mid-replay or finalized
		// by Finish — prints through the sink, in emission order; the
		// end-of-run loop below is skipped. StreamOnly keeps the engine
		// from also retaining each report for Finish, so memory really is
		// bounded by concurrently active flows.
		cfg.Sink = func(rep *gamelens.SessionReport) { printReport(stdout, rep) }
		cfg.StreamOnly = true
	}
	eng := gamelens.NewEngine(cfg, models)

	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	r, err := pcapio.NewReader(in)
	if err != nil {
		return err
	}

	// One reader goroutine, one producer handle: each frame is summarized
	// here and the summary goes to its flow's shard.
	p := eng.Producer()
	frames := 0
readLoop:
	for {
		select {
		case sig := <-sigc:
			log.Printf("received %v: flushing flows and writing the final checkpoint", sig)
			break readLoop
		default:
		}
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("frame %d: %v", frames, err)
		}
		frames++
		p.HandleFrame(rec.Timestamp, rec.Data)
	}
	p.Close()

	reports := eng.Finish()
	stats := eng.Stats()
	log.Printf("processed %d frames on %d shards (%d gaming flows, %d evicted by TTL, %d undecodable)",
		frames, stats.Shards, stats.Flows(), stats.EvictedFlows, stats.DecodeErrors)
	log.Printf("report path: %d emitted, emitter queue depth %d",
		stats.EmittedReports, stats.ReportBacklog)
	if stats.SinkPanics > 0 || stats.SinkDropped > 0 {
		log.Printf("supervision: recovered %d sink panics, dropped %d reports after poisoning",
			stats.SinkPanics, stats.SinkDropped)
	}
	if stats.CheckpointGenerations > 0 || stats.CheckpointFailures > 0 {
		log.Printf("checkpoints: %d generations written mid-run, %d failures",
			stats.CheckpointGenerations, stats.CheckpointFailures)
	}
	if stats.EmittedReports == 0 {
		fmt.Fprintln(stdout, "no cloud-gaming streaming flows detected")
	} else if !streaming {
		for _, rep := range reports {
			printReport(stdout, rep)
		}
	}
	if ru != nil {
		printRollup(stdout, ru)
		if cp != nil {
			if err := cp.Final(); err != nil {
				return fmt.Errorf("%w: %w", errCheckpointWrite, err)
			}
			log.Printf("rollup checkpointed to %s", *checkpoint)
		}
	}
	if arch != nil {
		// With a checkpointer, cp.Final above already flushed the archive
		// (the Archive hook forwards); without one, flush it here.
		if cp == nil {
			if err := arch.Final(); err != nil {
				return fmt.Errorf("%w: %w", errArchiveWrite, err)
			}
		}
		as := arch.Stats()
		log.Printf("archive %s: %d entries (%d late), %d sealed, %d compactions, %d expired removed; %d hour / %d day / %d week partitions, %d pending",
			*archiveDir, as.Ingested, as.Late, as.Sealed, as.Compactions, as.Removed,
			as.Partitions[gamelens.ArchiveTierHour], as.Partitions[gamelens.ArchiveTierDay],
			as.Partitions[gamelens.ArchiveTierWeek], as.Pending)
	}
	return nil
}

// resolveRollup builds the monitor's rollup window: recovered from the
// newest valid checkpoint candidate when path names one, new otherwise.
// Corrupt candidates are quarantined by the scan (info.Quarantined); if
// every candidate was corrupt the error surfaces rather than silently
// starting cold over lost data.
// A checkpoint carries its own window geometry (span and bucket count);
// resuming it under a conflicting -rollup would silently re-bucket the
// restored history wrong, so a mismatch between the checkpoint's geometry
// and what -rollup would configure is an error unless force (the
// -rollup-force flag) explicitly accepts the checkpoint's geometry. The
// resumed result reports whether a checkpoint was restored; info carries
// the recovery scan's findings either way (info.NextGen seeds the
// Checkpointer's generation numbering).
func resolveRollup(path string, window time.Duration, force bool) (ru *gamelens.Rollup, info rollup.RecoverInfo, resumed bool, err error) {
	info.NextGen = 1
	if path != "" {
		var restored *gamelens.Rollup
		restored, info, err = rollup.Recover(ckptFS, path)
		if err != nil {
			return nil, info, false, fmt.Errorf("recovering rollup: %w", err)
		}
		if restored != nil {
			if window > 0 {
				want := gamelens.NewRollup(gamelens.RollupConfig{Window: window}).Config()
				if got := restored.Config(); got != want {
					if !force {
						return nil, info, false, fmt.Errorf(
							"checkpoint %s holds a %v window in %d buckets but -rollup %v asks for %v in %d: resuming would re-bucket history wrong; pass -rollup-force to keep the checkpoint's geometry, or delete the checkpoint to start over",
							info.Path, got.Window, got.Buckets, window, want.Window, want.Buckets)
					}
					log.Printf("warning: -rollup %v overridden by -rollup-force; keeping checkpoint geometry %v/%d buckets",
						window, got.Window, got.Buckets)
				}
			}
			return restored, info, true, nil
		}
	}
	return gamelens.NewRollup(gamelens.RollupConfig{Window: window}), info, false, nil
}

// printReport renders one session report; in streaming mode it is (part of)
// the engine sink (the engine serializes calls, so plain printing is safe).
func printReport(w io.Writer, rep *gamelens.SessionReport) {
	fmt.Fprintln(w, rep)
	fmt.Fprintf(w, "  stage minutes: active %.1f, passive %.1f, idle %.1f\n",
		rep.StageMinutes[trace.StageActive], rep.StageMinutes[trace.StagePassive],
		rep.StageMinutes[trace.StageIdle])
}

// printRollup renders the per-subscriber dashboard for the window.
func printRollup(w io.Writer, ru *gamelens.Rollup) {
	aggs := ru.Subscribers()
	fmt.Fprintf(w, "\nper-subscriber window (clock %v, %d subscribers):\n",
		ru.Clock().Format(time.RFC3339), len(aggs))
	for _, a := range aggs {
		win := a.Window
		mbps := win.ThroughputPercentiles()
		fmt.Fprintf(w, "  %-15v %3d sessions (%d evicted)  active %5.1fm passive %5.1fm idle %5.1fm  %5.1f Mbps (p50/p90/p99 %.1f/%.1f/%.1f)  QoE good obj %3.0f%% eff %3.0f%% proxy p50 %.2f\n",
			a.Subscriber, win.Sessions, win.Evicted,
			win.StageMinutes[trace.StageActive], win.StageMinutes[trace.StagePassive],
			win.StageMinutes[trace.StageIdle], win.MeanDownMbps(),
			mbps.P50, mbps.P90, mbps.P99,
			win.GoodShare(false)*100, win.GoodShare(true)*100,
			win.QoEProxyQuantile(0.5))
	}
}
