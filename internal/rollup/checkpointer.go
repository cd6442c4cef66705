// Periodic checkpointing on the packet clock, and the matching recovery
// scan. The Checkpointer rides the engine emitter's drain path (via
// engine.Config.Checkpoint): after every drained batch the emitter asks it
// to Tick, and whenever the rollup's packet-time clock has crossed the
// configured number of bucket rotations since the last checkpoint it
// writes a new generation-numbered file via the crash-safe persist
// protocol. Shard ingest never blocks on a write — checkpointing runs on
// the emitter goroutine, whose backpressure is already per-shard — and a
// full disk degrades to counted failures at the checkpoint cadence, never
// a retry storm per drain. Recover is the startup counterpart: scan the
// generations plus the base checkpoint, restore the newest valid one, and
// quarantine corrupt files aside instead of crash-looping on them.

package rollup

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gamelens/internal/persist"
)

// CheckpointerConfig tunes a Checkpointer.
type CheckpointerConfig struct {
	// Path is the base checkpoint path. Periodic generations are written
	// next to it as Path.gen-N; Final writes Path itself.
	Path string
	// EveryBuckets is the checkpoint cadence in bucket rotations of the
	// source's window: Tick writes once the packet clock has advanced at
	// least this many buckets since the last checkpoint (or since the
	// first Tick, which only records a baseline). Zero or negative
	// disables periodic checkpoints — Tick becomes a no-op and only Final
	// writes.
	EveryBuckets int
	// Keep bounds how many generation files are retained: after each
	// successful write the generation Keep steps behind it is removed
	// (best effort). 0 defaults to 3; negative keeps every generation.
	Keep int
	// Retries is the number of write attempts per checkpoint (0 defaults
	// to 3).
	Retries int
	// Backoff is the sleep before the first retry, doubling per attempt
	// (0 defaults to 5ms; negative disables sleeping). Retry backoff is
	// the one place the durability layer touches the wall clock — it
	// paces real disk I/O and is never read into data.
	Backoff time.Duration
	// StartGen numbers the first generation written (0 defaults to 1). A
	// resumed monitor passes RecoverInfo.NextGen so its generations extend
	// the recovered sequence instead of overwriting it.
	StartGen uint64
	// FS is the persist filesystem seam (nil = the real filesystem).
	FS persist.FS
	// Archive, when non-nil, is driven from the same emitter hook: every
	// Tick forwards to Archive.Tick (before the checkpoint-cadence gate, so
	// archive sealing runs even with periodic checkpoints disabled) and
	// Final forwards to Archive.Final after the final checkpoint. The
	// historical store (internal/rollup/store) implements it; the interface
	// lives here so the store can depend on rollup without a cycle.
	Archive Archiver
}

// Archiver is the archive surface a Checkpointer drives alongside its own
// checkpoint cadence: Tick advances the archive on the packet clock (seal
// due partitions, compact, GC — a no-op when nothing is due), Final flushes
// at end of run.
type Archiver interface {
	Tick() error
	Final() error
}

func (c CheckpointerConfig) withDefaults() CheckpointerConfig {
	if c.Keep == 0 {
		c.Keep = 3
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.Backoff == 0 {
		c.Backoff = 5 * time.Millisecond
	}
	if c.StartGen == 0 {
		c.StartGen = 1
	}
	if c.FS == nil {
		c.FS = persist.OS
	}
	return c
}

// Checkpointer writes generation-numbered checkpoints of src on the packet
// clock. Tick is designed for the engine's emitter goroutine (one caller
// at a time on the hot path) but is fully locked, so operator code may
// call Tick or Final from other goroutines too.
type Checkpointer struct {
	cfg CheckpointerConfig
	src *Rollup
	wNs int64 // bucket width of src's window, in nanos

	mu       sync.Mutex
	nextGen  uint64
	lastIdx  int64 // bucket index at the last checkpoint (or baseline)
	hasIdx   bool
	written  int64
	failures int64
}

// NewCheckpointer builds a Checkpointer snapshotting src per cfg.
func NewCheckpointer(src *Rollup, cfg CheckpointerConfig) *Checkpointer {
	cfg = cfg.withDefaults()
	return &Checkpointer{
		cfg:     cfg,
		src:     src,
		wNs:     src.wNs,
		nextGen: cfg.StartGen,
	}
}

// genPath names generation gen's file next to the base checkpoint path.
func genPath(path string, gen uint64) string {
	return fmt.Sprintf("%s.gen-%d", path, gen)
}

// parseGenSuffix inverts genPath on what follows the base name: ".gen-N",
// N a positive decimal. Anything else — a quarantined generation
// (".gen-N.corrupt-K") included — is not a generation.
func parseGenSuffix(suffix string) (gen uint64, ok bool) {
	digits, ok := strings.CutPrefix(suffix, ".gen-")
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	return gen, err == nil && gen != 0
}

// Tick checkpoints src if its packet clock has rotated EveryBuckets
// buckets past the last checkpoint, reporting whether a generation was
// written. The very first Tick only records the baseline bucket, so a
// monitor checkpoints after its first full interval, not on its first
// report. The cadence pointer advances even when the write fails (after
// its bounded retries): a persistently full disk costs one failed write
// per interval, not one per drained batch, and the failure is counted for
// Stats rather than wedging the emitter.
func (cp *Checkpointer) Tick() (wrote bool, err error) {
	var archErr error
	if cp.cfg.Archive != nil {
		archErr = cp.cfg.Archive.Tick()
	}
	if cp.cfg.EveryBuckets <= 0 {
		return false, archErr
	}
	clock := cp.src.Clock()
	if clock.IsZero() {
		return false, archErr
	}
	idx := FloorDiv(clock.UnixNano(), cp.wNs)
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if !cp.hasIdx {
		cp.hasIdx = true
		cp.lastIdx = idx
		return false, archErr
	}
	if idx-cp.lastIdx < int64(cp.cfg.EveryBuckets) {
		return false, archErr
	}
	cp.lastIdx = idx
	gen := cp.nextGen
	if err := cp.writeRetry(genPath(cp.cfg.Path, gen)); err != nil {
		cp.failures++
		return false, errors.Join(archErr, fmt.Errorf("rollup: checkpoint generation %d: %w", gen, err))
	}
	cp.nextGen++
	cp.written++
	cp.gc(gen)
	return true, archErr
}

// Final writes the authoritative end-of-run checkpoint at the base path,
// with the same bounded retry as periodic generations. Callers treat a
// returned error as fatal for durability (cmd/classify exits non-zero on
// it): the run's tail since the last generation exists nowhere else.
func (cp *Checkpointer) Final() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var errs []error
	if err := cp.writeRetry(cp.cfg.Path); err != nil {
		cp.failures++
		errs = append(errs, fmt.Errorf("rollup: final checkpoint: %w", err))
	}
	if cp.cfg.Archive != nil {
		if err := cp.cfg.Archive.Final(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Generations returns how many periodic generations this Checkpointer has
// written, and how many writes failed after retries.
func (cp *Checkpointer) Generations() (written, failed int64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.written, cp.failures
}

// writeRetry runs the crash-safe write with bounded retry/backoff.
func (cp *Checkpointer) writeRetry(path string) error {
	var err error
	backoff := cp.cfg.Backoff
	for attempt := 0; attempt < cp.cfg.Retries; attempt++ {
		if attempt > 0 && backoff > 0 {
			//gamelens:wallclock-ok retry backoff pacing real disk I/O; never read into data
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = persist.AtomicFS(cp.cfg.FS, path, cp.src.Snapshot); err == nil {
			return nil
		}
	}
	return err
}

// gc removes the generation Keep steps behind the one just written (best
// effort — a removal failure is ignored; the next write retries the next
// cutoff). One removal per write keeps retention O(1) on the emitter path.
func (cp *Checkpointer) gc(newest uint64) {
	if cp.cfg.Keep < 0 {
		return
	}
	if newest <= uint64(cp.cfg.Keep) {
		return
	}
	cp.cfg.FS.Remove(genPath(cp.cfg.Path, newest-uint64(cp.cfg.Keep)))
}

// RecoverInfo describes what a recovery scan found.
type RecoverInfo struct {
	// Path is the file that was restored ("" on a cold start).
	Path string
	// Generation is the restored file's generation number; 0 means the
	// base checkpoint (or a cold start — check Path).
	Generation uint64
	// NextGen is the generation number a resumed Checkpointer should
	// write next (CheckpointerConfig.StartGen), one past the newest
	// generation seen on disk — valid or not — so resumed runs never
	// overwrite files an operator may still want to inspect.
	NextGen uint64
	// Quarantined lists the corrupt candidates the scan renamed aside
	// (their new paths: FILE.corrupt-K, FILE being the base path or a
	// path.gen-N generation file).
	Quarantined []string
}

// errAllCorrupt distinguishes "every candidate was corrupt" from a cold
// start: the former is surfaced as an error (with the files quarantined
// for inspection) because silently starting cold would hide data loss.
var errAllCorrupt = errors.New("rollup: every checkpoint candidate was corrupt (quarantined)")

// Recover scans for the newest valid checkpoint of the base path: every
// generation file (path.gen-N) plus the base file itself, newest
// generation first, the base checkpoint considered alongside by its
// packet-clock instant (an end-of-run Final at the base path is newer than
// the last periodic generation). Corrupt candidates — torn writes, bit
// rot, anything LoadFile rejects — are quarantined by persist.Quarantine
// under their own name (path.gen-N.corrupt-K, path.corrupt-K: first free K,
// so a second corrupt base never overwrites the first one's evidence) and
// the scan falls back to the previous generation, so a monitor restarting
// over a damaged checkpoint directory degrades to an older recovery point
// instead of crash-looping. Temp files a crash mid-checkpoint left behind
// under the scan's own names (path.tmp-*, path.gen-N.tmp-*) were never
// renamed into place and are removed. A nil rollup with a nil error is a
// cold start: nothing to recover. If candidates existed but none was valid,
// the error wraps errAllCorrupt — resuming silently with an empty window
// would hide the loss.
func Recover(pfs persist.FS, path string) (*Rollup, RecoverInfo, error) {
	if pfs == nil {
		pfs = persist.OS
	}
	info := RecoverInfo{NextGen: 1}
	dir := filepath.Dir(path)
	names, err := pfs.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, info, fmt.Errorf("rollup: scanning checkpoint directory: %w", err)
	}
	// persist.FS.ReadDir does not promise sorted names (os.ReadDir happens
	// to sort; an injected FS may not), and the scan below must reap and
	// visit candidates identically on every filesystem.
	sort.Strings(names)
	base := filepath.Base(path)
	var gens []uint64
	for _, name := range names {
		suffix, ok := strings.CutPrefix(name, base)
		if !ok {
			continue
		}
		if owner, _, isTemp := strings.Cut(suffix, ".tmp-"); isTemp {
			if _, ofGen := parseGenSuffix(owner); ofGen || owner == "" {
				pfs.Remove(filepath.Join(dir, name)) // best effort; the next scan retries
			}
			continue
		}
		if gen, ok := parseGenSuffix(suffix); ok {
			gens = append(gens, gen)
			if gen >= info.NextGen {
				info.NextGen = gen + 1
			}
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })

	// Candidates in visiting order: generations newest first, then the base
	// checkpoint (generation 0), which competes by packet clock — Final
	// writes it after the last generation, but a crash before Final leaves
	// it one run stale.
	var best *Rollup
	candidates := 0
	for _, gen := range append(gens, 0) {
		if best != nil && gen != 0 {
			continue // older than the generation already restored
		}
		file := path
		if gen != 0 {
			file = genPath(path, gen)
		}
		r, err := LoadFile(pfs, file)
		if errors.Is(err, fs.ErrNotExist) {
			continue // raced away (gc, operator), or no base yet; not a candidate
		}
		candidates++
		if err != nil {
			if to, qerr := persist.Quarantine(pfs, file); qerr == nil {
				info.Quarantined = append(info.Quarantined, to)
			}
			continue
		}
		if best == nil || r.Clock().After(best.Clock()) {
			best, info.Path, info.Generation = r, file, gen
		}
	}
	if best == nil && candidates > 0 {
		return nil, info, fmt.Errorf("%w: %s", errAllCorrupt, strings.Join(info.Quarantined, ", "))
	}
	return best, info, nil
}
