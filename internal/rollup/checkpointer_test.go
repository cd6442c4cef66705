package rollup

// The durability layer's own tests: checkpoint cadence on the packet
// clock, generation retention, the recovery scan's newest-valid choice and
// corrupt-file quarantine, the torn-checkpoint rejection sweep (every byte
// prefix of a valid checkpoint must be rejected), and the fault-injected
// smoke runs the Makefile faultgate pins (ENOSPC retry-then-succeed, crash
// then restore round trip).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gamelens/internal/faultinject"
	"gamelens/internal/persist"

	"gamelens/internal/qoe"
)

// ckptCfg is the test geometry: 1-minute buckets, so entries spaced one
// minute apart rotate one bucket each — the clock arithmetic stays mental.
var ckptCfg = Config{Window: 6 * time.Minute, Buckets: 6}

// feedEntry returns the ith test entry: subscriber cycles over a handful of
// addresses, End advances one bucket width per entry.
func feedEntry(i int) Entry {
	return entry(1+i%4, time.Duration(i)*time.Minute, "Fortnite", qoe.Good)
}

// refSnapshot renders the checkpoint a fresh rollup holds after the first n
// test entries — the uninterrupted-run-truncated-here reference the crash
// recovery property compares against.
func refSnapshot(t *testing.T, n int) []byte {
	t.Helper()
	r := New(ckptCfg)
	for i := 0; i < n; i++ {
		r.Observe(feedEntry(i))
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointerCadence(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "rollup.ckpt")
	r := New(ckptCfg)
	cp := NewCheckpointer(r, CheckpointerConfig{Path: base, EveryBuckets: 2, Keep: -1, Backoff: -1})

	// prefix[g] is how many entries generation g covers.
	prefix := map[uint64]int{}
	var gen uint64
	for i := 0; i < 9; i++ {
		r.Observe(feedEntry(i))
		wrote, err := cp.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if wrote {
			gen++
			prefix[gen] = i + 1
		}
	}
	// Entry 0 is the baseline tick; every second bucket rotation after it
	// checkpoints: entries 2, 4, 6, 8.
	if len(prefix) != 4 {
		t.Fatalf("wrote %d generations over 9 entries at EveryBuckets=2, want 4 (%v)", len(prefix), prefix)
	}
	written, failed := cp.Generations()
	if written != 4 || failed != 0 {
		t.Errorf("Generations() = %d written %d failed, want 4, 0", written, failed)
	}
	// Each generation file is byte-identical to an uninterrupted run
	// truncated at its prefix — the recovery-point guarantee.
	for g, n := range prefix {
		got, err := os.ReadFile(fmt.Sprintf("%s.gen-%d", base, g))
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		if want := refSnapshot(t, n); !bytes.Equal(got, want) {
			t.Errorf("generation %d diverges from the uninterrupted run truncated at entry %d", g, n)
		}
	}
	// Nothing at the base path until Final.
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Errorf("base checkpoint exists before Final (err=%v)", err)
	}
	if err := cp.Final(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if want := refSnapshot(t, 9); !bytes.Equal(got, want) {
		t.Error("Final checkpoint diverges from the full run")
	}
}

func TestCheckpointerRetention(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "rollup.ckpt")
	r := New(ckptCfg)
	cp := NewCheckpointer(r, CheckpointerConfig{Path: base, EveryBuckets: 1, Keep: 2, Backoff: -1})
	for i := 0; i < 5; i++ {
		r.Observe(feedEntry(i))
		if _, err := cp.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Entries 1..4 wrote generations 1..4; Keep=2 leaves only 3 and 4.
	names, err := persist.OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"rollup.ckpt.gen-3", "rollup.ckpt.gen-4"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("retained %v, want %v", names, want)
	}
}

func TestCheckpointRecoverPicksNewestValid(t *testing.T) {
	writeAt := func(t *testing.T, path string, n int) {
		t.Helper()
		r := New(ckptCfg)
		for i := 0; i < n; i++ {
			r.Observe(feedEntry(i))
		}
		if err := r.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("newest generation wins", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "rollup.ckpt")
		writeAt(t, base+".gen-1", 2)
		writeAt(t, base+".gen-2", 4)
		r, info, err := Recover(nil, base)
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation != 2 || info.NextGen != 3 {
			t.Errorf("recovered generation %d (next %d), want 2 (next 3)", info.Generation, info.NextGen)
		}
		var buf bytes.Buffer
		if err := r.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), refSnapshot(t, 4)) {
			t.Error("recovered state diverges from generation 2's run")
		}
	})

	t.Run("newer base beats older generations", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "rollup.ckpt")
		writeAt(t, base+".gen-1", 2)
		writeAt(t, base, 5) // a completed Final outruns the last generation
		r, info, err := Recover(nil, base)
		if err != nil {
			t.Fatal(err)
		}
		if info.Path != base || info.Generation != 0 || info.NextGen != 2 {
			t.Errorf("recovered %q gen %d next %d, want the base checkpoint, gen 0, next 2", info.Path, info.Generation, info.NextGen)
		}
		if got := r.Stats().Ingested; got != 5 {
			t.Errorf("recovered %d ingested, want the base's 5", got)
		}
	})

	t.Run("cold start", func(t *testing.T) {
		r, info, err := Recover(nil, filepath.Join(t.TempDir(), "rollup.ckpt"))
		if err != nil || r != nil {
			t.Fatalf("empty directory: r=%v err=%v, want nil, nil", r, err)
		}
		if info.NextGen != 1 {
			t.Errorf("cold-start NextGen = %d, want 1", info.NextGen)
		}
	})

	t.Run("all corrupt is an error, quarantined", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "rollup.ckpt")
		if err := os.WriteFile(base, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(base+".gen-1", []byte("more junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, info, err := Recover(nil, base)
		if !errors.Is(err, errAllCorrupt) {
			t.Fatalf("all-corrupt scan returned %v, want errAllCorrupt", err)
		}
		if len(info.Quarantined) != 2 {
			t.Fatalf("quarantined %v, want the base and gen-1", info.Quarantined)
		}
		for _, q := range info.Quarantined {
			if !strings.Contains(q, ".corrupt-") {
				t.Errorf("quarantine path %q not a .corrupt-N name", q)
			}
			if _, err := os.Stat(q); err != nil {
				t.Errorf("quarantined file missing: %v", err)
			}
		}
		// The corrupt originals are gone: the next restart cold-starts
		// instead of crash-looping over the same files.
		if _, err := os.Stat(base); !os.IsNotExist(err) {
			t.Errorf("corrupt base still in place (err=%v)", err)
		}
	})

	// Quarantine keeps every copy: a base checkpoint that is corrupt on two
	// successive restarts leaves two files, not the second over the first.
	t.Run("successive corrupt bases both survive", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "rollup.ckpt")
		for n, junk := range []string{"first crash", "second crash"} {
			if err := os.WriteFile(base, []byte(junk), 0o644); err != nil {
				t.Fatal(err)
			}
			_, info, err := Recover(nil, base)
			want := fmt.Sprintf("%s.corrupt-%d", base, n)
			if !errors.Is(err, errAllCorrupt) || len(info.Quarantined) != 1 || info.Quarantined[0] != want {
				t.Fatalf("restart %d: err = %v, quarantined %v; want errAllCorrupt and [%s]", n, err, info.Quarantined, want)
			}
			if info.NextGen != 1 {
				t.Errorf("restart %d: NextGen = %d; quarantined names are not generations", n, info.NextGen)
			}
		}
		for n, junk := range []string{"first crash", "second crash"} {
			got, err := os.ReadFile(fmt.Sprintf("%s.corrupt-%d", base, n))
			if err != nil || string(got) != junk {
				t.Errorf("corrupt-%d holds %q (%v), want %q", n, got, err, junk)
			}
		}
	})

	// A crash between CreateTemp and Rename leaves persist's temp file; the
	// scan removes the ones under its own names and nothing else.
	t.Run("reaps its own temp leftovers only", func(t *testing.T) {
		dir := t.TempDir()
		base := filepath.Join(dir, "rollup.ckpt")
		writeAt(t, base+".gen-3", 2)
		for _, name := range []string{"rollup.ckpt.tmp-11", "rollup.ckpt.gen-4.tmp-22", "other.tmp-1", "rollup.ckpt.gen-x.tmp-1"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("half a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, info, err := Recover(nil, base)
		if err != nil || info.Generation != 3 || info.NextGen != 4 || len(info.Quarantined) != 0 {
			t.Fatalf("Recover: %+v, %v; want generation 3, next 4, nothing quarantined", info, err)
		}
		names, err := persist.OS.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"other.tmp-1", "rollup.ckpt.gen-3", "rollup.ckpt.gen-x.tmp-1"}; fmt.Sprint(names) != fmt.Sprint(want) {
			t.Errorf("directory holds %v after the scan, want %v", names, want)
		}
	})
}

// TestCheckpointTornRejectionSweep truncates a valid checkpoint at every
// byte boundary and requires Restore to reject each prefix: no truncation
// point may silently mis-restore as a smaller-but-valid window. A seeded
// sample of the boundaries then goes through the full recovery scan,
// which must quarantine the torn file and fall back to the previous
// generation.
func TestCheckpointTornRejectionSweep(t *testing.T) {
	full := refSnapshot(t, 3)
	for i := 0; i < len(full); i++ {
		if _, err := Restore(bytes.NewReader(full[:i])); err == nil {
			t.Fatalf("Restore accepted a checkpoint truncated to %d of %d bytes", i, len(full))
		}
	}
	if _, err := Restore(bytes.NewReader(full)); err != nil {
		t.Fatalf("the untruncated checkpoint must restore: %v", err)
	}

	prev := refSnapshot(t, 1)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 12; k++ {
		cut := rng.Intn(len(full))
		base := filepath.Join(t.TempDir(), "rollup.ckpt")
		if err := os.WriteFile(base+".gen-1", prev, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(base+".gen-2", full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, info, err := Recover(nil, base)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if info.Generation != 1 {
			t.Fatalf("cut=%d: recovered generation %d, want fallback to 1", cut, info.Generation)
		}
		if len(info.Quarantined) != 1 || info.Quarantined[0] != base+".gen-2.corrupt-0" {
			t.Fatalf("cut=%d: quarantined %v, want the torn gen-2", cut, info.Quarantined)
		}
		// NextGen skips past the torn generation: nothing overwrites a file
		// an operator may want to inspect.
		if info.NextGen != 3 {
			t.Errorf("cut=%d: NextGen = %d, want 3", cut, info.NextGen)
		}
		var buf bytes.Buffer
		if err := r.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), prev) {
			t.Errorf("cut=%d: fallback state diverges from generation 1", cut)
		}
	}
}

// TestFaultGateENOSPCRetryThenSucceed pins the bounded-retry contract: a
// checkpoint write that hits a transient full disk on its first attempt
// retries and lands, with no failure surfaced to the caller.
func TestFaultGateENOSPCRetryThenSucceed(t *testing.T) {
	fs := faultinject.New(nil, faultinject.FailNth(faultinject.OpSync, 1, faultinject.ErrNoSpace))
	base := filepath.Join(t.TempDir(), "rollup.ckpt")
	r := New(ckptCfg)
	cp := NewCheckpointer(r, CheckpointerConfig{Path: base, EveryBuckets: 1, Backoff: -1, FS: fs})
	r.Observe(feedEntry(0))
	if wrote, err := cp.Tick(); wrote || err != nil {
		t.Fatalf("baseline tick wrote=%v err=%v", wrote, err)
	}
	r.Observe(feedEntry(1))
	wrote, err := cp.Tick()
	if err != nil || !wrote {
		t.Fatalf("tick with one injected ENOSPC: wrote=%v err=%v, want a successful retry", wrote, err)
	}
	if n := fs.Count(faultinject.OpSync); n < 2 {
		t.Errorf("saw %d sync attempts, want the failed one plus the retry", n)
	}
	if _, err := LoadFile(fs, base+".gen-1"); err != nil {
		t.Errorf("retried checkpoint does not restore: %v", err)
	}

	// A disk that stays full exhausts the retries and surfaces ENOSPC —
	// counted, cadence advanced, emitter never wedged on it.
	fs2 := faultinject.New(nil, faultinject.FailAll(faultinject.OpSync, faultinject.ErrNoSpace))
	cp2 := NewCheckpointer(r, CheckpointerConfig{Path: base, EveryBuckets: 1, Backoff: -1, FS: fs2, Retries: 2})
	if wrote, err := cp2.Tick(); wrote || err != nil {
		t.Fatalf("baseline tick wrote=%v err=%v", wrote, err)
	}
	r.Observe(feedEntry(2))
	if _, err := cp2.Tick(); err == nil {
		t.Fatal("persistent full disk surfaced no error")
	} else if !errors.Is(err, faultinject.ErrNoSpace) {
		t.Fatalf("persistent full disk surfaced %v, want ENOSPC", err)
	}
	if _, failed := cp2.Generations(); failed != 1 {
		t.Errorf("failed count = %d, want 1", failed)
	}
}

// TestFaultGateCrashRestoreRoundTrip is the faultgate's crash-restore
// smoke: checkpoint a run, "crash" (abandon the checkpointer mid-run, then
// tear the newest generation), recover, and land exactly on the previous
// generation's byte-identical state.
func TestFaultGateCrashRestoreRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rollup.ckpt")
	r := New(ckptCfg)
	cp := NewCheckpointer(r, CheckpointerConfig{Path: base, EveryBuckets: 1, Keep: -1, Backoff: -1})
	prefix := map[uint64]int{}
	var gen uint64
	for i := 0; i < 5; i++ {
		r.Observe(feedEntry(i))
		if wrote, err := cp.Tick(); err != nil {
			t.Fatal(err)
		} else if wrote {
			gen++
			prefix[gen] = i + 1
		}
	}
	if gen < 2 {
		t.Fatalf("need at least 2 generations for the round trip, got %d", gen)
	}
	// Crash flavor 1: the process died between checkpoints. Recovery lands
	// on the newest generation, bit for bit.
	got, info, err := Recover(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != gen {
		t.Fatalf("recovered generation %d, want the newest %d", info.Generation, gen)
	}
	var buf bytes.Buffer
	if err := got.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), refSnapshot(t, prefix[gen])) {
		t.Error("recovered state diverges from the uninterrupted run truncated at the last checkpoint")
	}
	// Crash flavor 2: the newest generation is torn (truncated file, as a
	// non-atomic storage layer would leave it). Recovery quarantines it and
	// falls back one generation — loss bounded by one checkpoint interval.
	newest := fmt.Sprintf("%s.gen-%d", base, gen)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got2, info2, err := Recover(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Generation != gen-1 || len(info2.Quarantined) != 1 {
		t.Fatalf("torn-newest recovery: generation %d, quarantined %v; want %d and the torn file", info2.Generation, info2.Quarantined, gen-1)
	}
	buf.Reset()
	if err := got2.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), refSnapshot(t, prefix[gen-1])) {
		t.Error("fallback state diverges from the previous generation's run")
	}
}
