package main

// Pins the -checkpoint resume geometry contract: a checkpoint whose window
// geometry disagrees with -rollup refuses to resume (main exits non-zero
// through log.Fatal on the returned error) unless -rollup-force explicitly
// accepts the checkpoint's geometry. Before this, classify warned and
// continued — silently re-bucketing the restored history into the wrong
// window.

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gamelens"
)

// checkpointWith writes a rollup checkpoint with the given geometry and one
// ingested session, returning its path.
func checkpointWith(t *testing.T, cfg gamelens.RollupConfig) string {
	t.Helper()
	ru := gamelens.NewRollup(cfg)
	ru.Observe(gamelens.RollupEntry{
		Subscriber: netip.AddrFrom4([4]byte{192, 0, 2, 7}),
		End:        time.Date(2026, 7, 20, 9, 0, 0, 0, time.UTC),
		Title:      "Fortnite",
	})
	path := filepath.Join(t.TempDir(), "rollup.ckpt")
	if err := ru.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestResolveRollupGeometryMismatch(t *testing.T) {
	ckpt := checkpointWith(t, gamelens.RollupConfig{Window: 30 * time.Minute, Buckets: 12})

	// Mismatched -rollup: refused, with the override spelled out.
	if _, _, _, err := resolveRollup(ckpt, time.Hour, false); err == nil {
		t.Fatal("mismatched geometry resumed without -rollup-force")
	} else if !strings.Contains(err.Error(), "-rollup-force") {
		t.Errorf("refusal does not name the override flag: %v", err)
	}

	// -rollup-force: resumes, and the checkpoint's geometry wins.
	ru, info, resumed, err := resolveRollup(ckpt, time.Hour, true)
	if err != nil {
		t.Fatalf("forced resume failed: %v", err)
	}
	if !resumed {
		t.Error("forced resume not reported as resumed")
	}
	if got := ru.Config().Window; got != 30*time.Minute {
		t.Errorf("forced resume window = %v, want the checkpoint's 30m", got)
	}
	// A resumed run's first generation number comes from the recovery scan.
	if info.NextGen != 1 {
		t.Errorf("resume over a bare base checkpoint reports NextGen %d, want 1", info.NextGen)
	}

	// Matching -rollup: resumes without force.
	if _, _, resumed, err := resolveRollup(ckpt, 30*time.Minute, false); err != nil || !resumed {
		t.Errorf("matching geometry refused: resumed=%v err=%v", resumed, err)
	}

	// No -rollup at all: the checkpoint's geometry is simply adopted.
	if ru, _, resumed, err := resolveRollup(ckpt, 0, false); err != nil || !resumed || ru.Config().Window != 30*time.Minute {
		t.Errorf("bare -checkpoint resume broken: resumed=%v err=%v", resumed, err)
	}
}

func TestResolveRollupColdStarts(t *testing.T) {
	// Missing checkpoint file: a cold start with the requested window.
	missing := filepath.Join(t.TempDir(), "missing.ckpt")
	ru, _, resumed, err := resolveRollup(missing, 2*time.Hour, false)
	if err != nil || resumed {
		t.Fatalf("missing checkpoint not a cold start: resumed=%v err=%v", resumed, err)
	}
	if got := ru.Config().Window; got != 2*time.Hour {
		t.Errorf("cold-start window = %v, want 2h", got)
	}
	// No checkpoint configured at all.
	if ru, _, resumed, err := resolveRollup("", time.Hour, false); err != nil || resumed || ru == nil {
		t.Errorf("checkpoint-less start broken: resumed=%v err=%v", resumed, err)
	}
	// A corrupt checkpoint is an error, not a silent cold start — and the
	// recovery scan quarantines the damage aside for inspection.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := resolveRollup(bad, time.Hour, false); err == nil {
		t.Error("corrupt checkpoint resumed as if valid")
	}
	if _, err := os.Stat(bad + ".corrupt-0"); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
}

// TestResolveRollupPicksNewestGeneration pins the crash-recovery startup
// path end to end through the CLI's resolver: a crashed run's periodic
// generation beats a stale base checkpoint, and the next generation number
// continues past everything on disk.
func TestResolveRollupPicksNewestGeneration(t *testing.T) {
	cfg := gamelens.RollupConfig{Window: 30 * time.Minute, Buckets: 12}
	dir := t.TempDir()
	base := filepath.Join(dir, "rollup.ckpt")

	mk := func(path string, clock time.Time) {
		ru := gamelens.NewRollup(cfg)
		ru.Observe(gamelens.RollupEntry{
			Subscriber: netip.AddrFrom4([4]byte{192, 0, 2, 7}),
			End:        clock,
			Title:      "Fortnite",
		})
		if err := ru.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Date(2026, 7, 20, 9, 0, 0, 0, time.UTC)
	mk(base, t0)                           // stale end-of-previous-run checkpoint
	mk(base+".gen-3", t0.Add(time.Minute)) // newer: the crashed run got further

	ru, info, resumed, err := resolveRollup(base, 30*time.Minute, false)
	if err != nil || !resumed {
		t.Fatalf("recovery resume failed: resumed=%v err=%v", resumed, err)
	}
	if info.Generation != 3 {
		t.Errorf("recovered generation %d, want the newer gen-3", info.Generation)
	}
	if info.NextGen != 4 {
		t.Errorf("NextGen = %d, want 4", info.NextGen)
	}
	if got := ru.Clock(); !got.Equal(t0.Add(time.Minute)) {
		t.Errorf("recovered clock %v, want the generation's newer %v", got, t0.Add(time.Minute))
	}
}
