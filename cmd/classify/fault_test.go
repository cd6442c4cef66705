package main

// Fault-injected CLI coverage: drives the real run() — flags, recovery
// scan, engine replay, final checkpoint — against an injected filesystem.
// The contract under test is satellite-critical: when the final checkpoint
// cannot be written after bounded retries, classify must exit non-zero
// with the failure named (errCheckpointWrite), never report success over
// stale durable state.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gamelens"
	"gamelens/internal/faultinject"
	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/persist"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
)

var (
	tinyModelsOnce sync.Once
	tinyModels     *gamelens.Models
)

// useTinyModels swaps the CLI's training seam for a small, cached corpus so
// run() starts in well under a second instead of training the full default
// models on every invocation.
func useTinyModels(t *testing.T) {
	t.Helper()
	tinyModelsOnce.Do(func() {
		m, err := gamelens.TrainModels(42, gamelens.TrainOptions{
			SessionsPerTitle: 2,
			SessionLength:    4 * time.Minute,
			TitleConfig:      titleclass.Config{Forest: mlkit.ForestConfig{NumTrees: 8, MaxDepth: 8}},
			StageConfig: stageclass.Config{
				StageForest:   mlkit.ForestConfig{NumTrees: 8, MaxDepth: 8},
				PatternForest: mlkit.ForestConfig{NumTrees: 8, MaxDepth: 8},
			},
		})
		if err != nil {
			panic(err)
		}
		tinyModels = m
	})
	prev := trainModels
	trainModels = func(int64) (*gamelens.Models, error) { return tinyModels, nil }
	t.Cleanup(func() { trainModels = prev })
}

// smallCapture writes a one-session gaming PCAP and returns its path.
func smallCapture(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	sess := gamesim.Generate(0, gamesim.RandomConfig(rng), gamesim.LabNetwork(),
		9100, gamesim.Options{SessionLength: 2 * time.Minute})
	path := filepath.Join(t.TempDir(), "capture.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.WritePCAP(f, time.Date(2026, 7, 21, 8, 0, 0, 0, time.UTC), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// injectFS points the CLI's checkpoint filesystem at a fault-injecting
// wrapper for the duration of the test.
func injectFS(t *testing.T, fs persist.FS) {
	t.Helper()
	prev := ckptFS
	ckptFS = fs
	t.Cleanup(func() { ckptFS = prev })
}

func TestFaultGateFinalCheckpointFailureExitsNonZero(t *testing.T) {
	useTinyModels(t)
	capture := smallCapture(t)
	ckpt := filepath.Join(t.TempDir(), "rollup.ckpt")

	// Every fsync fails with a full disk: the final checkpoint exhausts its
	// retries and run() must surface the named error (→ non-zero exit in
	// main) with the underlying cause still inspectable.
	injectFS(t, faultinject.New(nil, faultinject.FailAll(faultinject.OpSync, faultinject.ErrNoSpace)))
	err := run([]string{"-shards", "2", "-rollup", "30m", "-checkpoint", ckpt, capture}, io.Discard)
	if err == nil {
		t.Fatal("run reported success with an unwritable checkpoint")
	}
	if !errors.Is(err, errCheckpointWrite) {
		t.Errorf("failure not named errCheckpointWrite: %v", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("underlying ENOSPC not preserved: %v", err)
	}
	if _, statErr := os.Stat(ckpt); !os.IsNotExist(statErr) {
		t.Errorf("failed final checkpoint left a target file (stat: %v)", statErr)
	}
}

func TestFaultGateRunCheckpointRoundTrip(t *testing.T) {
	useTinyModels(t)
	capture := smallCapture(t)
	ckpt := filepath.Join(t.TempDir(), "rollup.ckpt")

	// First fsync fails ENOSPC, the bounded retry succeeds: the run exits
	// clean and the checkpoint restores.
	fs := faultinject.New(nil, faultinject.FailNth(faultinject.OpSync, 1, faultinject.ErrNoSpace))
	injectFS(t, fs)
	var out bytes.Buffer
	if err := run([]string{"-shards", "2", "-rollup", "30m", "-checkpoint", ckpt, capture}, &out); err != nil {
		t.Fatalf("run with one transient ENOSPC failed: %v", err)
	}
	if fs.Count(faultinject.OpSync) < 2 {
		t.Errorf("only %d sync attempts observed; the retry never ran", fs.Count(faultinject.OpSync))
	}
	restored, err := gamelens.LoadRollup(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint does not restore: %v", err)
	}

	// And a second run recovers from it: the resolver resumes the restored
	// window rather than starting cold.
	injectFS(t, persist.OS)
	ru, _, resumed, err := resolveRollup(ckpt, 0, false)
	if err != nil || !resumed {
		t.Fatalf("round trip resume failed: resumed=%v err=%v", resumed, err)
	}
	if got, want := ru.Clock(), restored.Clock(); !got.Equal(want) {
		t.Errorf("resumed clock %v, want %v", got, want)
	}
	if !strings.Contains(out.String(), "per-subscriber window") {
		t.Errorf("dashboard missing from run output:\n%s", out.String())
	}
}
