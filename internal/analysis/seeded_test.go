package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gamelens/internal/analysis"
)

// The seeded-violation check is the suite's acceptance test: copy the real
// module aside, inject one canonical violation per invariant, and assert
// the right analyzer catches each — while the pristine copy reports zero
// findings. This proves the gate guards the actual codebase, not just the
// synthetic fixtures.

// copyModule copies the repo's Go sources (and go.mod) into a temp dir,
// skipping VCS metadata and the analyzer fixtures.
func copyModule(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if de.IsDir() {
			name := de.Name()
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(path, ".go") && de.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func runOver(t *testing.T, root string, patterns ...string) []analysis.Diagnostic {
	t.Helper()
	reg, unknown, err := analysis.ScanModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range unknown {
		t.Errorf("%s: unknown gamelens directive %q", d.Pos, d.Key)
	}
	pkgs, err := analysis.Load(root, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Run(pkgs, reg, analysis.Analyzers())
}

func TestSeededViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-analyzes the module")
	}
	root := copyModule(t)

	// The pristine copy must be clean — the suite's zero-findings baseline.
	t.Run("CleanHEAD", func(t *testing.T) {
		if diags := runOver(t, root, "./..."); len(diags) != 0 {
			for _, d := range diags {
				t.Errorf("clean HEAD finding: %s", d)
			}
		}
	})

	scenarios := []struct {
		name     string
		path     string // injected file, relative to the module root
		pattern  string // package pattern to analyze
		analyzer string
		substr   string
		src      string
	}{
		{
			name:     "RetainedBorrowedView",
			path:     "internal/mlkit/zz_seeded_violation.go",
			pattern:  "./internal/mlkit",
			analyzer: "borrowcheck",
			substr:   "borrowed view stored to field dist",
			src: `package mlkit

type zzKeeper struct{ dist []float64 }

func (k *zzKeeper) zzRetain(t *Tree, x []float64) {
	k.dist = t.PredictProba(x)
}
`,
		},
		{
			name:     "BorrowedOnSinkType",
			path:     "internal/core/zz_seeded_violation.go",
			pattern:  "./internal/core",
			analyzer: "directives",
			substr:   `"borrowed" does not apply to a type declaration`,
			src: `package core

//gamelens:borrowed the report is lent for the duration of the call
type zzSink func(*SessionReport)
`,
		},
		{
			name:     "AppendInNoAllocFn",
			path:     "internal/sketch/zz_seeded_violation.go",
			pattern:  "./internal/sketch",
			analyzer: "noalloc",
			substr:   "append without a capacity proof",
			src: `package sketch

//gamelens:noalloc
func zzHot(dst []float64, v float64) []float64 {
	return append(dst, v)
}
`,
		},
		{
			name:     "TimeNowInEngine",
			path:     "internal/engine/zz_seeded_violation.go",
			pattern:  "./internal/engine",
			analyzer: "wallclock",
			substr:   "time.Now reads the wall clock",
			src: `package engine

import "time"

func zzStamp() time.Time { return time.Now() }
`,
		},
		{
			name:     "UnsortedMapRangeInSnapshot",
			path:     "internal/rollup/zz_seeded_violation.go",
			pattern:  "./internal/rollup",
			analyzer: "detjson",
			substr:   "map iteration in serialization function zzSnapshotKeys",
			src: `package rollup

func zzSnapshotKeys(m map[string]int64) int {
	n := 0
	for range m {
		n++
	}
	return n
}
`,
		},
		{
			name:     "ProducerSharedAcrossGoroutines",
			path:     "internal/engine/zz_seeded_violation.go",
			pattern:  "./internal/engine",
			analyzer: "spscaffinity",
			substr:   "handed to a second goroutine",
			src: `package engine

import "sync"

func zzShare(p *Producer, wg *sync.WaitGroup) {
	go func() {
		defer wg.Done()
		p.Flush()
	}()
	go func() {
		defer wg.Done()
		p.Flush()
	}()
}
`,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			target := filepath.Join(root, sc.path)
			if err := os.WriteFile(target, []byte(sc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.Remove(target)
			diags := runOver(t, root, sc.pattern)
			for _, d := range diags {
				if d.Analyzer == sc.analyzer && strings.Contains(d.Message, sc.substr) {
					return // caught
				}
			}
			t.Fatalf("seeded %s violation not caught; findings: %v", sc.analyzer, diags)
		})
	}
}
