package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gamelens/internal/analysis"
)

// The fixture harness is a minimal analysistest: each testdata/src/<name>
// directory is its own module whose sources carry `// want "substring"`
// markers on the lines where a finding is expected. Running the full suite
// over the fixture must produce exactly the marked findings — an unmarked
// finding or an unmatched marker fails the test.

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

func fixtureRoot(t *testing.T, name string) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func runFixture(t *testing.T, name string) []analysis.Diagnostic {
	t.Helper()
	root := fixtureRoot(t, name)
	reg, _, err := analysis.ScanModule(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Run(pkgs, reg, analysis.Analyzers())
}

func checkFixture(t *testing.T, name string) {
	t.Helper()
	diags := runFixture(t, name)

	type want struct {
		substr  string
		matched bool
	}
	wants := map[string][]*want{} // "absfile:line" -> expectations
	root := fixtureRoot(t, name)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(root, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], &want{substr: m[1]})
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected a finding containing %q, got none", key, w.substr)
			}
		}
	}
}

func TestWallclockFixture(t *testing.T)    { checkFixture(t, "wallclock") }
func TestDetJSONFixture(t *testing.T)      { checkFixture(t, "detjson") }
func TestNoAllocFixture(t *testing.T)      { checkFixture(t, "noalloc") }
func TestBorrowCheckFixture(t *testing.T)  { checkFixture(t, "borrowcheck") }
func TestSPSCAffinityFixture(t *testing.T) { checkFixture(t, "spscaffinity") }

// TestDirectiveTypoFixture pins that a misspelled //gamelens: key is itself
// a finding rather than a silently ignored comment.
func TestDirectiveTypoFixture(t *testing.T) {
	diags := runFixture(t, "directives")
	if len(diags) != 1 {
		t.Fatalf("want exactly the typo finding, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, `unknown gamelens directive "noallocc"`) {
		t.Fatalf("typo finding has the wrong message: %s", diags[0])
	}
}

// TestRepoDirectivesKnown is the meta-check over the real module: every
// //gamelens: directive anywhere in the repo (tests included, fixtures
// excluded) must name a known key, and the registry must have picked up the
// load-bearing annotations the analyzers depend on.
func TestRepoDirectivesKnown(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	reg, unknown, err := analysis.ScanModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range unknown {
		t.Errorf("%s: unknown gamelens directive %q", d.Pos, d.Key)
	}
	for key, directive := range map[string]string{
		"gamelens/internal/mlkit.Tree.PredictProba":             "borrowed",
		"gamelens/internal/features.StageFeatureExtractor.Push": "borrowed",
		"gamelens/internal/sketch.Sketch.Add":                   "noalloc",
		"gamelens/internal/rollup.Rollup.Observe":               "noalloc",
		"gamelens/internal/mlkit.Forest.PredictProbaInto":       "noalloc",
		"gamelens/internal/packet.Summarize":                    "noalloc",
		"gamelens/internal/engine.Engine.drainReports":          "noalloc",
		"gamelens/cmd/experiments.main":                         "wallclock-ok",
	} {
		if !reg.FuncHas(key, directive) {
			t.Errorf("registry is missing %s on %s", directive, key)
		}
	}
	if !reg.TypeHas("gamelens/internal/engine.Producer", "single-goroutine") {
		t.Error("registry is missing single-goroutine on engine.Producer")
	}
}
