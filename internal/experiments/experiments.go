// Package experiments regenerates every table and figure of the paper's
// evaluation from the built-in substrates. Each experiment is one function
// returning a Result whose String method renders the same rows/series the
// paper reports; All lists them, cmd/experiments prints that list and
// bench_test.go times its entries. Absolute numbers come from the synthetic substrate and differ from
// the authors' testbed; each Result's Notes carry the paper's figure for the
// shape comparison.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gamelens/internal/gamesim"
)

// Options sizes an experiment run. The zero value is a fast configuration
// suitable for CI; Full() approaches the paper's dataset sizes.
type Options struct {
	// TrainPerTitle / TestPerTitle are sessions per catalog title.
	TrainPerTitle int
	TestPerTitle  int
	// SessionMinutes bounds generated session lengths (0 = per-title
	// realistic lengths).
	SessionMinutes int
	// FleetSessions sizes the §5 deployment simulations.
	FleetSessions int
	// Trees sizes the random forests (the deployed models use 500/100).
	Trees int
	// Seed drives everything.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.TrainPerTitle <= 0 {
		o.TrainPerTitle = 6
	}
	if o.TestPerTitle <= 0 {
		o.TestPerTitle = 2
	}
	if o.SessionMinutes <= 0 {
		o.SessionMinutes = 20
	}
	if o.FleetSessions <= 0 {
		o.FleetSessions = 150
	}
	if o.Trees <= 0 {
		o.Trees = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Full returns a configuration sized like the paper's evaluation (531 lab
// sessions ≈ 40 per title; full-size forests; a larger fleet). Experiments
// at this size take minutes, not seconds.
func Full() Options {
	return Options{
		TrainPerTitle:  30,
		TestPerTitle:   10,
		SessionMinutes: 0,
		FleetSessions:  2000,
		Trees:          300,
		Seed:           1,
	}
}

// Result is a rendered experiment artifact.
type Result struct {
	ID    string // e.g. "Table 3", "Figure 8"
	Title string
	Table *Table
	// Notes carries shape observations worth recording.
	Notes []string
}

// String renders the result as text.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Table is a simple aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v, floats with 3 decimals.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Corpus is a reusable train/test session split over the catalog, shared by
// the classification experiments.
type Corpus struct {
	Train, Test []*gamesim.Session
	Opts        Options
}

// NewCorpus generates the corpus for the given options.
func NewCorpus(opts Options) *Corpus {
	opts = opts.withDefaults()
	gen := func(perTitle int, seedBase int64) []*gamesim.Session {
		rng := rand.New(rand.NewSource(seedBase))
		var out []*gamesim.Session
		for id := gamesim.TitleID(0); id < gamesim.NumTitles; id++ {
			for i := 0; i < perTitle; i++ {
				cfg := gamesim.RandomConfig(rng)
				out = append(out, gamesim.Generate(id, cfg, gamesim.LabNetwork(),
					seedBase+int64(id)*8191+int64(i)*131,
					gamesim.Options{SessionLength: time.Duration(opts.SessionMinutes) * time.Minute}))
			}
		}
		return out
	}
	return &Corpus{
		Train: gen(opts.TrainPerTitle, opts.Seed*1009),
		Test:  gen(opts.TestPerTitle, opts.Seed*1009+777),
		Opts:  opts,
	}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
