// Command bench is the GameLens benchmark: four tap workloads measured end
// to end through the path cmd/classify uses (Producer.HandleFrame → sharded
// engine → sharded rollup → tiered archive), each with an output check
// against a single-goroutine reference, plus a traced single-goroutine pass
// that prices every layer. See README.md for what each workload and metric
// is and why.
//
// One workload, as the benchmark driver runs it (the last line of standard
// output is the result object):
//
//	bench --workload steady --seed 1 --seconds 8 --trace 0
//
// Everything — all workloads, both passes, every metric by name, a result
// file for -compare and a regenerated PERF.md:
//
//	bench --seed 1
//
// Two result files against the bounds in BENCHMARK.json:
//
//	bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// resultLine is the object the driver reads from the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloadNames = []string{"steady", "background", "churn", "history"}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "steady, background, churn or history (default: all four, both passes)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", nominalSeconds, "how long a run measures on the box the work was sized on; the frozen amount of work is scaled by seconds/8")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics in place of the end-to-end ones")
	dir := fs.String("dir", "", "the benchmark's directory (default: ./bench if it exists, else .)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		*dir = "."
		if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
			*dir = "bench"
		}
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(filepath.Join(*dir, "..", "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}

	outDir := filepath.Join(*dir, "out")
	err := os.MkdirAll(outDir, 0o755)
	var tmp string
	if err == nil {
		tmp, err = os.MkdirTemp(outDir, "tmp-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{shards: numShards(), tmp: tmp, outDir: outDir, train: trainModels}

	if *workload == "" {
		return runAll(e, *dir, *seed, *seconds)
	}
	out, err := runWorkload(e, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	report(os.Stderr, *workload, out)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := json.Marshal(resultLine{
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: pick(defs, out.metrics),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload dispatches one workload by name.
func runWorkload(e *env, name string, seed int64, seconds float64, traced bool) (*outcome, error) {
	if name == "history" {
		return runHistory(&history, e, seed, seconds, traced)
	}
	for _, w := range packetWorkloads {
		if w.name == name {
			return runPacket(w, e, seed, seconds, traced)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// report prints every measured metric by name with its unit, then the
// output-check verdict.
func report(w *os.File, workload string, out *outcome) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		if _, ok := units[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s: %d segments, %d operations attempted, %d failed\n", workload, out.segments, out.attempted, out.failed)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %16.4f %s\n", n, out.metrics[n], units[n])
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
}
