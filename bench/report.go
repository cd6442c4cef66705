package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// conditions are what a result was measured under; every result file
// carries them, so two files can be told apart before they are compared.
type conditions struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Shards     int     `json:"shards"`
	TmpFS      string  `json:"tmpdir_filesystem"`
}

func readConditions(e *env, dir string, seed int64, seconds float64) conditions {
	c := conditions{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: "unknown", CPUModel: "unknown", Seed: seed, Seconds: seconds, Shards: e.shards, TmpFS: "unknown",
	}
	if out, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD").Output(); err == nil {
		c.GitRev = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				c.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The filesystem under the scratch directory: the mount with the longest
	// matching prefix.
	if abs, err := filepath.Abs(e.tmp); err == nil {
		if f, err := os.Open("/proc/mounts"); err == nil {
			best := 0
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				fields := strings.Fields(sc.Text())
				if len(fields) >= 3 && strings.HasPrefix(abs, fields[1]) && len(fields[1]) > best {
					best, c.TmpFS = len(fields[1]), fields[2]
				}
			}
			f.Close()
		}
	}
	return c
}

// workloadResult is one workload's share of a result file. EndToEnd holds
// one sample per untraced run, so that -compare can see the spread.
type workloadResult struct {
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Segments  int                  `json:"segments"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
}

// resultFile is what `bench` without -workload writes to out/result.json.
type resultFile struct {
	Conditions conditions                 `json:"conditions"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// untracedRuns is how many untraced runs per workload the run-everything
// command makes (seeds N, N+1, ...); their spread goes into the result file
// for -compare.
const untracedRuns = 3

// runAll runs every workload, untraced then traced, prints every metric by
// name, writes out/result.json and regenerates PERF.md. It fails on any
// output check.
func runAll(e *env, dir string, seed int64, seconds float64) int {
	res := resultFile{Conditions: readConditions(e, dir, seed, seconds), Workloads: map[string]*workloadResult{}}
	perf := map[string]*outcome{}
	bad := int64(0)
	for _, name := range workloadNames {
		wr := &workloadResult{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		res.Workloads[name] = wr
		for i := 0; i < untracedRuns; i++ {
			out, err := runWorkload(e, name, seed+int64(i), seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			report(os.Stderr, name, out)
			wr.Attempted, wr.Failed, wr.Segments = wr.Attempted+out.attempted, wr.Failed+out.failed, out.segments
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = append(wr.EndToEnd[d.Name], out.metrics[d.Name])
			}
		}
		out, err := runWorkload(e, name, seed, seconds, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		report(os.Stderr, name+" (traced)", out)
		wr.Failed += out.failed
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = out.metrics[d.Name]
		}
		perf[name] = out
		bad += wr.Failed
	}
	path := filepath.Join(e.outDir, "result.json")
	doc, err := json.MarshalIndent(&res, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(doc, '\n'), 0o644)
	}
	if err == nil {
		err = writePerfMD(filepath.Join(dir, "PERF.md"), &res, perf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %s and %s\n", path, filepath.Join(dir, "PERF.md"))
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d operations failed their output checks\n", bad)
		return 1
	}
	return 0
}

// writePerfMD renders the per-layer cost table of each workload: mean ns
// per call, calls per unit of work, their product, and the products summed
// beside the fused single-goroutine figure with the residual between them.
func writePerfMD(path string, res *resultFile, perf map[string]*outcome) error {
	var b strings.Builder
	c := res.Conditions
	fmt.Fprintf(&b, "# Per-layer cost table\n\nGenerated by `bench --seed %d --seconds %g`; do not edit. How to read it: README.md, \"Reading the trace and PERF.md\".\n\n", c.Seed, c.Seconds)
	fmt.Fprintf(&b, "Conditions: %s, %d CPUs (GOMAXPROCS %d), %s, git %s, %d engine shard(s), scratch on %s.\n", c.CPUModel, c.NProc, c.GOMAXPROCS, c.GoVersion, c.GitRev, c.Shards, c.TmpFS)
	for _, name := range workloadNames {
		out := perf[name]
		if out == nil {
			continue
		}
		m := out.metrics
		unit := "frame"
		if name == "history" {
			unit = "report"
		}
		fmt.Fprintf(&b, "\n## %s\n\n| layer | ns/call | calls/%s | ns/%s |\n| --- | ---: | ---: | ---: |\n", name, unit, unit)
		var total float64
		for _, r := range out.perf {
			layer := r.Layer
			if r.Depth > 0 {
				layer = strings.Repeat("&nbsp;&nbsp;", r.Depth) + "of which " + layer
			} else {
				total += r.NsPerCall * r.PerUnit
			}
			fmt.Fprintf(&b, "| %s | %.1f | %.5f | %.1f |\n", layer, r.NsPerCall, r.PerUnit, r.NsPerCall*r.PerUnit)
		}
		if name == "history" {
			fmt.Fprintf(&b, "| **sum of layers** | | | **%.1f** |\n", total)
			wall := m["wall_ns_per_op"]
			fmt.Fprintf(&b, "| wall per report over the timed hours | | | %.1f |\n", wall)
			fmt.Fprintf(&b, "| residual (hour loop, entry generation excluded) | | | %.1f%% |\n", 100*ratio(wall-total, wall))
			continue
		}
		single := m["core.single_ns_per_pkt"]
		fmt.Fprintf(&b, "| **packet.decode + core.handle (split, traced)** | | | **%.1f** |\n", total)
		fmt.Fprintf(&b, "| core.single_ns_per_pkt (fused, untraced) | | | %.1f |\n", single)
		fmt.Fprintf(&b, "| core.residual_share | | | %.1f%% |\n", 100*m["core.residual_share"])
		fmt.Fprintf(&b, "\nBeside the stream baseline: packet.peek %.1f ns/frame and gen %.1f ns/frame (%.1f%% of the baseline) on the generator goroutine; engine wall %.1f ns/frame (speedup %.2f), engine CPU %.1f ns/frame (%.2fx the baseline); traced pass overhead %.0f%%.\n",
			m["packet.peek_ns"], m["gen.ns_per_pkt"], 100*ratio(m["gen.ns_per_pkt"], single),
			m["engine.wall_ns_per_pkt"], m["engine.speedup"], m["cpu_ns_per_op"], m["engine.cpu_over_single"], 100*m["trace.overhead_share"])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
