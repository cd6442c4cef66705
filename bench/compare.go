package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json -compare reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread is the run-to-run width of a sample as a share of its median: the
// interquartile range when there are at least four values, the full range
// for two or three, and unknown (zero) for one.
func spread(xs []float64) float64 {
	med := median(xs)
	switch {
	case len(xs) >= 4:
		return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), med)
	case len(xs) >= 2:
		return ratio(quantile(xs, 1)-quantile(xs, 0), med)
	}
	return 0
}

// verdict classifies B against A for one metric: how far B's median moved
// in the worse direction, as a share of A's median, against the bound.
func verdict(a, b []float64, better string, bound float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = ratio(mb-ma, ma)
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		v = "unresolved"
	case worse > bound:
		v = "worse"
	case worse < -bound:
		v = "better"
	default:
		v = "same"
	}
	return delta, v
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, for every workload and end-to-end metric, B's move
// against A and its verdict under the bound BENCHMARK.json fixes. It exits
// non-zero if anything is worse.
func compareFiles(benchPath, pathA, pathB string) int {
	data, err := os.ReadFile(benchPath)
	var bj benchmarkJSON
	if err == nil {
		err = json.Unmarshal(data, &bj)
	}
	var a, b *resultFile
	if err == nil {
		a, err = loadResult(pathA)
	}
	if err == nil {
		b, err = loadResult(pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ca, _ := json.Marshal(a.Conditions)
	cb, _ := json.Marshal(b.Conditions)
	fmt.Printf("A: %s\nB: %s\n\n", ca, cb)
	fmt.Printf("%-11s %-16s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "delta", "bound", "spread", "verdict")
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	worse := 0
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		if wb == nil {
			continue
		}
		for _, d := range bj.EndToEnd {
			xa, xb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			delta, v := verdict(xa, xb, d.Better, d.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-11s %-16s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				n, d.Name, median(xa), median(xb), 100*delta, 100*d.Bound, 100*max(spread(xa), spread(xb)), v)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("%-11s failed operations: A %d, B %d\n", n, wa.Failed, wb.Failed)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
