// Command experiments regenerates every table and figure of the paper's
// evaluation from the built-in substrates and prints them as text tables.
//
// Usage:
//
//	experiments [-full] [-seed N] [-only "Table 3,Figure 8"]
//
// The default sizing finishes in a couple of minutes; -full approaches the
// paper's dataset sizes and takes much longer.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"gamelens/internal/experiments"
)

//gamelens:wallclock-ok operator-facing run timing (the "done in" stderr line)
func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	full := flag.Bool("full", false, "paper-scale sizing (slow)")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default all)")
	trainPer := flag.Int("train-per-title", 0, "override training sessions per title")
	testPer := flag.Int("test-per-title", 0, "override test sessions per title")
	minutes := flag.Int("minutes", 0, "override session length in minutes")
	fleetN := flag.Int("fleet", 0, "override fleet session count")
	trees := flag.Int("trees", 0, "override forest size")
	flag.Parse()

	opts := experiments.Options{Seed: *seed}
	if *full {
		opts = experiments.Full()
		opts.Seed = *seed
	}
	if *trainPer > 0 {
		opts.TrainPerTitle = *trainPer
	}
	if *testPer > 0 {
		opts.TestPerTitle = *testPer
	}
	if *minutes > 0 {
		opts.SessionMinutes = *minutes
	}
	if *fleetN > 0 {
		opts.FleetSessions = *fleetN
	}
	if *trees > 0 {
		opts.Trees = *trees
	}

	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToLower(id)] = true
		}
	}
	want := func(id string) bool {
		return len(wanted) == 0 || wanted[strings.ToLower(id)]
	}

	start := time.Now()
	in := &experiments.Inputs{Opts: opts, Logf: log.Printf}
	for _, e := range experiments.All() {
		if !want(e.ID) {
			continue
		}
		r, err := e.Run(in)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Println(r)
	}

	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Second))
}
