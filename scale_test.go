package gamelens

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestShardScaleGate is the `make scalegate` smoke: shards=GOMAXPROCS must
// not be slower than a single shard on the same capture. It guards the
// monotone shard-scaling property BenchmarkEngineShards measures — the
// regression this gate exists for was a mutex-guarded handoff that made
// more shards *slower* (the inverted curve PR 5's bench run recorded). The
// gate is deliberately loose (0.9× with best-of-three timing) so it only
// trips on a real inversion, never on scheduler noise.
//
// Opt in with SCALEGATE=1: the gate needs wall-clock-meaningful timing and
// a multi-core box, neither of which a plain `go test ./...` run should
// depend on.
func TestShardScaleGate(t *testing.T) {
	if os.Getenv("SCALEGATE") == "" {
		t.Skip("set SCALEGATE=1 (or run `make scalegate`) to run the shard scaling smoke")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skipf("GOMAXPROCS=%d: no parallelism to gate on", procs)
	}
	m := engineModels(t)
	st := engineStream(t)

	// Best of three replays per shard count: the minimum wall time is the
	// least scheduler-disturbed run.
	throughput := func(shards int) float64 {
		best := time.Duration(1<<63 - 1)
		for run := 0; run < 3; run++ {
			eng := NewEngine(EngineConfig{Shards: shards}, m)
			start := time.Now()
			replayParallel(st, eng)
			reports := len(eng.Finish())
			elapsed := time.Since(start)
			if reports != len(st.Flows) {
				t.Fatalf("shards=%d: %d reports, want %d", shards, reports, len(st.Flows))
			}
			if elapsed < best {
				best = elapsed
			}
		}
		return float64(st.Total) / best.Seconds()
	}

	single := throughput(1)
	multi := throughput(procs)
	t.Logf("GOMAXPROCS=%d: 1 shard %.0f pkts/s, %d shards %.0f pkts/s (%.2fx)",
		procs, single, procs, multi, multi/single)
	if multi < 0.9*single {
		t.Fatalf("shard scaling inverted: %d shards run at %.0f pkts/s vs %.0f single-shard (%.2fx, want >= 0.9x)",
			procs, multi, single, multi/single)
	}
}
