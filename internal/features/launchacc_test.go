package features

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/race"
	"gamelens/internal/trace"
)

const (
	testWindow = 5 * time.Second
	testSlot   = time.Second
)

// sameAttrs fails unless the two vectors are equal attribute for attribute
// with == — the accumulator claims the replaced batch body's exact floats,
// not an approximation of them.
func sameAttrs(t testing.TB, what string, got, want []float64) {
	t.Helper()
	names := LaunchAttrNames()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: attribute %d (%s) = %v, reference %v", what, i, names[i], got[i], want[i])
		}
	}
}

// labConfigs enumerates every client configuration of Table 2: each
// profile at each admissible resolution and frame rate.
func labConfigs() []gamesim.ClientConfig {
	var out []gamesim.ClientConfig
	for _, p := range gamesim.LabProfiles() {
		for res := p.MinRes; res <= p.MaxRes; res++ {
			for _, fps := range p.FPSChoices {
				out = append(out, gamesim.ClientConfig{Device: p.Device, OS: p.OS, Software: p.Software, Resolution: res, FPS: fps})
			}
		}
	}
	return out
}

// TestLaunchAccumulatorMatchesBatchReference is the identity the streaming
// window rests on: over gamesim launches of every catalog title under every
// client configuration (40 generator seeds), at the deployed geometry and
// across the Fig 8 grid — including the (N, T) pairs where T does not
// divide N — the accumulator yields exactly the replaced batch body's 51
// attributes.
func TestLaunchAccumulatorMatchesBatchReference(t *testing.T) {
	geoms := [][2]time.Duration{
		{time.Second, 100 * time.Millisecond}, {3 * time.Second, 500 * time.Millisecond},
		{time.Second, 2 * time.Second}, {3 * time.Second, 2 * time.Second}, {5 * time.Second, 2 * time.Second},
		{10 * time.Second, time.Second},
	}
	gcfg := DefaultGroupConfig()
	combo := 0
	for _, title := range gamesim.Catalog() {
		for _, cfg := range labConfigs() {
			seed := int64(combo % 40)
			rng := rand.New(rand.NewSource(seed*7919 + int64(title.ID)))
			pkts := gamesim.GenerateLaunch(title, cfg, gamesim.LabNetwork(), rng, 7*time.Second)
			what := title.Name + " " + cfg.String()
			sameAttrs(t, what, LaunchAttributes(pkts, testWindow, testSlot, gcfg), refLaunchAttributes(pkts, testWindow, testSlot, gcfg))
			if combo%9 == 0 {
				g := geoms[combo/9%len(geoms)]
				long := gamesim.GenerateLaunch(title, cfg, gamesim.LabNetwork(), rng, g[0]+3*time.Second)
				sameAttrs(t, what+" "+g[0].String()+"/"+g[1].String(),
					LaunchAttributes(long, g[0], g[1], gcfg), refLaunchAttributes(long, g[0], g[1], gcfg))
			}
			combo++
		}
	}
	if combo < 40 {
		t.Fatalf("only %d title × configuration launches compared", combo)
	}
}

// TestLaunchAccumulatorEdgeCases compares hand-made windows with the batch
// reference: the shapes a generated launch rarely has.
func TestLaunchAccumulatorEdgeCases(t *testing.T) {
	at := func(ms int, size int) trace.Pkt {
		return trace.Pkt{T: time.Duration(ms) * time.Millisecond, Dir: trace.Down, Size: size}
	}
	run := func(n int, startMs, stepMs int, size func(i int) int) []trace.Pkt {
		var out []trace.Pkt
		for i := 0; i < n; i++ {
			out = append(out, at(startMs+i*stepMs, size(i)))
		}
		return out
	}
	full := func(int) int { return 1432 }
	steady := func(i int) int { return 600 + i%3 }
	sparse := func(i int) int { return 80 + (i*397)%1200 }
	cat := func(parts ...[]trace.Pkt) []trace.Pkt {
		var out []trace.Pkt
		for _, p := range parts {
			out = append(out, p...)
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
		return out
	}
	cases := map[string][]trace.Pkt{
		"empty window":              nil,
		"upstream only":             {{T: time.Second, Dir: trace.Up, Size: 60}},
		"one packet in one slot":    {at(2500, 700)},
		"one packet per slot":       run(5, 100, 1000, steady),
		"all full":                  run(400, 0, 12, full),
		"all sparse":                run(400, 3, 12, sparse),
		"no sparse group in slot 1": cat(run(80, 0, 12, sparse), run(80, 1000, 12, steady), run(80, 2000, 12, sparse)),
		"even sample counts":        cat(run(10, 0, 90, full), run(8, 1010, 100, steady), run(6, 2005, 150, sparse)),
		"odd sample counts":         cat(run(11, 0, 85, full), run(9, 1010, 100, steady), run(7, 2005, 130, sparse)),
		"two samples per group":     cat(run(2, 10, 400, full), run(2, 20, 400, steady)),
		"on slot and window edges":  {at(0, 500), at(999, 505), at(1000, 498), at(1999, 1432), at(2000, 90), at(4999, 700), at(5000, 701), at(5999, 702), at(6000, 703)},
		"capture shorter than N":    cat(run(150, 0, 14, steady), run(40, 7, 50, full)),
		"shared timestamps":         {at(100, 500), at(100, 1432), at(100, 90), at(100, 505), at(1100, 300), at(1100, 300)},
		"gap of empty slots":        cat(run(50, 0, 10, steady), run(50, 4000, 10, sparse)),
		"zero-size payloads":        cat(run(20, 0, 40, func(int) int { return 0 }), run(20, 20, 40, steady)),
	}
	geoms := [][2]time.Duration{{testWindow, testSlot}, {5 * time.Second, 2 * time.Second}, {2500 * time.Millisecond, time.Second}, {0, time.Second}}
	for name, pkts := range cases {
		for _, g := range geoms {
			for _, gcfg := range []GroupConfig{DefaultGroupConfig(), {}, {MaxPayload: 1200, V: 0.01, Neighbors: 1}} {
				sameAttrs(t, name+" "+g[0].String()+"/"+g[1].String(),
					LaunchAttributes(pkts, g[0], g[1], gcfg), refLaunchAttributes(pkts, g[0], g[1], gcfg))
			}
		}
	}
}

// TestLaunchAccumulatorIgnoresOutOfWindow pins the crash fix at its
// source: a packet stamped before the flow's first packet made the batch
// body index slot -1 and panic; the accumulator drops it, as it drops
// packets past the window, and the vector is that of the launch without
// them. A forced early Finish (capture shorter than the window) and a
// reused accumulator are covered on the way.
func TestLaunchAccumulatorIgnoresOutOfWindow(t *testing.T) {
	pkts := launchPkts(1432, 900, 1)
	want := refLaunchAttributes(pkts, testWindow, testSlot, DefaultGroupConfig())
	var a LaunchAccumulator
	var sc LaunchScratch
	var got [NumLaunchAttrs]float64
	for run := 0; run < 2; run++ {
		a.Reset(testWindow, testSlot, DefaultGroupConfig(), &sc)
		a.Add(-1500*time.Millisecond, 1432)
		a.Add(-1, 700)
		for i, p := range pkts {
			if p.Dir == trace.Down {
				a.Add(p.T, p.Size)
			}
			if i == len(pkts)/2 {
				a.Add(-2*time.Second, 90)
				a.Add(time.Hour, 1432)
				a.Add(1<<62, 1432)
			}
		}
		if a.Done(testWindow) || !a.Done(testWindow+testSlot) {
			t.Fatal("Done must turn true exactly one slot width past the window")
		}
		sameAttrs(t, "stray timestamps", a.Finish(got[:]), want)
	}

	short := pkts[:len(pkts)/3] // ends in slot 1: Finish closes slots the stream never reached
	a.Reset(testWindow, testSlot, DefaultGroupConfig(), &sc)
	a.AddPkts(short)
	sameAttrs(t, "short capture", a.Finish(got[:]), refLaunchAttributes(short, testWindow, testSlot, DefaultGroupConfig()))
}

// TestLaunchAccumulatorReorderHorizon is the reordering contract: however
// packets are permuted, as long as each arrives before any packet a full
// slot width newer, the vector is the in-order one; a packet later than
// that is ignored, and the vector is the in-order one without it.
func TestLaunchAccumulatorReorderHorizon(t *testing.T) {
	gcfg := DefaultGroupConfig()
	var a LaunchAccumulator
	var sc LaunchScratch
	var got [NumLaunchAttrs]float64
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		title := gamesim.Catalog()[int(seed)%len(gamesim.Catalog())]
		pkts := downOnly(gamesim.GenerateLaunch(title, gamesim.RandomConfig(rng), gamesim.LabNetwork(), rng, 7*time.Second))
		want := refLaunchAttributes(pkts, testWindow, testSlot, gcfg)

		a.Reset(testWindow, testSlot, gcfg, &sc)
		a.AddPkts(boundedShuffle(pkts, testSlot, rng))
		sameAttrs(t, "bounded reordering", a.Finish(got[:]), want)

		// Hold one in-window packet back by more than the horizon.
		i := rng.Intn(len(pkts) / 2)
		for pkts[i].T >= testWindow-2*testSlot {
			i /= 2
		}
		late := pkts[i]
		without := append(append([]trace.Pkt(nil), pkts[:i]...), pkts[i+1:]...)
		a.Reset(testWindow, testSlot, gcfg, &sc)
		sent := false
		for _, p := range without {
			a.Add(p.T, p.Size)
			if !sent && p.T >= (late.T/testSlot+2)*testSlot {
				a.Add(late.T, late.Size) // p has just closed its slot
				sent = true
			}
		}
		if !sent {
			t.Fatal("the held-back packet was never delivered")
		}
		sameAttrs(t, "packet past the horizon", a.Finish(got[:]), refLaunchAttributes(without, testWindow, testSlot, gcfg))
	}
}

// downOnly returns the downstream packets of pkts with strictly increasing
// timestamps (a packet sharing its predecessor's is dropped), so a
// permutation of them has one sorted order.
func downOnly(pkts []trace.Pkt) []trace.Pkt {
	var out []trace.Pkt
	for _, p := range pkts {
		if p.Dir == trace.Down && (len(out) == 0 || p.T > out[len(out)-1].T) {
			out = append(out, p)
		}
	}
	return out
}

// boundedShuffle permutes time-sorted pkts so that no packet arrives after
// one a full horizon newer: it shuffles within consecutive chunks spanning
// less than the horizon, chunk boundaries drawn at random.
func boundedShuffle(pkts []trace.Pkt, horizon time.Duration, rng *rand.Rand) []trace.Pkt {
	out := append([]trace.Pkt(nil), pkts...)
	for lo := 0; lo < len(out); {
		span := time.Duration(rng.Int63n(int64(horizon)))
		hi := lo + 1
		for hi < len(out) && out[hi].T-out[lo].T < span {
			hi++
		}
		chunk := out[lo:hi]
		rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		lo = hi
	}
	return out
}

// TestLaunchAccumulatorAddAllocs pins the streaming window at zero
// allocations once its buffers are warm: a whole launch — every Add, every
// slot close it triggers, and Finish — on a reused accumulator and scratch.
func TestLaunchAccumulatorAddAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	pkts := launchPkts(1432, 900, 0)
	var a LaunchAccumulator
	var sc LaunchScratch
	var dst [NumLaunchAttrs]float64
	launch := func() {
		a.Reset(testWindow, testSlot, DefaultGroupConfig(), &sc)
		a.AddPkts(pkts)
		a.Finish(dst[:])
	}
	launch() // warm-up: grow the slot buffers and the scratch
	if n := testing.AllocsPerRun(50, launch); n != 0 {
		t.Fatalf("a warm launch window allocates %.1f/op, want 0", n)
	}
}

// TestMedianSelectionMatchesSort checks the selection median against the
// sorted one on the orders that hurt a quickselect: sorted, reversed,
// organ-pipe, constant, two-valued, and random with heavy ties, odd and
// even lengths — including inputs long enough to exhaust the partitioning
// budget's slack.
func TestMedianSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gens := map[string]func(i, n int) float64{
		"sorted":     func(i, n int) float64 { return float64(i) },
		"reversed":   func(i, n int) float64 { return float64(n - i) },
		"organ pipe": func(i, n int) float64 { return float64(min(i, n-i)) },
		"constant":   func(i, n int) float64 { return 1432 },
		"two values": func(i, n int) float64 { return float64(i % 2) },
		"ties":       func(i, n int) float64 { return float64(rng.Intn(7)) },
		"random":     func(i, n int) float64 { return rng.NormFloat64() },
		"sawtooth":   func(i, n int) float64 { return float64(i % 17) },
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 100, 101, 1024, 4097} {
			v := make([]float64, n)
			for i := range v {
				v[i] = gen(i, n)
			}
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			want := sorted[n/2]
			if n%2 == 0 {
				want = (sorted[n/2-1] + sorted[n/2]) / 2
			}
			if got := median(v); got != want {
				t.Fatalf("%s n=%d: median %v, sorted median %v", name, n, got, want)
			}
		}
	}
}
