package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/race"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// launchFeeder replays one flow's payload records into a pipeline through
// HandleSummary, in whatever order it is handed them.
type launchFeeder struct {
	p     *Pipeline
	fb    *gamesim.FrameBuilder
	start time.Time
	fs    *FlowSession
}

func newLaunchFeeder(p *Pipeline, flow int) *launchFeeder {
	return &launchFeeder{p: p, fb: gamesim.NewFrameBuilder(gamesim.FlowEndpoints(flow)),
		start: time.Date(2026, 6, 1, 8, 0, 0, 0, time.UTC)}
}

func (f *launchFeeder) feed(t testing.TB, pkts ...trace.Pkt) {
	t.Helper()
	var s packet.Summary
	for _, pkt := range pkts {
		if err := packet.Summarize(f.fb.Build(pkt), &s); err != nil {
			t.Fatal(err)
		}
		if fs := f.p.HandleSummary(f.start.Add(pkt.T), &s); fs != nil {
			f.fs = fs
		}
	}
}

// testLaunch generates the first 8 s of a session and splits it where the
// flow is certainly established (the detector wants 200 downstream packets
// before the session exists, and what precedes adoption never reaches it):
// head must be fed in order, rest is the launch the tests rearrange.
func testLaunch(seed int64) (head, rest []trace.Pkt) {
	rng := rand.New(rand.NewSource(seed))
	title := gamesim.Catalog()[int(seed)%len(gamesim.Catalog())]
	pkts := gamesim.GenerateLaunch(title, gamesim.RandomConfig(rng), gamesim.LabNetwork(), rng, 8*time.Second)
	var out []trace.Pkt
	for _, p := range pkts { // strictly increasing timestamps: one sorted order
		if len(out) == 0 || p.T > out[len(out)-1].T {
			out = append(out, p)
		}
	}
	down := 0
	for i, p := range out {
		if p.Dir == trace.Down {
			down++
		}
		if down == 400 {
			return out[:i+1], out[i+1:]
		}
	}
	panic("launch too thin to establish the flow")
}

// decided replays head then rest into a fresh pipeline and returns the
// flow's title decision, which the packets past the window must have
// triggered on their own.
func decided(t *testing.T, head, rest []trace.Pkt) titleclass.Result {
	t.Helper()
	tm, sm := models(t)
	f := newLaunchFeeder(New(Config{}, tm, sm), 1)
	f.feed(t, head...)
	if f.fs == nil {
		t.Fatal("flow not established by the head of the launch")
	}
	f.feed(t, rest...)
	if !f.fs.TitleDecided || f.fs.launch != nil {
		t.Fatal("title undecided after packets past the window")
	}
	return f.fs.Title
}

// TestDecideTitleOutOfOrderLaunch is the pipeline's reordering contract for
// the title decision. It used to shuffle a flow's whole buffered launch
// window and expect the in-order answer, because decideTitle sorted the
// buffer: six seconds of tolerance that cost every flow a six-second
// packet buffer, and that no tap needs — multi-queue capture reorders one
// flow's packets by microseconds to milliseconds. The streaming window
// keeps one attribute slot (T = 1 s) of tolerance instead: any arrival
// order in which no packet trails one a full slot newer gives exactly the
// in-order decision, and a packet later than that is left out of the
// decision — the answer is the in-order one for the launch without it.
func TestDecideTitleOutOfOrderLaunch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	seeds := int64(6)
	if race.Enabled {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		head, rest := testLaunch(seed)
		want := decided(t, head, rest)
		rng := rand.New(rand.NewSource(seed + 100))

		// Shuffle within chunks spanning less than the slot width.
		shuffled := append([]trace.Pkt(nil), rest...)
		for lo := 0; lo < len(shuffled); {
			span := time.Duration(rng.Int63n(int64(time.Second)))
			hi := lo + 1
			for hi < len(shuffled) && shuffled[hi].T-shuffled[lo].T < span {
				hi++
			}
			chunk := shuffled[lo:hi]
			rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
			lo = hi
		}
		if got := decided(t, head, shuffled); got != want {
			t.Fatalf("seed %d: reordering within the horizon decided %v, in order %v", seed, got, want)
		}

		// Deliver one downstream packet of slot 1 after slot 3 has begun.
		var late trace.Pkt
		var without, delayed []trace.Pkt
		for _, p := range rest {
			if late.T == 0 && p.Dir == trace.Down && p.T >= 1500*time.Millisecond {
				late = p
				continue
			}
			without = append(without, p)
			delayed = append(delayed, p)
			if late.T != 0 && late.Size >= 0 && p.Dir == trace.Down && p.T >= 3*time.Second {
				delayed = append(delayed, late)
				late.Size = -1
			}
		}
		if got, want := decided(t, head, delayed), decided(t, head, without); got != want {
			t.Fatalf("seed %d: a packet past the horizon changed the decision: %v, without it %v", seed, got, want)
		}
	}
}

// TestStrayEarlyFrameTitleDecision is the crash regression: a launch-window
// frame stamped two seconds before the flow's first packet (a garbled or
// crafted capture record) gave the batch extractor a negative slot index
// and panicked the worker at the title decision. It must be ignored: no
// panic, and the decision of the launch without it.
func TestStrayEarlyFrameTitleDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	head, rest := testLaunch(3)
	want := decided(t, head, rest)
	stray := trace.Pkt{T: -2 * time.Second, Dir: trace.Down, Size: 1200}
	withStray := append(append([]trace.Pkt{stray}, rest[:50]...), stray)
	withStray = append(withStray, rest[50:]...)
	if got := decided(t, head, withStray); got != want {
		t.Fatalf("decision with a frame stamped before the flow's start = %v, without it %v", got, want)
	}
}

// TestDecidedFlowHoldsNoLaunchState is the leak regression: after the
// title decision a reordered frame stamped back inside the window used to
// regrow a launch buffer on the decided flow that nothing read or recycled.
// A decided flow has no launch state to regrow, and its decision stands.
func TestDecidedFlowHoldsNoLaunchState(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	p := New(Config{}, tm, sm)
	f := newLaunchFeeder(p, 2)
	head, rest := testLaunch(4)
	f.feed(t, head...)
	f.feed(t, rest...)
	if !f.fs.TitleDecided {
		t.Fatal("title undecided after packets past the window")
	}
	title := f.fs.Title
	f.feed(t, trace.Pkt{T: 2 * time.Second, Dir: trace.Down, Size: 1432}, trace.Pkt{T: 5500 * time.Millisecond, Dir: trace.Down, Size: 700})
	if f.fs.launch != nil {
		t.Fatal("a late in-window frame gave a decided flow launch state again")
	}
	if !f.fs.TitleDecided || f.fs.Title != title {
		t.Fatalf("decision moved from %v to %v (decided=%v)", title, f.fs.Title, f.fs.TitleDecided)
	}
	if len(p.launchFree) != 1 {
		t.Fatalf("%d accumulators on the free list, want the decided flow's one", len(p.launchFree))
	}
}

// TestLaunchMemoryRetention pins what steady-state heap rests on: once its
// flows have decided their titles, a pipeline holds launch-window memory
// for none of them — only the capped free list and the shared scratch,
// measured here as the live heap that dropping those two releases — however
// many flows went through. 256 concurrent launches make the peak; the
// bound is a fixed 256 KB, not a function of the flow count.
func TestLaunchMemoryRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	if race.Enabled {
		t.Skip("heap sizes are only meaningful in the plain build")
	}
	tm, sm := models(t)
	p := New(Config{}, tm, sm)
	const flows = 256
	var launches [16][]trace.Pkt
	for i := range launches {
		head, rest := testLaunch(int64(i))
		launches[i] = append(head, rest...)
	}
	pkts := make([][]trace.Pkt, flows)
	eps := make([]gamesim.Endpoints, flows)
	starts := make([]time.Time, flows)
	for i := range pkts {
		pkts[i], eps[i] = launches[i%len(launches)], gamesim.FlowEndpoints(i)
		starts[i] = time.Date(2026, 6, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond)
	}
	var s packet.Summary
	gamesim.ReplayRawFrames(pkts, eps, starts, func(ts time.Time, frame []byte) {
		if err := packet.Summarize(frame, &s); err != nil {
			t.Fatal(err)
		}
		p.HandleSummary(ts, &s)
	})
	sessions := p.Sessions()
	if len(sessions) != flows {
		t.Fatalf("%d sessions, want %d", len(sessions), flows)
	}
	for _, fs := range sessions {
		if !fs.TitleDecided || fs.launch != nil {
			t.Fatalf("%v: decided=%v, accumulator held=%v", fs.Flow.Key, fs.TitleDecided, fs.launch != nil)
		}
	}
	if n := len(p.launchFree); n == 0 || n > launchFreeMax {
		t.Fatalf("%d accumulators on the free list, want 1..%d", n, launchFreeMax)
	}

	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	p.launchFree, p.titleSc = nil, titleclass.Scratch{}
	after := live()
	const bound = 256 << 10
	if retained := int64(before) - int64(after); retained > bound {
		t.Fatalf("pipeline retained %d B of launch memory after %d decisions, want at most %d", retained, flows, bound)
	} else {
		t.Logf("launch memory retained after %d decisions: %d B", flows, retained)
	}
	runtime.KeepAlive(sessions)
}
