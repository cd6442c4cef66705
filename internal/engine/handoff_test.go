package engine_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/engine"
	"gamelens/internal/flowdetect"
	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/race"
)

// TestProducerFramesMatchPipeline is the raw-frame handoff's sharding
// invariant: flows fed as undecoded Ethernet frames through per-flow
// Producer handles (summarized at ingest) must produce reports identical to
// a single core.Pipeline fed the decoded capture, for every shard count. It
// also covers per-lane FIFO end to end — a reorder inside any
// producer→shard lane would scramble per-flow packet order and diverge the
// slot accounting.
func TestProducerFramesMatchPipeline(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	pipe := core.New(core.Config{}, tm, sm)
	feed(t, st, func(ts time.Time, dec *packet.Decoded, payload []byte) {
		pipe.HandlePacket(ts, dec, payload)
	})
	want := normalize(pipe.Finish())
	if len(want) != streamFlows {
		t.Fatalf("baseline pipeline found %d flows, want %d", len(want), streamFlows)
	}

	shardCounts := []int{1, 2, 4, 8}
	if race.Enabled {
		shardCounts = []int{1, 4}
	}
	for _, shards := range shardCounts {
		eng := engine.New(engine.Config{
			Shards: shards, BatchSize: 16, QueueDepth: 8,
		}, tm, sm)
		var wg sync.WaitGroup
		for i := range st.Flows {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p := eng.Producer()
				defer p.Close()
				st.ReplayOneFrames(i, p.HandleFrame)
			}(i)
		}
		wg.Wait()
		got := normalize(eng.Finish())
		stats := eng.Stats()
		if stats.DecodeErrors != 0 {
			t.Fatalf("shards=%d: %d decode errors on synthesized frames", shards, stats.DecodeErrors)
		}
		if stats.PacketsIn != int64(st.Total) || stats.Processed != stats.PacketsIn || stats.Dropped != 0 {
			t.Fatalf("shards=%d: accounting in=%d processed=%d dropped=%d, fed %d",
				shards, stats.PacketsIn, stats.Processed, stats.Dropped, st.Total)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: engine found %d flows, pipeline found %d", shards, len(got), len(want))
		}
		for key, w := range want {
			g, ok := got[key]
			if !ok {
				t.Fatalf("shards=%d: flow %s missing from engine reports", shards, key)
			}
			if g != w {
				t.Errorf("shards=%d: flow %s diverged:\n engine   %+v\n pipeline %+v", shards, key, g, w)
			}
		}
	}
}

// TestMultiProducerSameShard contends several explicit producers against a
// single shard with a shallow lane, so the blocking backpressure path runs
// while the worker drains all lanes. Primarily a -race target: the SPSC rings and the
// wake protocol are the only synchronization between a producer and the
// worker.
func TestMultiProducerSameShard(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)
	eng := engine.New(engine.Config{Shards: 1, BatchSize: 8, QueueDepth: 2}, tm, sm)
	var wg sync.WaitGroup
	for i := range st.Flows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := eng.Producer()
			defer p.Close()
			st.ReplayOneFrames(i, p.HandleFrame)
		}(i)
	}
	wg.Wait()
	reports := eng.Finish()
	if len(reports) != streamFlows {
		t.Fatalf("got %d reports, want %d", len(reports), streamFlows)
	}
	stats := eng.Stats()
	if stats.PacketsIn != int64(st.Total) {
		t.Errorf("PacketsIn = %d, want %d", stats.PacketsIn, st.Total)
	}
	if stats.Dropped != 0 {
		t.Errorf("lossless config dropped %d packets", stats.Dropped)
	}
	if stats.Processed != stats.PacketsIn {
		t.Errorf("Processed = %d, want %d", stats.Processed, stats.PacketsIn)
	}
	if stats.DecodeErrors != 0 {
		t.Errorf("DecodeErrors = %d, want 0", stats.DecodeErrors)
	}
}

// TestDropStormAllocationFlat is the drop-path recycling audit: under
// DropOverload a full lane drops the pending batch by resetting it in
// place — the batch never leaves the producer, so a drop storm must not
// allocate. Phase one runs a live storm (tiny lane, the
// worker racing the producer) and checks the accounting invariant; phase
// two pins the drop branch at exactly zero allocations per packet while
// Stats.Dropped climbs.
func TestDropStormAllocationFlat(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)
	eng := engine.New(engine.Config{
		Shards: 1, BatchSize: 16, QueueDepth: 1, DropOverload: true,
	}, tm, sm)
	p := eng.Producer()

	// Live storm: replay one flow's frames repeatedly with advancing
	// timestamps; the one-batch lane guarantees the worker falls behind.
	flow := 0
	var frames [][]byte
	gamesim.ReplayFlowFrames(st.Flows[flow], st.Eps[flow], st.Starts[flow],
		func(ts time.Time, frame []byte) {
			if len(frames) < 512 {
				frames = append(frames, append([]byte(nil), frame...))
			}
		})
	ts := st.Starts[flow]
	fed := int64(0)
	for round := 0; round < 40; round++ {
		for _, f := range frames {
			ts = ts.Add(time.Millisecond)
			p.HandleFrame(ts, f)
			fed++
		}
	}
	p.Close()
	eng.Finish()
	stats := eng.Stats()
	if stats.PacketsIn != fed {
		t.Fatalf("PacketsIn = %d, want %d", stats.PacketsIn, fed)
	}
	if stats.Processed+stats.Dropped != fed {
		t.Fatalf("processed %d + dropped %d != fed %d", stats.Processed, stats.Dropped, fed)
	}

	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	// Exact pin: with the workers stopped and the lane full, every flush
	// takes the drop branch. Feeding here violates no invariant the pin
	// cares about — it isolates exactly the code a live storm races
	// through.
	pre := eng.Stats().Dropped
	if n := testing.AllocsPerRun(2000, func() {
		ts = ts.Add(time.Millisecond)
		p.HandleFrame(ts, frames[0])
	}); n != 0 {
		t.Fatalf("drop-path HandleFrame allocates %.2f/op, want 0", n)
	}
	if post := eng.Stats().Dropped; post <= pre {
		t.Fatalf("Dropped did not climb during the storm: %d -> %d", pre, post)
	}
}

// TestConsumeSteadyStateAllocs pins the shard's per-batch path — consume →
// HandleSummary → publish — at zero allocations on an established flow. The
// flow accounting is published only when it moved; publishing after every
// batch used to cost one heap object per batch, the whole of the engine's
// steady-state allocation rate.
func TestConsumeSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	tm, sm := models(t)
	st := sharedStream(t)
	var (
		ts   []time.Time
		sums []packet.Summary
	)
	gamesim.ReplayFlowFrames(st.Flows[0], st.Eps[0], st.Starts[0], func(at time.Time, frame []byte) {
		var s packet.Summary
		if err := packet.Summarize(frame, &s); err != nil {
			t.Fatal(err)
		}
		ts, sums = append(ts, at), append(sums, s)
	})
	const batch, runs = 64, 200
	pipe := core.New(core.Config{FlowTTL: time.Minute}, tm, sm)
	consume := engine.NewConsumeRig(pipe)
	// Warm up past the launch window and the title decision, keeping the
	// flow's tail for the measured batches (AllocsPerRun runs once extra).
	at := (len(sums)/batch - (runs + 1)) * batch
	if at <= 0 || ts[at].Sub(ts[0]) < time.Minute {
		t.Fatalf("fixture flow too short: %d packets over %v", len(sums), ts[len(ts)-1].Sub(ts[0]))
	}
	for i := 0; i < at; i += batch {
		consume(ts[i:i+batch], sums[i:i+batch])
	}
	if pipe.NumFlows() != 1 {
		t.Fatalf("warm-up left %d live sessions, want the one established flow", pipe.NumFlows())
	}
	if n := testing.AllocsPerRun(runs, func() {
		consume(ts[at:at+batch], sums[at:at+batch])
		at += batch
	}); n != 0 {
		t.Fatalf("steady-state consume allocates %.1f/op, want 0", n)
	}
}

// replayMixed feeds handle a gateway-like capture in global timestamp
// order: the shared stream's gaming flows with, after every fifth gaming
// frame, one frame of everything else a tap sees — IPv6 UDP and small IPv4
// UDP over a few five-tuples, TCP with options, ARP, and frames cut inside
// the IPv4 and the UDP header. It returns how many frames it fed and how
// many of them no parser accepts.
func replayMixed(st *gamesim.PacketStream, handle func(ts time.Time, frame []byte)) (fed, bad int64) {
	eth := packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 1}, Src: packet.MAC{2, 0, 0, 0, 0, 2}, Type: packet.EtherTypeIPv4}
	a4, b4 := netip.AddrFrom4([4]byte{192, 0, 2, 10}), netip.AddrFrom4([4]byte{198, 51, 100, 20})
	a6, b6 := netip.MustParseAddr("2001:db8::a"), netip.MustParseAddr("2001:db8::b")
	var others [][]byte
	for port := uint16(0); port < 4; port++ {
		u := packet.UDP{SrcPort: 3478 + port, DstPort: 41000}
		ip6 := packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 60, Src: a6, Dst: b6}
		eth6 := eth
		eth6.Type = packet.EtherTypeIPv6
		others = append(others, ip6.AppendTo(eth6.AppendTo(nil), u.AppendTo(nil, make([]byte, 90), a6, b6)))
		ip4 := packet.IPv4{TTL: 60, Protocol: packet.ProtoUDP, Src: b4, Dst: a4}
		u = packet.UDP{SrcPort: 41000, DstPort: 3478 + port}
		others = append(others, ip4.AppendTo(eth.AppendTo(nil), u.AppendTo(nil, make([]byte, 60), b4, a4)))
	}
	tcp := packet.TCP{SrcPort: 443, DstPort: 40000, Flags: packet.TCPAck, Window: 512, Options: []byte{1, 1, 1, 1}}
	ipTCP := packet.IPv4{TTL: 60, Protocol: packet.ProtoTCP, Src: a4, Dst: b4}
	others = append(others, ipTCP.AppendTo(eth.AppendTo(nil), tcp.AppendTo(nil, make([]byte, 120), a4, b4)))
	arp := eth
	arp.Type = packet.EtherTypeARP
	others = append(others, append(arp.AppendTo(nil), make([]byte, 28)...))
	whole := others[1]
	cuts := [][]byte{
		whole[:packet.EthernetHeaderLen+12],
		whole[:packet.EthernetHeaderLen+packet.IPv4HeaderLen+5],
	}
	others = append(others, cuts...)

	next := 0
	gamesim.ReplayRawFrames(st.Flows, st.Eps, st.Starts, func(at time.Time, frame []byte) {
		handle(at, frame)
		fed++
		if fed%6 == 5 {
			handle(at, others[next])
			if next >= len(others)-len(cuts) {
				bad++
			}
			next = (next + 1) % len(others)
			fed++
		}
	})
	return fed, bad
}

// flatReport is a session report with its *Flow by value, so two reports
// compare field for field with ==.
type flatReport struct {
	Report core.SessionReport
	Flow   flowdetect.Flow
}

func flatten(reports []*core.SessionReport) map[packet.FlowKey]flatReport {
	out := make(map[packet.FlowKey]flatReport, len(reports))
	for _, r := range reports {
		f := flatReport{Report: *r, Flow: *r.Flow}
		f.Report.Flow = nil
		out[r.Flow.Key] = f
	}
	return out
}

// TestMixedTrafficMatchesPipeline is the summary hand-off's equivalence
// over everything a tap sees, not only gaming frames: one Producer fed the
// mixed capture as raw frames must produce, at every shard count, reports
// identical field for field to one core.Pipeline fed Decode + HandlePacket,
// and must account for every frame — the ones no parser accepts as
// DecodeErrors (and Processed) at ingest, whether the lanes block or shed.
func TestMixedTrafficMatchesPipeline(t *testing.T) {
	tm, sm := models(t)
	st := sharedStream(t)

	pipe := core.New(core.Config{}, tm, sm)
	var dec packet.Decoded
	var rejected int64
	fed, bad := replayMixed(st, func(ts time.Time, frame []byte) {
		if err := packet.Decode(frame, &dec); err != nil {
			rejected++
			return
		}
		pipe.HandlePacket(ts, &dec, dec.Payload)
	})
	if rejected != bad || bad == 0 {
		t.Fatalf("Decode rejected %d frames, the capture injects %d", rejected, bad)
	}
	want := flatten(pipe.Finish())
	if len(want) != streamFlows {
		t.Fatalf("baseline pipeline found %d flows, want %d", len(want), streamFlows)
	}

	shardCounts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if race.Enabled {
		shardCounts = []int{1, 3}
	}
	for _, drop := range []bool{false, true} {
		for _, shards := range shardCounts {
			cfg := engine.Config{Shards: shards, BatchSize: 16, QueueDepth: 8, DropOverload: drop}
			if drop {
				cfg.QueueDepth = 1
			}
			eng := engine.New(cfg, tm, sm)
			p := eng.Producer()
			replayMixed(st, p.HandleFrame)
			p.Close()
			got := flatten(eng.Finish())
			stats := eng.Stats()
			if stats.PacketsIn != fed || stats.Processed+stats.Dropped != fed {
				t.Fatalf("shards=%d drop=%v: in=%d processed=%d dropped=%d, fed %d",
					shards, drop, stats.PacketsIn, stats.Processed, stats.Dropped, fed)
			}
			if stats.DecodeErrors != bad {
				t.Fatalf("shards=%d drop=%v: DecodeErrors = %d, capture injects %d", shards, drop, stats.DecodeErrors, bad)
			}
			if drop {
				continue // shed packets change the sessions; the accounting is the claim
			}
			if stats.Dropped != 0 {
				t.Fatalf("shards=%d: blocking lanes dropped %d packets", shards, stats.Dropped)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d: engine found %d flows, pipeline found %d", shards, len(got), len(want))
			}
			for key, w := range want {
				if g, ok := got[key]; !ok || g != w {
					t.Errorf("shards=%d: flow %v diverged (present=%v):\n engine   %+v\n pipeline %+v", shards, key, ok, g, w)
				}
			}
		}
	}
}
