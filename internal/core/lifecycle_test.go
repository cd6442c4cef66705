package core

import (
	"testing"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/race"
	"gamelens/internal/trace"
)

// lifecycleStream synthesizes a mostly-sequential multi-flow capture: flows
// of length each, started stagger apart, so earlier flows go idle while
// later ones are still feeding — the shape that exercises TTL eviction.
func lifecycleStream(t testing.TB, flows int, length, stagger time.Duration) *gamesim.PacketStream {
	t.Helper()
	var sessions []*gamesim.Session
	for i := 0; i < flows; i++ {
		id := gamesim.TitleID(i % int(gamesim.NumTitles))
		sessions = append(sessions, gamesim.Generate(id,
			gamesim.ClientConfig{Resolution: gamesim.ResFHD, FPS: 60},
			gamesim.LabNetwork(), 7000+int64(i)*131,
			gamesim.Options{SessionLength: length + time.Minute}))
	}
	return gamesim.NewPacketStream(sessions, length,
		time.Date(2026, 5, 1, 8, 0, 0, 0, time.UTC), stagger)
}

// lifeReport flattens the lifecycle-relevant parts of a report.
type lifeReport struct {
	key     string
	title   string
	downPkt int
	mbps    float64
	end     time.Time
}

func flatten(reports []*SessionReport) map[string]lifeReport {
	out := make(map[string]lifeReport, len(reports))
	for _, r := range reports {
		out[r.Flow.Key.String()] = lifeReport{
			key:     r.Flow.Key.String(),
			title:   r.Title.String(),
			downPkt: r.Flow.DownPkts,
			mbps:    r.MeanDownMbps,
			end:     r.End,
		}
	}
	return out
}

// TestLifecycleEviction is the table-driven lifecycle contract: with
// eviction disabled or a TTL longer than any idle gap, the streamed output
// is identical to the Finish-only baseline and nothing is evicted mid-run;
// with a short TTL, idle flows are evicted (bounding the live-flow count)
// and every flow still yields exactly one report with the same content.
func TestLifecycleEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	flows, length := 6, 90*time.Second
	if race.Enabled {
		flows, length = 4, 60*time.Second
	}
	st := lifecycleStream(t, flows, length, 2*time.Minute)

	// Baseline: eviction disabled, no sink — the pre-lifecycle behavior.
	base := New(Config{}, tm, sm)
	if err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
		base.HandlePacket(ts, dec, payload)
	}); err != nil {
		t.Fatal(err)
	}
	want := flatten(base.Finish())
	if len(want) != flows {
		t.Fatalf("baseline found %d flows, want %d", len(want), flows)
	}

	tests := []struct {
		name        string
		ttl         time.Duration
		sweep       time.Duration
		wantEvicted bool
		maxLive     int // 0 = no bound asserted
	}{
		{"disabled", 0, 0, false, 0},
		{"ttl_longer_than_any_gap", time.Hour, 0, false, 0},
		// Flows start 120s apart and run shorter than that, so each goes
		// idle before the next begins; a 20s TTL evicts each as its
		// successor feeds, keeping at most two sessions live.
		{"short_ttl", 20 * time.Second, 0, true, 2},
		{"short_ttl_fine_sweep", 20 * time.Second, time.Second, true, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var streamed []*SessionReport
			p := New(Config{
				FlowTTL:       tc.ttl,
				SweepInterval: tc.sweep,
				Sink:          func(r *SessionReport) { streamed = append(streamed, r) },
			}, tm, sm)
			maxLive := 0
			if err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
				p.HandlePacket(ts, dec, payload)
				if n := p.NumFlows(); n > maxLive {
					maxLive = n
				}
			}); err != nil {
				t.Fatal(err)
			}
			midRun := len(streamed)
			final := p.Finish()

			if tc.wantEvicted {
				if midRun == 0 {
					t.Error("no reports streamed before Finish despite short TTL")
				}
				if p.EvictedFlows() == 0 {
					t.Error("EvictedFlows() == 0 despite short TTL")
				}
				if tc.maxLive > 0 && maxLive > tc.maxLive {
					t.Errorf("live flows peaked at %d, want <= %d (eviction not bounding memory)", maxLive, tc.maxLive)
				}
			} else {
				if midRun != 0 {
					t.Errorf("%d reports streamed mid-run, want 0", midRun)
				}
				if p.EvictedFlows() != 0 {
					t.Errorf("EvictedFlows() = %d, want 0", p.EvictedFlows())
				}
			}
			for _, r := range streamed[:midRun] {
				if !r.Evicted {
					t.Error("mid-run report not marked Evicted")
				}
				if r.End.IsZero() {
					t.Error("evicted report has zero End")
				}
			}
			for _, r := range final {
				if r.Evicted {
					t.Error("Finish report marked Evicted")
				}
			}

			// Every flow reports exactly once, streamed = evicted + final,
			// and content matches the Finish-only baseline.
			if len(streamed) != midRun+len(final) {
				t.Errorf("sink saw %d reports, want %d evicted + %d final", len(streamed), midRun, len(final))
			}
			got := flatten(streamed)
			if len(got) != len(streamed) {
				t.Fatalf("duplicate flow keys among %d streamed reports", len(streamed))
			}
			if len(got) != len(want) {
				t.Fatalf("streamed %d distinct flows, baseline has %d", len(got), len(want))
			}
			if p.CreatedFlows() != int64(flows) {
				t.Errorf("CreatedFlows() = %d, want %d", p.CreatedFlows(), flows)
			}
			if p.EmittedReports() != int64(len(streamed)) {
				t.Errorf("EmittedReports() = %d, want %d", p.EmittedReports(), len(streamed))
			}
			for key, w := range want {
				g, ok := got[key]
				if !ok {
					t.Fatalf("flow %s missing from streamed reports", key)
				}
				if g != w {
					t.Errorf("flow %s diverged:\n streamed %+v\n baseline %+v", key, g, w)
				}
			}
		})
	}
}

// TestLifecycleSweepAmortized checks the sweep schedule: with a coarse
// SweepInterval, eviction happens on interval boundaries of packet time,
// not per packet, and the packet clock never runs on wall time (replaying
// instantly must behave identically to the timestamps alone).
func TestLifecycleSweepAmortized(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	st := lifecycleStream(t, 3, time.Minute, 3*time.Minute)

	// A sweep interval far longer than the TTL delays eviction until the
	// next sweep boundary but must never lose a report.
	var streamed []*SessionReport
	p := New(Config{
		FlowTTL:       15 * time.Second,
		SweepInterval: 2 * time.Minute,
		Sink:          func(r *SessionReport) { streamed = append(streamed, r) },
	}, tm, sm)
	if err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
		p.HandlePacket(ts, dec, payload)
	}); err != nil {
		t.Fatal(err)
	}
	p.Finish()
	if len(streamed) != 3 {
		t.Fatalf("streamed %d reports, want 3", len(streamed))
	}
	seen := map[string]int{}
	for _, r := range streamed {
		seen[r.Flow.Key.String()]++
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("flow %s reported %d times", key, n)
		}
	}
}

// TestExpireIdleForcesSweep pins the manual sweep entry point deployments
// use at quiet points.
func TestExpireIdleForcesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	st := lifecycleStream(t, 1, time.Minute, 0)

	evicted := 0
	p := New(Config{
		FlowTTL:       10 * time.Second,
		SweepInterval: time.Hour, // the automatic sweep never fires
		Sink: func(r *SessionReport) {
			if r.Evicted {
				evicted++
			}
		},
	}, tm, sm)
	var last time.Time
	if err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
		p.HandlePacket(ts, dec, payload)
		last = ts
	}); err != nil {
		t.Fatal(err)
	}
	if p.NumFlows() != 1 {
		t.Fatalf("%d live flows after replay, want 1", p.NumFlows())
	}
	if n := p.ExpireIdle(last.Add(5 * time.Second)); n != 0 {
		t.Errorf("ExpireIdle before the TTL elapsed evicted %d flows", n)
	}
	if n := p.ExpireIdle(last.Add(time.Minute)); n != 1 {
		t.Errorf("ExpireIdle after the TTL evicted %d flows, want 1", n)
	}
	if evicted != 1 || p.NumFlows() != 0 {
		t.Errorf("evicted=%d live=%d after forced sweep, want 1 and 0", evicted, p.NumFlows())
	}
	// A pipeline without a TTL must treat ExpireIdle as a no-op.
	q := New(Config{}, tm, sm)
	if n := q.ExpireIdle(last.Add(time.Hour)); n != 0 {
		t.Errorf("ExpireIdle on TTL-less pipeline evicted %d", n)
	}
}

// TestLifecycleFreesDetectorState pins that finalizing a session — by TTL
// eviction or by Finish — frees its detector entry too: without that, the
// packet filter's flow table grows with every flow ever seen even when the
// session table is bounded by the TTL.
func TestLifecycleFreesDetectorState(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	flows := 4
	length := 40 * time.Second
	if race.Enabled {
		flows = 2
	}
	st := lifecycleStream(t, flows, length, length+30*time.Second)

	p := New(Config{FlowTTL: 10 * time.Second}, tm, sm)
	peakDet := 0
	var last time.Time
	if err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
		p.HandlePacket(ts, dec, payload)
		last = ts
		if n := p.DetectorFlows(); n > peakDet {
			peakDet = n
		}
	}); err != nil {
		t.Fatal(err)
	}
	// A non-gaming flow the detector will reject: its entry has no session
	// to finalize, so only Finish's full filter reset can free it.
	for i := 0; i < 250; i++ {
		var dec packet.Decoded
		dec.HasIP4, dec.HasUDP = true, true
		dec.IP4.Src, dec.IP4.Dst = netipAddr(8, 8, 8, 8), netipAddr(10, 0, 0, 9)
		dec.UDP.SrcPort, dec.UDP.DstPort = 53, 40001
		p.HandlePacket(last.Add(time.Duration(i)*time.Millisecond), &dec, make([]byte, 60))
	}
	if n := p.DetectorFlows(); n == 0 {
		t.Fatal("rejected flow not tracked; the Finish assertion below would be vacuous")
	}
	// Flows run strictly one at a time (stagger > length + TTL), so the
	// detector must never have held more than one of them concurrently —
	// the evicted sessions' entries were removed, not merely superseded.
	if peakDet >= flows {
		t.Errorf("detector held %d flows at peak; eviction is not freeing entries (total flows %d)", peakDet, flows)
	}
	if p.Finish(); p.NumFlows() != 0 {
		t.Errorf("%d live sessions after Finish, want 0", p.NumFlows())
	}
	if n := p.DetectorFlows(); n != 0 {
		t.Errorf("%d detector flows after Finish, want 0 (fully freed)", n)
	}
	if got := int(p.CreatedFlows()); got != flows {
		t.Errorf("CreatedFlows = %d, want %d", got, flows)
	}
}

// TestEvictionKeepsSlotAccounting ensures an evicted flow's report carries
// the same stage-minute accounting the Finish-only path would produce —
// eviction finalizes, it does not truncate.
func TestEvictionKeepsSlotAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	length := 2 * time.Minute
	if race.Enabled {
		length = time.Minute
	}
	st := lifecycleStream(t, 2, length, 3*time.Minute)

	sum := func(r *SessionReport) float64 {
		var m float64
		for st, v := range r.StageMinutes {
			if trace.Stage(st) != trace.StageLaunch {
				m += v
			}
		}
		return m
	}

	base := New(Config{}, tm, sm)
	if err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
		base.HandlePacket(ts, dec, payload)
	}); err != nil {
		t.Fatal(err)
	}
	wantByKey := map[string]float64{}
	for _, r := range base.Finish() {
		wantByKey[r.Flow.Key.String()] = sum(r)
	}

	var streamed []*SessionReport
	p := New(Config{
		FlowTTL: 30 * time.Second,
		Sink:    func(r *SessionReport) { streamed = append(streamed, r) },
	}, tm, sm)
	if err := st.Replay(func(ts time.Time, dec *packet.Decoded, payload []byte) {
		p.HandlePacket(ts, dec, payload)
	}); err != nil {
		t.Fatal(err)
	}
	p.Finish()
	for _, r := range streamed {
		want := wantByKey[r.Flow.Key.String()]
		if got := sum(r); got != want {
			t.Errorf("flow %s: %.2f classified minutes, baseline %.2f", r.Flow.Key, got, want)
		}
	}
}

// TestEvictedFlowResumesFresh pins what eviction does to the detector entry
// that carries a flow's session: a five-tuple that falls silent past the
// TTL and then resumes is a new flow — a fresh Flow record and a fresh
// session, judged from scratch — and the report delivered for the evicted
// one keeps pointing at the old record, which nothing writes again.
func TestEvictedFlowResumesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	st := lifecycleStream(t, 1, 20*time.Second, 0)

	var delivered []*SessionReport
	p := New(Config{FlowTTL: 10 * time.Second, Sink: func(r *SessionReport) {
		delivered = append(delivered, r)
	}}, tm, sm)
	play := func(start time.Time) (fs *FlowSession, fed int) {
		t.Helper()
		if err := gamesim.ReplayFlow(st.Flows[0], st.Eps[0], start, func(ts time.Time, dec *packet.Decoded, payload []byte) {
			if s := p.HandlePacket(ts, dec, payload); s != nil {
				fs = s
			}
			fed++
		}); err != nil {
			t.Fatal(err)
		}
		if fs == nil {
			t.Fatal("flow never judged gaming")
		}
		return fs, fed
	}

	first, fed := play(st.Starts[0])
	oldFlow := first.Flow
	if len(delivered) != 0 {
		t.Fatalf("%d reports before the flow went idle", len(delivered))
	}
	resumed := st.Starts[0].Add(time.Minute)
	second, _ := play(resumed)

	if len(delivered) != 1 || !delivered[0].Evicted {
		t.Fatalf("delivered %d reports (want the one eviction): %v", len(delivered), delivered)
	}
	if delivered[0].Flow != oldFlow {
		t.Error("the evicted session's report does not point at its own Flow record")
	}
	if got := oldFlow.DownPkts + oldFlow.UpPkts; got != fed || !oldFlow.FirstSeen.Equal(st.Starts[0].Add(st.Flows[0][0].T)) {
		t.Errorf("evicted Flow record changed after eviction: %d packets from %v, fed %d", got, oldFlow.FirstSeen, fed)
	}
	if second == first || second.Flow == oldFlow {
		t.Fatal("resumed flow reused the evicted session or Flow record")
	}
	if !second.Start.Equal(second.Flow.FirstSeen) || second.Start.Before(resumed) {
		t.Errorf("resumed session starts at %v (flow first seen %v), want at or after %v", second.Start, second.Flow.FirstSeen, resumed)
	}
	if got := second.Flow.DownPkts + second.Flow.UpPkts; got != fed {
		t.Errorf("resumed Flow record counts %d packets, want its own %d", got, fed)
	}
	if p.CreatedFlows() != 2 || p.EvictedFlows() != 1 || p.NumFlows() != 1 || p.DetectorFlows() != 1 {
		t.Errorf("created=%d evicted=%d live=%d detector=%d, want 2, 1, 1, 1",
			p.CreatedFlows(), p.EvictedFlows(), p.NumFlows(), p.DetectorFlows())
	}
}

// TestReorderedFlowKeepsSession pins that a late packet changes nothing: a
// frame delivered fifteen seconds late regresses neither the session's
// LastSeen nor the detector's, so the sweep that follows keeps both — the
// same session, its detector record, and no gap in the slots for the flow
// to re-earn a verdict over.
func TestReorderedFlowKeepsSession(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	p := New(Config{FlowTTL: 10 * time.Second}, tm, sm)
	base := time.Date(2026, 5, 1, 8, 0, 0, 0, time.UTC)
	video := make([]byte, 1000)
	video[0] = 0x80 // RTP version 2
	var down, other packet.Decoded
	down.HasIP4, down.HasUDP = true, true
	down.IP4.Src, down.IP4.Dst = netipAddr(203, 0, 113, 7), netipAddr(10, 0, 0, 9)
	down.UDP.SrcPort, down.UDP.DstPort = 49003, 50001
	other.HasIP4, other.HasTCP = true, true
	other.IP4.Src, other.IP4.Dst = netipAddr(192, 0, 2, 1), netipAddr(10, 0, 0, 9)
	feed := func(at time.Duration) *FlowSession { return p.HandlePacket(base.Add(at), &down, video) }

	var fs *FlowSession
	for i := 0; i < 300; i++ {
		fs = feed(time.Duration(i) * 3 * time.Millisecond)
	}
	if fs == nil {
		t.Fatal("flow never judged gaming")
	}
	for at := time.Second; at <= 20*time.Second; at += 500 * time.Millisecond {
		feed(at)
	}
	if late := feed(5 * time.Second); late != fs { // delivered late
		t.Fatalf("late packet reached session %p, want %p", late, fs)
	}
	if want := base.Add(20 * time.Second); !fs.LastSeen.Equal(want) || !fs.Flow.LastSeen.Equal(want) {
		t.Fatalf("late packet moved LastSeen: session %v, flow %v, want %v", fs.LastSeen, fs.Flow.LastSeen, want)
	}
	p.HandlePacket(base.Add(23*time.Second), &other, nil) // a sweep with the cutoff at 13 s
	if p.NumFlows() != 1 || p.DetectorFlows() != 1 {
		t.Fatalf("after the sweep: %d sessions, %d detector flows; want both kept", p.NumFlows(), p.DetectorFlows())
	}
	slots := fs.slotIdx
	if again := feed(23 * time.Second); again != fs {
		t.Fatalf("next packet got session %p, want the live one %p", again, fs)
	}
	if fs.slotIdx <= slots {
		t.Errorf("the packet after the sweep reached no slot (slot index %d)", fs.slotIdx)
	}
	if p.CreatedFlows() != 1 || p.NumFlows() != 1 {
		t.Errorf("created=%d live=%d, want 1 and 1", p.CreatedFlows(), p.NumFlows())
	}
	if reports := p.Finish(); len(reports) != 1 {
		t.Errorf("%d reports, want 1", len(reports))
	}
}
