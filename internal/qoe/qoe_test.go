package qoe

import (
	"testing"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/trace"
)

func goodSlot() SlotQoS {
	return SlotQoS{DownMbps: 25, FrameRate: 60, LagMs: 15, LossRate: 0.0005}
}

func TestObjectiveLevels(t *testing.T) {
	if l := Objective(goodSlot()); l != Good {
		t.Errorf("healthy slot = %v", l)
	}
	q := goodSlot()
	q.FrameRate = 25
	if l := Objective(q); l != Bad {
		t.Errorf("25 fps = %v, want bad", l)
	}
	q = goodSlot()
	q.DownMbps = 5
	if l := Objective(q); l != Bad {
		t.Errorf("5 Mbps = %v, want bad", l)
	}
	q = goodSlot()
	q.LagMs = 150
	if l := Objective(q); l != Bad {
		t.Errorf("150 ms lag = %v, want bad", l)
	}
	q = goodSlot()
	q.FrameRate = 40 // between 30 and 45
	if l := Objective(q); l != Medium {
		t.Errorf("40 fps = %v, want medium", l)
	}
}

func TestEffectiveCalibratesLowDemandContexts(t *testing.T) {
	// A Hearthstone idle slot: 1.5 Mbps, 20 fps — objectively "bad",
	// effectively fine (§5.3).
	q := SlotQoS{DownMbps: 1.5, FrameRate: 20, LagMs: 12, LossRate: 0.0005}
	if l := Objective(q); l != Bad {
		t.Fatalf("objective = %v, want bad", l)
	}
	hs, _ := gamesim.TitleByName("Hearthstone")
	if l := Effective(q, Context{Demand: hs.Demand, Stage: trace.StageIdle}); l != Good {
		t.Errorf("effective = %v, want good", l)
	}
}

func TestEffectiveKeepsNetworkFaultsBad(t *testing.T) {
	// Latency and loss expectations are NOT calibrated: a laggy path stays
	// bad even in an idle low-demand context.
	q := SlotQoS{DownMbps: 1.5, FrameRate: 20, LagMs: 180, LossRate: 0.0005}
	if l := Effective(q, Context{Demand: 0.35, Stage: trace.StageIdle}); l != Bad {
		t.Errorf("laggy idle slot = %v, want bad", l)
	}
	q = SlotQoS{DownMbps: 1.5, FrameRate: 20, LagMs: 10, LossRate: 0.05}
	if l := Effective(q, Context{Demand: 0.35, Stage: trace.StageIdle}); l != Bad {
		t.Errorf("lossy idle slot = %v, want bad", l)
	}
}

func TestEffectiveActiveStageStrict(t *testing.T) {
	// During active combat of a high-demand title, low throughput remains a
	// genuine degradation.
	q := SlotQoS{DownMbps: 4, FrameRate: 30, LagMs: 10, LossRate: 0}
	if l := Effective(q, Context{Demand: 1.15, Stage: trace.StageActive}); l != Bad {
		t.Errorf("starved active slot = %v, want bad", l)
	}
}

func TestEffectiveNeverWorseThanObjectiveOnThroughput(t *testing.T) {
	// For stage/demand factors <= 1, calibration only relaxes the
	// throughput and frame-rate expectations.
	cases := []SlotQoS{
		{DownMbps: 2, FrameRate: 20, LagMs: 10, LossRate: 0},
		{DownMbps: 9, FrameRate: 33, LagMs: 10, LossRate: 0},
		{DownMbps: 30, FrameRate: 60, LagMs: 10, LossRate: 0},
	}
	for _, q := range cases {
		obj := Objective(q)
		eff := Effective(q, Context{Demand: 1.0, Stage: trace.StageIdle})
		if eff < obj {
			t.Errorf("effective %v worse than objective %v for %+v", eff, obj, q)
		}
	}
}

// hist counts per-slot levels into the histogram form sessions keep.
func hist(levels ...Level) (counts [NumLevels]int64) {
	for _, l := range levels {
		counts[l]++
	}
	return counts
}

func TestSessionLevelMajority(t *testing.T) {
	if l := SessionLevelFromCounts(hist(Good, Good, Bad, Medium, Good)); l != Good {
		t.Errorf("majority = %v", l)
	}
	if l := SessionLevelFromCounts(hist(Bad, Bad, Good)); l != Bad {
		t.Errorf("majority = %v", l)
	}
	if l := SessionLevelFromCounts(hist()); l != Good {
		t.Errorf("empty session = %v, want good (benefit of the doubt)", l)
	}
}

// TestSessionScore pins the continuous QoE proxy: the mean graded-slot
// level on the [0, 1] scale, with the same empty-session convention as the
// majority grade.
func TestSessionScore(t *testing.T) {
	if s := SessionScoreFromCounts(hist(Good, Good, Good)); s != 1 {
		t.Errorf("all-good score = %v, want 1", s)
	}
	if s := SessionScoreFromCounts(hist(Bad, Bad)); s != 0 {
		t.Errorf("all-bad score = %v, want 0", s)
	}
	// Two sessions that both grade Medium by majority but differ in score:
	// the proxy preserves the mix the majority vote collapses.
	if s := SessionScoreFromCounts(hist(Medium, Medium, Bad)); s != 1.0/3 {
		t.Errorf("medium-leaning-bad score = %v, want 1/3", s)
	}
	if s := SessionScoreFromCounts(hist(Medium, Medium, Good)); s != 2.0/3 {
		t.Errorf("medium-leaning-good score = %v, want 2/3", s)
	}
	if s := SessionScoreFromCounts(hist()); s != 1 {
		t.Errorf("empty session score = %v, want 1 (matching the majority grade's Good)", s)
	}
	if s := SessionScoreFromCounts(hist(Bad, Good)); s != 0.5 {
		t.Errorf("histogram score = %v, want 0.5", s)
	}
}

func TestEstimateSessionQoSHealthy(t *testing.T) {
	cfg := gamesim.ClientConfig{Resolution: gamesim.ResQHD, FPS: 60}
	s := gamesim.Generate(gamesim.Overwatch2, cfg, gamesim.LabNetwork(), 3,
		gamesim.Options{SessionLength: 10 * time.Minute})
	qos := EstimateSessionQoS(s, time.Second)
	if len(qos) == 0 {
		t.Fatal("no QoS slots")
	}
	// Active slots on a healthy path must run at nominal fps.
	for k, q := range qos {
		st := trace.StageAt(s.Spans, time.Duration(k)*time.Second)
		if st == trace.StageActive && (q.FrameRate < 55 || q.FrameRate > 62) {
			t.Fatalf("active slot %d frame rate = %v, want ~60", k, q.FrameRate)
		}
		if q.LagMs > 20 {
			t.Fatalf("slot %d lag = %v on lab network", k, q.LagMs)
		}
	}
}

func TestGradeSessionHealthyVsImpaired(t *testing.T) {
	cfg := gamesim.ClientConfig{Resolution: gamesim.ResQHD, FPS: 60}
	healthy := gamesim.Generate(gamesim.Fortnite, cfg, gamesim.LabNetwork(), 5,
		gamesim.Options{SessionLength: 15 * time.Minute})
	obj, eff := GradeSession(healthy, time.Second)
	if eff < obj {
		t.Errorf("healthy session: effective %v < objective %v", eff, obj)
	}
	if eff != Good {
		t.Errorf("healthy Fortnite session effective = %v, want good", eff)
	}

	impaired := gamesim.Generate(gamesim.Fortnite, cfg, gamesim.NetworkConditions{
		RTT: 160 * time.Millisecond, LossRate: 0.03, BandwidthMbps: 6,
	}, 6, gamesim.Options{SessionLength: 15 * time.Minute})
	_, effBad := GradeSession(impaired, time.Second)
	if effBad != Bad {
		t.Errorf("impaired session effective = %v, want bad (calibration must not hide real faults)", effBad)
	}
}

func TestGradeSessionLowDemandTitleCorrected(t *testing.T) {
	// The Fig 13 story: Hearthstone on a healthy path is objectively
	// medium/bad but effectively good.
	cfg := gamesim.ClientConfig{Resolution: gamesim.ResFHD, FPS: 60}
	s := gamesim.Generate(gamesim.Hearthstone, cfg, gamesim.LabNetwork(), 7,
		gamesim.Options{SessionLength: 20 * time.Minute})
	obj, eff := GradeSession(s, time.Second)
	if obj == Good {
		t.Errorf("objective = %v; expected degradation labels for a low-demand title", obj)
	}
	if eff != Good {
		t.Errorf("effective = %v, want good after context calibration", eff)
	}
}

func TestLevelString(t *testing.T) {
	if Bad.String() != "bad" || Medium.String() != "medium" || Good.String() != "good" {
		t.Error("level names")
	}
}

func TestPatternDemand(t *testing.T) {
	if PatternDemand(gamesim.SpectateAndPlay) < PatternDemand(gamesim.ContinuousPlay) {
		t.Error("spectate-and-play should demand at least as much as continuous-play (§5.2)")
	}
}
