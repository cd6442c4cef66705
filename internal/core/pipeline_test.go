package core

import (
	"bytes"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/packet"
	"gamelens/internal/pcapio"
	"gamelens/internal/qoe"
	"gamelens/internal/race"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

var (
	modelsOnce sync.Once
	titleModel *titleclass.Classifier
	stageModel *stageclass.Classifier
)

func models(t testing.TB) (*titleclass.Classifier, *stageclass.Classifier) {
	t.Helper()
	modelsOnce.Do(func() {
		perTitle, sessLen, titleTrees, stageTrees := 4, 25*time.Minute, 60, 40
		if race.Enabled {
			perTitle, sessLen, titleTrees, stageTrees = 2, 10*time.Minute, 20, 15
		}
		rng := rand.New(rand.NewSource(800))
		var train []*gamesim.Session
		for id := gamesim.TitleID(0); id < gamesim.NumTitles; id++ {
			for i := 0; i < perTitle; i++ {
				cfg := gamesim.RandomConfig(rng)
				train = append(train, gamesim.Generate(id, cfg, gamesim.LabNetwork(),
					800+int64(id)*977+int64(i), gamesim.Options{SessionLength: sessLen}))
			}
		}
		var err error
		titleModel, err = titleclass.Train(train, titleclass.Config{
			Forest: mlkit.ForestConfig{NumTrees: titleTrees, MaxDepth: 10}, Seed: 81,
		})
		if err != nil {
			panic(err)
		}
		stageModel, err = stageclass.Train(train, stageclass.Config{
			StageForest:   mlkit.ForestConfig{NumTrees: stageTrees, MaxDepth: 10},
			PatternForest: mlkit.ForestConfig{NumTrees: stageTrees, MaxDepth: 10},
			Seed:          83,
		})
		if err != nil {
			panic(err)
		}
	})
	return titleModel, stageModel
}

// replayPCAP streams a generated session's PCAP through a pipeline.
func replayPCAP(t testing.TB, p *Pipeline, s *gamesim.Session, limit time.Duration) {
	t.Helper()
	var buf bytes.Buffer
	start := time.Date(2025, 2, 1, 9, 0, 0, 0, time.UTC)
	if err := s.WritePCAP(&buf, start, limit); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var dec packet.Decoded
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := packet.Decode(rec.Data, &dec); err != nil {
			t.Fatal(err)
		}
		p.HandlePacket(rec.Timestamp, &dec, dec.Payload)
	}
}

func TestPipelineEndToEndFromPCAP(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	if race.Enabled {
		// Pipeline is single-threaded, so the detector can't observe
		// anything here; this is the package's longest replay and its
		// classification-quality assertions need the full-size fixture.
		// The race budget goes to the lifecycle tests instead.
		t.Skip("single-threaded replay; race pass covers the lifecycle tests")
	}
	tm, sm := models(t)
	p := New(Config{}, tm, sm)
	cfg := gamesim.ClientConfig{Device: gamesim.DevicePC, OS: gamesim.OSWindows, Resolution: gamesim.ResQHD, FPS: 60}
	s := gamesim.Generate(gamesim.GenshinImpact, cfg, gamesim.LabNetwork(), 901,
		gamesim.Options{SessionLength: 9 * time.Minute})
	replayPCAP(t, p, s, 9*time.Minute)

	reports := p.Finish()
	if len(reports) != 1 {
		t.Fatalf("%d reports, want 1", len(reports))
	}
	r := reports[0]
	if !r.Title.Known || r.Title.Title != gamesim.GenshinImpact {
		t.Errorf("title = %v, want Genshin Impact", r.Title)
	}
	if r.MeanDownMbps <= 1 {
		t.Errorf("mean throughput = %.2f", r.MeanDownMbps)
	}
	var mins float64
	for st, m := range r.StageMinutes {
		if trace.Stage(st) != trace.StageLaunch {
			mins += m
		}
	}
	if mins < 5 {
		t.Errorf("only %.1f classified gameplay minutes in a 9-minute session", mins)
	}
	if r.Effective < r.Objective {
		t.Errorf("effective %v < objective %v on a healthy path", r.Effective, r.Objective)
	}
	// The continuous QoE proxy must agree with the discrete grade: a
	// session graded Good by slot majority can never score below the
	// midpoint (the minimum is an exact Good/Bad tie at 0.5).
	if r.EffectiveScore < 0 || r.EffectiveScore > 1 {
		t.Errorf("effective score %v outside [0, 1]", r.EffectiveScore)
	}
	if r.Effective == qoe.Good && r.EffectiveScore < 0.5 {
		t.Errorf("effective score %v < 0.5 on a Good-graded session", r.EffectiveScore)
	}
	if r.String() == "" {
		t.Error("empty report string")
	}
}

func TestPipelineIgnoresNonGamingTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	p := New(Config{}, tm, sm)
	// Synthesize a DNS-ish UDP flow: small payloads, low rate.
	var dec packet.Decoded
	base := time.Now()
	for i := 0; i < 500; i++ {
		dec = packet.Decoded{HasIP4: true, HasUDP: true}
		dec.IP4.Src = netipAddr(8, 8, 8, 8)
		dec.IP4.Dst = netipAddr(10, 0, 0, 1)
		dec.UDP.SrcPort, dec.UDP.DstPort = 53, 33333
		if fs := p.HandlePacket(base.Add(time.Duration(i)*10*time.Millisecond), &dec, make([]byte, 80)); fs != nil {
			t.Fatal("DNS flow tracked as gaming")
		}
	}
	if len(p.Sessions()) != 0 {
		t.Fatal("non-gaming session created")
	}
}

func TestPipelineShortCaptureStillReports(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tm, sm := models(t)
	p := New(Config{}, tm, sm)
	cfg := gamesim.ClientConfig{Resolution: gamesim.ResFHD, FPS: 60}
	s := gamesim.Generate(gamesim.CSGO, cfg, gamesim.LabNetwork(), 903,
		gamesim.Options{SessionLength: 5 * time.Minute})
	// Only 4 seconds of capture: shorter than the classification window.
	replayPCAP(t, p, s, 4*time.Second)
	reports := p.Finish()
	if len(reports) != 1 {
		t.Fatalf("%d reports", len(reports))
	}
	// With a truncated window the classifier may or may not be confident,
	// but Finish must have produced a decision rather than hanging.
	if !reports[0].Title.Known && reports[0].Title.Confidence <= 0 {
		t.Error("no classification attempt recorded")
	}
}

func TestPipelineQoEOnImpairedPath(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	if race.Enabled {
		t.Skip("single-threaded replay; race pass covers the lifecycle tests")
	}
	tm, sm := models(t)
	p := New(Config{QoSLag: 150 * time.Millisecond, QoSLoss: 0.03}, tm, sm)
	cfg := gamesim.ClientConfig{Resolution: gamesim.ResQHD, FPS: 60}
	s := gamesim.Generate(gamesim.Fortnite, cfg, gamesim.LabNetwork(), 905,
		gamesim.Options{SessionLength: 6 * time.Minute})
	replayPCAP(t, p, s, 6*time.Minute)
	r := p.Finish()[0]
	if r.Effective != qoe.Bad {
		t.Errorf("effective = %v on a 150 ms / 3%% loss path, want bad", r.Effective)
	}
}

func netipAddr(a, b, c, d byte) netip.Addr {
	return netip.AddrFrom4([4]byte{a, b, c, d})
}

// TestEstimateFrameRateBoundarySlots pins the estimator's degenerate
// inputs: a slot of exactly one jumbo packet, payload-less packets, a
// single tiny packet, and a sub-second slot width. The invariant under
// test is that the estimate never exceeds the slot's own packet rate — a
// frame needs at least one packet — and never goes negative.
func TestEstimateFrameRateBoundarySlots(t *testing.T) {
	cases := []struct {
		name string
		slot trace.Slot
		i    time.Duration
	}{
		{"one jumbo packet, 1s", trace.Slot{DownPkts: 1, DownBytes: 1432}, time.Second},
		{"one jumbo packet, 100ms", trace.Slot{DownPkts: 1, DownBytes: 1432}, 100 * time.Millisecond},
		{"one tiny packet", trace.Slot{DownPkts: 1, DownBytes: 40}, time.Second},
		{"payload-less packets", trace.Slot{DownPkts: 50, DownBytes: 0}, time.Second},
		{"mean exactly 400", trace.Slot{DownPkts: 10, DownBytes: 4000}, time.Second},
		{"mean just below 400", trace.Slot{DownPkts: 10, DownBytes: 3990}, time.Second},
		{"flood caps at ceiling", trace.Slot{DownPkts: 1e6, DownBytes: 1e6 * 1200}, time.Second},
	}
	for _, c := range cases {
		fps := estimateFrameRate(c.slot, c.i)
		if fps < 0 {
			t.Errorf("%s: negative fps %v", c.name, fps)
		}
		if maxFPS := c.slot.DownPkts / c.i.Seconds(); fps > maxFPS {
			t.Errorf("%s: fps %.2f exceeds packet rate %.2f — more frames than packets", c.name, fps, maxFPS)
		}
		if fps > 130 {
			t.Errorf("%s: fps %.2f above the 130 ceiling", c.name, fps)
		}
	}
	if got := estimateFrameRate(trace.Slot{DownPkts: 50}, time.Second); got != 0 {
		t.Errorf("payload-less slot fps = %v, want 0 (no video frames without bytes)", got)
	}
}

func TestEstimateFrameRate(t *testing.T) {
	// A 60 fps QHD-class stream: ~2700 pkts/s at ~1250 B.
	slot := trace.Slot{DownPkts: 2700, DownBytes: 2700 * 1250}
	fps := estimateFrameRate(slot, time.Second)
	if fps < 30 || fps > 130 {
		t.Errorf("active-slot fps estimate = %.1f, want a plausible rate", fps)
	}
	// An idle lobby: small sparse packets must estimate low.
	idle := trace.Slot{DownPkts: 120, DownBytes: 120 * 300}
	if got := estimateFrameRate(idle, time.Second); got >= fps {
		t.Errorf("idle fps %.1f >= active fps %.1f", got, fps)
	}
	if got := estimateFrameRate(trace.Slot{}, time.Second); got != 0 {
		t.Errorf("empty slot fps = %v", got)
	}
}
