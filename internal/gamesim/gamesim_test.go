package gamesim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"gamelens/internal/trace"
)

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 13 {
		t.Fatalf("catalog has %d titles, want 13", len(cat))
	}
	var pop float64
	shooters := 0
	for _, title := range cat {
		pop += title.Popularity
		if title.Genre == GenreShooter {
			shooters++
			if title.Pattern != SpectateAndPlay {
				t.Errorf("%s: shooter must be spectate-and-play", title.Name)
			}
		}
		if title.Genre == GenreRolePlaying && title.Pattern != ContinuousPlay {
			t.Errorf("%s: role-playing must be continuous-play", title.Name)
		}
		if title.MeanSessionMinutes <= 0 || title.Demand <= 0 {
			t.Errorf("%s: non-positive generator params", title.Name)
		}
	}
	if shooters != 6 {
		t.Errorf("%d shooters, want 6", shooters)
	}
	// Table 1: the top 13 cover over 69% of playtime.
	if pop < 0.69 || pop > 0.75 {
		t.Errorf("total popularity = %v, want ~0.69-0.75", pop)
	}
	if cat[0].Name != "Fortnite" || cat[0].Popularity != 0.3780 {
		t.Errorf("first row = %+v, want Fortnite 37.80%%", cat[0])
	}
}

func TestTitleLookup(t *testing.T) {
	ti, ok := TitleByName("Hearthstone")
	if !ok || ti.ID != Hearthstone || ti.Genre != GenreCard {
		t.Errorf("TitleByName = %+v, %v", ti, ok)
	}
	if _, ok := TitleByName("Pong"); ok {
		t.Error("unknown title found")
	}
	if Hearthstone.String() != "Hearthstone" {
		t.Errorf("String = %q", Hearthstone)
	}
	names := TitleNames()
	if len(names) != 13 || names[Dota2] != "Dota 2" {
		t.Errorf("TitleNames = %v", names)
	}
}

func TestLabProfilesMatchTable2(t *testing.T) {
	profiles := LabProfiles()
	if len(profiles) != 8 {
		t.Fatalf("%d profiles, want 8", len(profiles))
	}
	sessions := 0
	var hours float64
	for _, p := range profiles {
		sessions += p.Sessions
		hours += p.PlaytimeHours
	}
	if sessions != 531 {
		t.Errorf("%d sessions, want 531", sessions)
	}
	if hours < 66.5 || hours > 67.5 {
		t.Errorf("%.1f hours, want ~67", hours)
	}
}

func TestPeakBitrateOrdering(t *testing.T) {
	ft := TitleByID(Fortnite)
	hs := TitleByID(Hearthstone)
	uhd := ClientConfig{Resolution: ResUHD, FPS: 60}
	hd30 := ClientConfig{Resolution: ResHD, FPS: 30}
	if uhd.PeakDownMbps(ft) <= hd30.PeakDownMbps(ft) {
		t.Error("UHD60 must demand more than HD30")
	}
	if uhd.PeakDownMbps(hs) >= uhd.PeakDownMbps(ft) {
		t.Error("Hearthstone must demand less than Fortnite at same settings")
	}
	// Fig 12: top-end sessions reach ~65-70 Mbps; Hearthstone caps ~20.
	top := ClientConfig{Resolution: ResUHD, FPS: 120}
	if got := top.PeakDownMbps(ft); got < 55 || got > 85 {
		t.Errorf("Fortnite UHD120 = %.1f Mbps, want 55-85", got)
	}
	if got := top.PeakDownMbps(hs); got > 28 {
		t.Errorf("Hearthstone UHD120 = %.1f Mbps, want <= 28", got)
	}
}

func TestLaunchSignatureDeterministic(t *testing.T) {
	a := launchSigFor(TitleByID(GenshinImpact))
	b := launchSigFor(TitleByID(GenshinImpact))
	if a != b {
		t.Error("signature not cached/deterministic")
	}
	if a.Duration() < 30*time.Second || a.Duration() > 75*time.Second {
		t.Errorf("launch duration = %v, want tens of seconds", a.Duration())
	}
	c := launchSigFor(TitleByID(Fortnite))
	if len(c.segs) == len(a.segs) {
		// Not necessarily an error, but the segment *parameters* must differ.
		same := true
		for i := range c.segs {
			if c.segs[i].dur != a.segs[i].dur {
				same = false
				break
			}
		}
		if same {
			t.Error("two titles share identical launch signatures")
		}
	}
}

func TestGenerateLaunchPacketGroups(t *testing.T) {
	title := TitleByID(GenshinImpact)
	cfg := ClientConfig{Device: DevicePC, OS: OSWindows, Resolution: ResFHD, FPS: 60}
	rng := rand.New(rand.NewSource(7))
	pkts := GenerateLaunch(title, cfg, LabNetwork(), rng, 60*time.Second)
	if len(pkts) < 5000 {
		t.Fatalf("only %d packets in 60 s launch window", len(pkts))
	}
	full, down, up := 0, 0, 0
	for i, p := range pkts {
		if i > 0 && p.T < pkts[i-1].T {
			t.Fatal("packets not sorted by time")
		}
		if p.Size <= 0 || p.Size > MaxPayload {
			t.Fatalf("packet size %d out of range", p.Size)
		}
		if p.Dir == trace.Down {
			down++
			if p.Size == MaxPayload {
				full++
			}
		} else {
			up++
		}
	}
	if full == 0 {
		t.Error("no full packets")
	}
	if up == 0 {
		t.Error("no upstream packets")
	}
	if down < 10*up {
		t.Errorf("down/up = %d/%d; downstream must dominate", down, up)
	}
	// Full packets must be a substantial but not overwhelming share, so
	// steady/sparse structure remains visible (Fig 3).
	frac := float64(full) / float64(down)
	if frac < 0.2 || frac > 0.95 {
		t.Errorf("full fraction = %.2f, want 0.2-0.95", frac)
	}
}

func TestLaunchConsistentAcrossConfigs(t *testing.T) {
	// The steady-band structure (payload sizes below MaxPayload) must be
	// nearly identical across configs of the same title (§3.2, Fig 3(a-c)).
	title := TitleByID(GenshinImpact)
	netc := LabNetwork()
	collect := func(cfg ClientConfig, seed int64) map[int]int {
		rng := rand.New(rand.NewSource(seed))
		pkts := GenerateLaunch(title, cfg, netc, rng, 10*time.Second)
		hist := map[int]int{}
		for _, p := range pkts {
			if p.Dir == trace.Down && p.Size < MaxPayload-50 {
				hist[p.Size/50]++ // 50-byte buckets
			}
		}
		return hist
	}
	h1 := collect(ClientConfig{Resolution: ResFHD, FPS: 60}, 3)
	h2 := collect(ClientConfig{Resolution: ResHD, FPS: 30}, 4)
	// Compare bucket supports: the dominant buckets of h1 must appear in h2.
	missing := 0
	checked := 0
	for b, c := range h1 {
		if c < 20 {
			continue
		}
		checked++
		if h2[b]+h2[b-1]+h2[b+1] < c/6 {
			missing++
		}
	}
	if checked == 0 {
		t.Fatal("no dominant steady buckets found")
	}
	if missing > checked/4 {
		t.Errorf("%d/%d dominant size buckets missing across configs", missing, checked)
	}
}

func TestLaunchDiffersAcrossTitles(t *testing.T) {
	cfg := ClientConfig{Resolution: ResFHD, FPS: 60}
	netc := LabNetwork()
	hist := func(id TitleID, seed int64) map[int]float64 {
		rng := rand.New(rand.NewSource(seed))
		pkts := GenerateLaunch(TitleByID(id), cfg, netc, rng, 10*time.Second)
		h := map[int]float64{}
		n := 0.0
		for _, p := range pkts {
			if p.Dir == trace.Down && p.Size < MaxPayload-50 {
				h[p.Size/50]++
				n++
			}
		}
		for k := range h {
			h[k] /= n
		}
		return h
	}
	h1 := hist(GenshinImpact, 5)
	h2 := hist(Fortnite, 6)
	// Total variation distance between size histograms should be large.
	keys := map[int]bool{}
	for k := range h1 {
		keys[k] = true
	}
	for k := range h2 {
		keys[k] = true
	}
	var tv float64
	for k := range keys {
		tv += math.Abs(h1[k] - h2[k])
	}
	tv /= 2
	if tv < 0.25 {
		t.Errorf("size-histogram TV distance between titles = %.2f, want >= 0.25", tv)
	}
}

func TestStageSharesMatchFig5(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		pattern               Pattern
		title                 TitleID
		idle, active, passive float64
		tolI, tolA, tolP      float64
	}{
		{SpectateAndPlay, Overwatch2, 0.210, 0.556, 0.234, 0.07, 0.09, 0.08},
		{ContinuousPlay, GenshinImpact, 0.203, 0.654, 0.043, 0.07, 0.09, 0.04},
	} {
		title := TitleByID(tc.title) // dwell biases 1.0 for these two
		var agg [trace.NumStages]float64
		const n = 60
		for i := 0; i < n; i++ {
			spans := GenerateStages(title, 90*time.Minute, rng)
			sh := StageShares(spans)
			for s := range agg {
				agg[s] += sh[s] / n
			}
		}
		if math.Abs(agg[trace.StageIdle]-tc.idle) > tc.tolI {
			t.Errorf("%v idle share = %.3f, want %.3f±%.2f", tc.pattern, agg[trace.StageIdle], tc.idle, tc.tolI)
		}
		if math.Abs(agg[trace.StageActive]-tc.active) > tc.tolA {
			t.Errorf("%v active share = %.3f, want %.3f±%.2f", tc.pattern, agg[trace.StageActive], tc.active, tc.tolA)
		}
		if math.Abs(agg[trace.StagePassive]-tc.passive) > tc.tolP {
			t.Errorf("%v passive share = %.3f, want %.3f±%.2f", tc.pattern, agg[trace.StagePassive], tc.passive, tc.tolP)
		}
	}
}

func TestStagesStartWithLaunchAndCover(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	spans := GenerateStages(TitleByID(CSGO), 30*time.Minute, rng)
	if spans[0].Stage != trace.StageLaunch {
		t.Fatal("first span must be launch")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("span %d not contiguous", i)
		}
		if spans[i].Stage == trace.StageLaunch {
			t.Fatal("launch reappears mid-session")
		}
		if spans[i].Duration() <= 0 {
			t.Fatalf("span %d empty", i)
		}
	}
}

func TestVolumetricStageOrdering(t *testing.T) {
	// Per §3.3: downstream active ≈ passive ≫ idle; upstream active ≫ passive.
	rng := rand.New(rand.NewSource(17))
	title := TitleByID(Overwatch2)
	spans := GenerateStages(title, 60*time.Minute, rng)
	slots := GenerateSlots(title, 30, LabNetwork(), spans, rng)
	var down, upPkts [trace.NumStages]float64
	var count [trace.NumStages]float64
	for _, s := range slots {
		down[s.Stage] += s.DownBytes
		upPkts[s.Stage] += s.UpPkts
		count[s.Stage]++
	}
	for st := range down {
		if count[st] > 0 {
			down[st] /= count[st]
			upPkts[st] /= count[st]
		}
	}
	if !(down[trace.StageActive] > 4*down[trace.StageIdle]) {
		t.Errorf("active down %.0f not ≫ idle down %.0f", down[trace.StageActive], down[trace.StageIdle])
	}
	if !(down[trace.StagePassive] > 0.7*down[trace.StageActive]) {
		t.Errorf("passive down %.0f not close to active %.0f", down[trace.StagePassive], down[trace.StageActive])
	}
	if !(upPkts[trace.StageActive] > 2.5*upPkts[trace.StagePassive]) {
		t.Errorf("active up %.1f not ≫ passive up %.1f", upPkts[trace.StageActive], upPkts[trace.StagePassive])
	}
	if !(upPkts[trace.StagePassive] > upPkts[trace.StageIdle]*0.8) {
		t.Errorf("passive up %.1f vs idle up %.1f", upPkts[trace.StagePassive], upPkts[trace.StageIdle])
	}
}

func TestBandwidthCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	title := TitleByID(Fortnite)
	spans := GenerateStages(title, 20*time.Minute, rng)
	capped := NetworkConditions{RTT: 8 * time.Millisecond, BandwidthMbps: 10}
	slots := GenerateSlots(title, 45, capped, spans, rng)
	for i, s := range slots {
		if mbps := s.DownThroughputMbps(trace.SlotDuration); mbps > 10.5 {
			t.Fatalf("slot %d: %.1f Mbps exceeds 10 Mbps cap", i, mbps)
		}
	}
}

func TestGenerateSessionConsistency(t *testing.T) {
	cfg := ClientConfig{Device: DevicePC, OS: OSWindows, Resolution: ResQHD, FPS: 60}
	s := Generate(Cyberpunk2077, cfg, LabNetwork(), 99, Options{})
	if s.Duration() < 10*time.Minute {
		t.Errorf("session too short: %v", s.Duration())
	}
	if s.LaunchEnd() <= 0 || s.LaunchEnd() > 90*time.Second {
		t.Errorf("launch end = %v", s.LaunchEnd())
	}
	wantSlots := int(s.Duration() / trace.SlotDuration)
	if len(s.Slots) != wantSlots {
		t.Errorf("%d slots, want %d", len(s.Slots), wantSlots)
	}
	if len(s.Launch) == 0 {
		t.Error("no launch packets")
	}
	if s.MeanDownMbps() <= 0 {
		t.Error("zero mean throughput")
	}
	// Launch-window slots must agree with the packet view.
	var pktBytes float64
	for _, p := range s.Launch {
		if p.Dir == trace.Down && p.T < s.LaunchEnd() {
			pktBytes += float64(p.Size)
		}
	}
	var slotBytes float64
	for i := 0; i < int(s.LaunchEnd()/trace.SlotDuration); i++ {
		slotBytes += s.Slots[i].DownBytes
	}
	if math.Abs(pktBytes-slotBytes)/pktBytes > 0.02 {
		t.Errorf("launch bytes: packets %.0f vs slots %.0f", pktBytes, slotBytes)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := ClientConfig{Resolution: ResFHD, FPS: 60}
	a := Generate(Dota2, cfg, LabNetwork(), 42, Options{SessionLength: 10 * time.Minute})
	b := Generate(Dota2, cfg, LabNetwork(), 42, Options{SessionLength: 10 * time.Minute})
	if len(a.Launch) != len(b.Launch) || len(a.Slots) != len(b.Slots) {
		t.Fatal("sizes differ under same seed")
	}
	for i := range a.Launch {
		if a.Launch[i] != b.Launch[i] {
			t.Fatal("launch packets differ under same seed")
		}
	}
}

func TestRandomTitlePopularityWeighting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	counts := map[TitleID]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[RandomTitle(rng)]++
	}
	// Fortnite holds ~54% of the top-13 playtime (0.378/0.6964).
	frac := float64(counts[Fortnite]) / n
	if frac < 0.49 || frac > 0.60 {
		t.Errorf("Fortnite draw rate = %.3f, want ~0.54", frac)
	}
	if counts[Hearthstone] > counts[GenshinImpact] {
		t.Error("Hearthstone drawn more than Genshin Impact")
	}
}

func TestRandomConfigRespectsProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 500; i++ {
		cfg := RandomConfig(rng)
		if cfg.Device == DeviceMobile && cfg.OS != OSAndroid && cfg.OS != OSiOS {
			t.Fatalf("mobile with OS %v", cfg.OS)
		}
		if cfg.FPS != 30 && cfg.FPS != 60 && cfg.FPS != 120 {
			t.Fatalf("fps %d", cfg.FPS)
		}
	}
}

func TestLabDatasetShape(t *testing.T) {
	sessions := LabDataset(1, Options{SessionLength: 3 * time.Minute})
	if len(sessions) != 531 {
		t.Fatalf("%d sessions, want 531", len(sessions))
	}
	perTitle := map[TitleID]int{}
	for _, s := range sessions {
		perTitle[s.Title.ID]++
	}
	for id := TitleID(0); id < NumTitles; id++ {
		if perTitle[id] < 30 {
			t.Errorf("%v has only %d sessions", id, perTitle[id])
		}
	}
}

func TestRebinPreservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	title := TitleByID(RocketLeague)
	spans := GenerateStages(title, 5*time.Minute, rng)
	slots := GenerateSlots(title, 20, LabNetwork(), spans, rng)
	re := trace.Rebin(slots, time.Second)
	var a, b float64
	for _, s := range slots {
		a += s.DownBytes
	}
	for _, s := range re {
		b += s.DownBytes
	}
	if math.Abs(a-b)/a > 1e-9 {
		t.Errorf("rebin changed totals: %.3f vs %.3f", a, b)
	}
	if len(re) != (len(slots)+9)/10 {
		t.Errorf("rebin count %d for %d native slots", len(re), len(slots))
	}
}

func BenchmarkGenerateLaunch(b *testing.B) {
	title := TitleByID(Fortnite)
	cfg := ClientConfig{Resolution: ResFHD, FPS: 60}
	netc := LabNetwork()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		GenerateLaunch(title, cfg, netc, rng, 60*time.Second)
	}
}

func BenchmarkGenerateSession(b *testing.B) {
	cfg := ClientConfig{Resolution: ResQHD, FPS: 60}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(Overwatch2, cfg, LabNetwork(), int64(i), Options{SessionLength: 30 * time.Minute})
	}
}

func TestStagesNeverSelfTransition(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 20; i++ {
		id := TitleID(i % int(NumTitles))
		spans := GenerateStages(TitleByID(id), 40*time.Minute, rng)
		for j := 2; j < len(spans); j++ {
			if spans[j].Stage == spans[j-1].Stage {
				t.Fatalf("%v: consecutive spans share stage %v", id, spans[j].Stage)
			}
		}
		for _, sp := range spans[1:] {
			if sp.Duration() < 5*time.Second {
				t.Fatalf("%v: dwell %v below the 5s floor", id, sp.Duration())
			}
		}
	}
}
