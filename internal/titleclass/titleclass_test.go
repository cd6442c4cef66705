package titleclass

import (
	"math/rand"
	"testing"
	"time"

	"gamelens/internal/features"
	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/race"
	"gamelens/internal/trace"
)

// launchSessions generates n sessions per title with random lab configs,
// detailed only over the launch window (fast).
func launchSessions(t testing.TB, perTitle int, seed int64) []*gamesim.Session {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []*gamesim.Session
	for id := gamesim.TitleID(0); id < gamesim.NumTitles; id++ {
		for i := 0; i < perTitle; i++ {
			cfg := gamesim.RandomConfig(rng)
			out = append(out, gamesim.Generate(id, cfg, gamesim.LabNetwork(), seed+int64(id)*1000+int64(i), gamesim.Options{
				SessionLength: 2 * time.Minute,
			}))
		}
	}
	return out
}

func TestTrainAndClassifyAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a forest")
	}
	train := launchSessions(t, 8, 1)
	test := launchSessions(t, 3, 2)
	c, err := Train(train, Config{Forest: mlkit.ForestConfig{NumTrees: 80, MaxDepth: 10}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct, known := 0, 0
	for _, s := range test {
		r := c.Classify(s.Launch)
		if r.Known {
			known++
			if r.Title == s.Title.ID {
				correct++
			}
		}
	}
	if known < len(test)*8/10 {
		t.Errorf("only %d/%d sessions classified confidently", known, len(test))
	}
	if acc := float64(correct) / float64(known); acc < 0.90 {
		t.Errorf("accuracy on confident sessions = %.3f, want >= 0.90 (paper: >95%%)", acc)
	}
}

func TestPacketGroupBeatsVolumetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two forests")
	}
	// The core Table 3 claim: packet-group attributes outperform plain
	// flow-volumetric attributes, because volume confounds title with
	// streaming settings.
	sessions := launchSessions(t, 10, 7)
	cfg := Config{}.withDefaults()
	pg := BuildDataset(sessions, cfg.Window, cfg.Slot, cfg.Groups)
	vol := BuildVolumetricDataset(sessions, cfg.Window, cfg.Slot)
	fc := mlkit.ForestConfig{NumTrees: 60, MaxDepth: 10, Seed: 9}

	evalAcc := func(d *mlkit.Dataset) float64 {
		tr, te, err := mlkit.StratifiedSplit(d, 0.3, 11)
		if err != nil {
			t.Fatal(err)
		}
		f, err := mlkit.FitForest(tr, fc)
		if err != nil {
			t.Fatal(err)
		}
		return mlkit.Evaluate(f, te).Accuracy()
	}
	pgAcc := evalAcc(pg)
	volAcc := evalAcc(vol)
	t.Logf("packet-group accuracy %.3f vs volumetric %.3f", pgAcc, volAcc)
	if pgAcc <= volAcc {
		t.Errorf("packet-group (%.3f) must beat volumetric (%.3f)", pgAcc, volAcc)
	}
	if pgAcc < 0.9 {
		t.Errorf("packet-group accuracy %.3f below 0.9", pgAcc)
	}
}

func TestUnknownOnGarbageInput(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a forest")
	}
	train := launchSessions(t, 6, 21)
	c, err := Train(train, Config{Forest: mlkit.ForestConfig{NumTrees: 60, MaxDepth: 10}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// An empty launch window must never be a confident classification.
	r := c.Classify(nil)
	if r.Known {
		t.Errorf("empty window classified as %v with %.2f confidence", r.Title, r.Confidence)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Window != 5*time.Second || cfg.Slot != time.Second {
		t.Errorf("N/T defaults wrong: %v/%v", cfg.Window, cfg.Slot)
	}
	if cfg.ConfidenceThreshold != 0.40 {
		t.Errorf("confidence threshold = %v", cfg.ConfidenceThreshold)
	}
	if cfg.Forest.NumTrees != 500 || cfg.Forest.MaxDepth != 10 {
		t.Errorf("forest defaults = %+v", cfg.Forest)
	}
	if cfg.Groups.V != 0.10 {
		t.Errorf("V default = %v", cfg.Groups.V)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Title: gamesim.Fortnite, Known: true, Confidence: 0.97}
	if r.String() != "Fortnite (97%)" {
		t.Errorf("String = %q", r.String())
	}
	u := Result{Confidence: 0.2}
	if u.String() != "unknown (20%)" {
		t.Errorf("String = %q", u.String())
	}
}

func TestResultGenrePattern(t *testing.T) {
	r := Result{Title: gamesim.Hearthstone, Known: true}
	if g, ok := r.Genre(); !ok || g != gamesim.GenreCard {
		t.Errorf("genre = %v, %v", g, ok)
	}
	if p, ok := r.Pattern(); !ok || p != gamesim.SpectateAndPlay {
		t.Errorf("pattern = %v, %v", p, ok)
	}
	u := Result{}
	if _, ok := u.Genre(); ok {
		t.Error("unknown result has genre")
	}
	if _, ok := u.Pattern(); ok {
		t.Error("unknown result has pattern")
	}
}

func TestClassificationRobustToMildLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a forest")
	}
	// §4.4.1 notes N/T were tuned without injected impairments; mild loss
	// and jitter should nevertheless not break classification, since the
	// attributes are statistical.
	train := launchSessions(t, 8, 61)
	c, err := Train(train, Config{Forest: mlkit.ForestConfig{NumTrees: 60, MaxDepth: 10}, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	lossy := gamesim.NetworkConditions{
		RTT:      20 * time.Millisecond,
		Jitter:   2 * time.Millisecond,
		LossRate: 0.01,
	}
	rng := rand.New(rand.NewSource(65))
	correct, known := 0, 0
	for id := gamesim.TitleID(0); id < gamesim.NumTitles; id++ {
		for i := 0; i < 2; i++ {
			cfg := gamesim.RandomConfig(rng)
			s := gamesim.Generate(id, cfg, lossy, 650+int64(id)*31+int64(i), gamesim.Options{
				SessionLength: 2 * time.Minute,
			})
			r := c.Classify(s.Launch)
			if r.Known {
				known++
				if r.Title == id {
					correct++
				}
			}
		}
	}
	if known < 18 {
		t.Errorf("only %d/26 lossy sessions classified confidently", known)
	}
	if acc := float64(correct) / float64(known); acc < 0.85 {
		t.Errorf("accuracy under 1%% loss = %.3f, want >= 0.85", acc)
	}
}

// TestTitleDecisionAllocs pins the whole per-flow title decision — begin an
// accumulator, stream the launch window into it, decide — at zero
// allocations on warm scratch, the state a long-running pipeline is in; and
// the streamed decision is the batch one.
func TestTitleDecisionAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	train := launchSessions(t, 2, 31)
	c, err := Train(train, Config{Forest: mlkit.ForestConfig{NumTrees: 10, MaxDepth: 8}, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	launch := train[0].Launch
	var sc Scratch
	var acc features.LaunchAccumulator
	var got Result
	decide := func() {
		c.Begin(&acc, &sc)
		for _, p := range launch {
			if p.Dir == trace.Down {
				acc.Add(p.T, p.Size)
			}
		}
		got = c.Decide(&acc, &sc)
	}
	decide() // warm-up: slot buffers, scratch, probability vector
	if n := testing.AllocsPerRun(20, decide); n != 0 {
		t.Fatalf("a warm title decision allocates %.1f/op, want 0", n)
	}
	if want := c.Classify(launch); got != want {
		t.Fatalf("streamed decision %v, batch decision %v", got, want)
	}
}
