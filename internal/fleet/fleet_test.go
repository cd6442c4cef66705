package fleet

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/qoe"
	"gamelens/internal/rollup"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// trainedModels trains small-but-real classifiers once for the package.
var (
	modelsOnce sync.Once
	titleModel *titleclass.Classifier
	stageModel *stageclass.Classifier
)

func models(t testing.TB) (*titleclass.Classifier, *stageclass.Classifier) {
	t.Helper()
	modelsOnce.Do(func() {
		rng := rand.New(rand.NewSource(400))
		var train []*gamesim.Session
		for id := gamesim.TitleID(0); id < gamesim.NumTitles; id++ {
			for i := 0; i < 4; i++ {
				cfg := gamesim.RandomConfig(rng)
				train = append(train, gamesim.Generate(id, cfg, gamesim.LabNetwork(),
					400+int64(id)*977+int64(i), gamesim.Options{SessionLength: 25 * time.Minute}))
			}
		}
		var err error
		titleModel, err = titleclass.Train(train, titleclass.Config{
			Forest: mlkit.ForestConfig{NumTrees: 60, MaxDepth: 10}, Seed: 41,
		})
		if err != nil {
			panic(err)
		}
		stageModel, err = stageclass.Train(train, stageclass.Config{
			StageForest:   mlkit.ForestConfig{NumTrees: 40, MaxDepth: 10},
			PatternForest: mlkit.ForestConfig{NumTrees: 40, MaxDepth: 10},
			Seed:          43,
		})
		if err != nil {
			panic(err)
		}
	})
	return titleModel, stageModel
}

func runSmallFleet(t testing.TB, sessions int, seed int64) []*SessionRecord {
	t.Helper()
	tm, sm := models(t)
	d := New(Config{
		Sessions:      sessions,
		LongTailFrac:  -1, // paper mix; zero now means a pure-catalog population
		ImpairedFrac:  -1,
		SessionLength: 12 * time.Minute,
		Seed:          seed,
	}, tm, sm)
	return d.RunStream(0, nil)
}

func TestDeploymentRecordsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet")
	}
	records := runSmallFleet(t, 60, 1)
	if len(records) != 60 {
		t.Fatalf("%d records", len(records))
	}
	catalog, longTail := 0, 0
	for _, r := range records {
		if r.InCatalog {
			catalog++
		} else {
			longTail++
		}
		if r.DurationMinutes <= 0 || r.MeanDownMbps <= 0 {
			t.Fatalf("degenerate record: %+v", r)
		}
		var mins float64
		for _, m := range r.StageMinutes {
			mins += m
		}
		if mins <= 0 {
			t.Fatal("no classified stage minutes")
		}
	}
	if catalog == 0 || longTail == 0 {
		t.Errorf("population mix degenerate: %d catalog, %d long-tail", catalog, longTail)
	}
	if float64(longTail)/float64(len(records)) < 0.15 {
		t.Errorf("long-tail fraction too small: %d/%d", longTail, len(records))
	}
}

// TestRunStreamWorkerCountInvariant: the records, and their order, do not
// depend on how many workers measured them.
func TestRunStreamWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet several times")
	}
	tm, sm := models(t)
	d := New(Config{
		Sessions:      40,
		LongTailFrac:  -1,
		ImpairedFrac:  -1,
		SessionLength: 10 * time.Minute,
		Seed:          5,
	}, tm, sm)
	want := d.RunStream(1, nil)
	for _, workers := range []int{3, 8} {
		got := d.RunStream(workers, nil)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if *got[i] != *want[i] {
				t.Errorf("workers=%d: record %d diverged:\n got %+v\n one worker %+v",
					workers, i, *got[i], *want[i])
			}
		}
	}
}

func TestRunStreamEmitsEveryRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet twice")
	}
	tm, sm := models(t)
	d := New(Config{
		Sessions:      30,
		LongTailFrac:  -1,
		ImpairedFrac:  -1,
		SessionLength: 10 * time.Minute,
		Seed:          7,
	}, tm, sm)
	want := d.RunStream(1, nil)

	var emitted []*SessionRecord // emit is serialized, so no lock needed
	got := d.RunStream(4, func(r *SessionRecord) {
		emitted = append(emitted, r)
	})
	if len(emitted) != len(want) {
		t.Fatalf("emitted %d records, want %d", len(emitted), len(want))
	}
	// Emission order is completion order, but the set must be exactly the
	// returned records, each exactly once, and the returned slice must
	// still match the one-worker run in population order.
	seen := make(map[*SessionRecord]bool, len(emitted))
	for _, r := range emitted {
		if seen[r] {
			t.Error("record emitted twice")
		}
		seen[r] = true
	}
	for i := range want {
		if !seen[got[i]] {
			t.Errorf("record %d returned but never emitted", i)
		}
		if *got[i] != *want[i] {
			t.Errorf("record %d diverged from the one-worker run", i)
		}
	}
}

// referenceMeasure is the slice-based per-slot loop Deployment.measure ran
// before it moved onto core.Accounting, kept as the reference of
// TestMeasureMatchesReferenceLoop (the way the reflection encoders survive
// in rollup's encode_test.go). Do not tidy it: it is the old code.
func referenceMeasure(d *Deployment, s *gamesim.Session) *SessionRecord {
	rec := &SessionRecord{
		Title:           s.Title,
		InCatalog:       s.Title.IsCatalog(),
		Pattern:         s.Title.Pattern,
		Config:          s.Config,
		Net:             s.Net,
		MeanDownMbps:    s.MeanDownMbps(),
		DurationMinutes: s.Duration().Minutes(),
	}
	rec.TitleResult = d.titles.Classify(s.Launch)

	vol := d.stages.Config().Volumetric
	tracker := d.stages.NewTracker(s.LaunchEnd())
	re := trace.Rebin(s.Slots, vol.I)
	qos := qoe.EstimateSessionQoS(s, vol.I)

	demand := 1.0
	if rec.TitleResult.Known {
		demand = gamesim.TitleByID(rec.TitleResult.Title).Demand
	}
	var objective, effective []qoe.Level
	for k, slot := range re {
		sr := tracker.Push(slot)
		if sr.Stage != trace.StageLaunch {
			rec.StageMinutes[sr.Stage] += vol.I.Minutes()
		}
		if !rec.TitleResult.Known {
			if pr, ok := tracker.Pattern(); ok {
				demand = qoe.PatternDemand(pr.Pattern)
			}
		}
		if k < len(qos) {
			objective = append(objective, qoe.Objective(qos[k]))
			effective = append(effective, qoe.Effective(qos[k], qoe.Context{
				Demand: demand, Stage: sr.Stage,
				SettingsMbps: s.PeakDownMbps,
				SettingsFPS:  float64(s.Config.FPS),
			}))
		}
	}
	if pr, ok := tracker.Pattern(); ok {
		rec.PatternResult = pr
		rec.PatternKnown = true
	} else {
		rec.PatternResult = tracker.ForcePattern()
	}
	for _, sp := range s.Spans {
		rec.TrueStageMinutes[sp.Stage] += sp.Duration().Minutes()
	}
	var objCounts, effCounts [qoe.NumLevels]int64
	for _, l := range objective {
		objCounts[l]++
	}
	for _, l := range effective {
		effCounts[l]++
	}
	rec.Objective = qoe.SessionLevelFromCounts(objCounts)
	rec.Effective = qoe.SessionLevelFromCounts(effCounts)
	rec.EffectiveScore = qoe.SessionScoreFromCounts(effCounts)
	return rec
}

// TestMeasureMatchesReferenceLoop is the differential behind "fleet runs the
// tap's per-slot step": over 40 seeded sessions — catalog and long-tail
// titles, healthy and impaired paths, whole sessions and ones cut to the
// launch stage alone or to a single slot past it — measure's record must
// equal the old loop's, field for field. The copies disagreed in exactly one
// case, and core's rule is the one kept: a session that never saw a stage
// transition reports no pattern guess (the old fleet loop asked the pattern
// forest about an empty matrix).
func TestMeasureMatchesReferenceLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and measures 40 sessions twice")
	}
	tm, sm := models(t)
	d := New(Config{}, tm, sm)
	kinds := [5]int{}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		title := gamesim.TitleByID(gamesim.RandomTitle(rng))
		if seed%4 == 0 {
			title = gamesim.GenericTitle(seed)
		}
		s := gamesim.GenerateTitle(title, gamesim.RandomConfig(rng), sampleNetwork(rng, float64(seed%2)),
			seed, gamesim.Options{SessionLength: 8 * time.Minute})
		kind := int(seed % 5) // 0..2 whole, 3 launch only, 4 one slot past the launch
		if kind >= 3 {
			// The tracker calls a slot launch while it ends inside the
			// launch stage: keep the whole ones, plus one for kind 4.
			i := sm.Config().Volumetric.I
			end := (s.LaunchEnd()/i + time.Duration(kind-3)) * i
			s.Slots = s.Slots[:end/trace.SlotDuration]
			s.Spans = s.Spans[:kind-2]
			s.Spans[kind-3].End = end
		}
		kinds[kind]++

		got, want := d.measure(s), referenceMeasure(d, s)
		if got.StageMinutes == ([trace.NumStages]float64{}) != (kind == 3) {
			t.Errorf("seed %d kind %d: stage minutes %v", seed, kind, got.StageMinutes)
		}
		if kind >= 3 {
			if got.PatternKnown || got.PatternResult != (stageclass.PatternResult{}) {
				t.Errorf("seed %d: pattern %+v from a session without a stage transition", seed, got.PatternResult)
			}
			want.PatternResult = stageclass.PatternResult{}
		}
		if *got != *want {
			t.Errorf("seed %d kind %d: measure diverged from the reference loop:\n got  %+v\n want %+v", seed, kind, *got, *want)
		}
	}
	if kinds[3] == 0 || kinds[4] == 0 {
		t.Fatalf("degenerate kind mix %v", kinds)
	}
}

func TestFieldValidationAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet")
	}
	records := runSmallFleet(t, 80, 3)
	v := Validate(records)
	if v.CatalogSessions == 0 {
		t.Fatal("no catalog sessions")
	}
	// §5: field title accuracy ~95% on confident labels. Allow slack for
	// the small fleet.
	if acc := v.TitleAccuracy(); acc < 0.85 {
		t.Errorf("field title accuracy = %.3f, want >= 0.85", acc)
	}
	if frac := float64(v.KnownResults) / float64(v.CatalogSessions); frac < 0.7 {
		t.Errorf("only %.2f of catalog sessions confidently labeled", frac)
	}
}

func TestLongTailSessionsMostlyUnknown(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet")
	}
	records := runSmallFleet(t, 80, 5)
	unknownOfLongTail, longTail := 0, 0
	for _, r := range records {
		if !r.InCatalog {
			longTail++
			if !r.TitleResult.Known {
				unknownOfLongTail++
			}
		}
	}
	if longTail == 0 {
		t.Fatal("no long-tail sessions")
	}
	if frac := float64(unknownOfLongTail) / float64(longTail); frac < 0.6 {
		t.Errorf("only %.2f of long-tail sessions labeled unknown (confidence gate too lax)", frac)
	}
}

func TestAggregateByTitleShares(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet")
	}
	records := runSmallFleet(t, 80, 7)
	aggs := AggregateByTitle(records)
	if len(aggs) == 0 {
		t.Fatal("no title aggregates")
	}
	for _, a := range aggs {
		var objSum, effSum float64
		for l := 0; l < qoe.NumLevels; l++ {
			objSum += a.ObjectiveShare[l]
			effSum += a.EffectiveShare[l]
		}
		if objSum < 0.999 || objSum > 1.001 || effSum < 0.999 || effSum > 1.001 {
			t.Fatalf("%v: shares do not sum to 1 (%v, %v)", a.Title, objSum, effSum)
		}
		if a.MeanStageMinutes[trace.StageLaunch] != 0 {
			t.Errorf("%v: launch minutes leaked into stage aggregate", a.Title)
		}
	}
}

func TestEffectiveQoEImprovesOnObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet")
	}
	// The Fig 13 shape: effective QoE must grade substantially more
	// sessions good than objective QoE, without upgrading genuinely
	// impaired sessions on laggy/lossy paths.
	records := runSmallFleet(t, 100, 9)
	objGood, effGood := 0, 0
	for _, r := range records {
		if r.Objective == qoe.Good {
			objGood++
		}
		if r.Effective == qoe.Good {
			effGood++
		}
		if r.Effective != qoe.Bad {
			if r.Net.RTT > 110*time.Millisecond || r.Net.LossRate > 0.02 {
				t.Errorf("laggy/lossy session (%v rtt, %.3f loss) graded %v effective",
					r.Net.RTT, r.Net.LossRate, r.Effective)
			}
		}
	}
	if effGood <= objGood {
		t.Errorf("effective good %d <= objective good %d; calibration had no effect", effGood, objGood)
	}
}

// TestConfigFractionSentinels is the regression for the sentinel-overload
// bug: an explicit zero fraction used to be silently replaced by the paper
// defaults, making a pure-catalog or unimpaired population unexpressible.
// Zero now means zero; negative selects the default.
func TestConfigFractionSentinels(t *testing.T) {
	zero := Config{Sessions: 300, LongTailFrac: 0, ImpairedFrac: 0, Seed: 2}.withDefaults()
	if zero.LongTailFrac != 0 || zero.ImpairedFrac != 0 {
		t.Fatalf("explicit zero fractions clobbered: long-tail %v, impaired %v",
			zero.LongTailFrac, zero.ImpairedFrac)
	}
	def := Config{Sessions: 300, LongTailFrac: -1, ImpairedFrac: -1}.withDefaults()
	if def.LongTailFrac != DefaultLongTailFrac || def.ImpairedFrac != DefaultImpairedFrac {
		t.Fatalf("negative fractions did not select defaults: %v, %v",
			def.LongTailFrac, def.ImpairedFrac)
	}
	over := Config{LongTailFrac: 1.5, ImpairedFrac: 2}.withDefaults()
	if over.LongTailFrac != 1 || over.ImpairedFrac != 1 {
		t.Fatalf("fractions not clamped to 1: %v, %v", over.LongTailFrac, over.ImpairedFrac)
	}

	// A 0% long-tail population draws only catalog titles, and a 0%
	// impaired population only healthy paths. Sampling does not need
	// trained models, so this runs at full population size.
	d := New(Config{Sessions: 300, LongTailFrac: 0, ImpairedFrac: 0, Seed: 2}, nil, nil)
	for i, dr := range d.samplePopulation() {
		if !dr.title.IsCatalog() {
			t.Fatalf("draw %d: long-tail title %q in a 0%% long-tail population", i, dr.title.Name)
		}
		if dr.net.Impaired(10) {
			t.Fatalf("draw %d: impaired path %+v in a 0%% impaired population", i, dr.net)
		}
	}

	// And the default mix still produces both.
	d = New(Config{Sessions: 300, LongTailFrac: -1, ImpairedFrac: -1, Seed: 2}, nil, nil)
	longTail, impaired := 0, 0
	for _, dr := range d.samplePopulation() {
		if !dr.title.IsCatalog() {
			longTail++
		}
		if dr.net.Impaired(10) {
			impaired++
		}
	}
	if longTail == 0 || impaired == 0 {
		t.Errorf("default mix degenerate: %d long-tail, %d impaired of 300", longTail, impaired)
	}
}

// TestRollupMatchesAggregates validates the fleet→rollup bridge: a
// day-spanning window built from RunStream records must agree with the
// direct whole-run aggregations (Fig 11–13's inputs), and be independent
// of emission order.
func TestRollupMatchesAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet")
	}
	records := runSmallFleet(t, 60, 13)
	base := time.Date(2026, 7, 10, 6, 0, 0, 0, time.UTC)
	const stagger, subscribers = 7 * time.Minute, 10

	ru := rollup.New(rollup.Config{Window: 24 * time.Hour, Buckets: 24})
	sink := RollupSink(ru, base, stagger, subscribers)
	for _, r := range records {
		sink(r)
	}

	total := ru.Total()
	if total.Sessions != int64(len(records)) {
		t.Fatalf("window sessions = %d, want %d", total.Sessions, len(records))
	}
	if got := len(ru.Subscribers()); got != subscribers {
		t.Errorf("%d subscribers, want %d", got, subscribers)
	}
	known := 0
	var stageMins [trace.NumStages]float64
	for _, r := range records {
		if r.TitleResult.Known {
			known++
		}
		for st, m := range r.StageMinutes {
			stageMins[st] += m
		}
	}
	var titleSessions int64
	for _, n := range total.Titles {
		titleSessions += n
	}
	if titleSessions != int64(known) {
		t.Errorf("window title sessions = %d, want %d confidently-labeled records", titleSessions, known)
	}
	var patternSessions int64
	for _, n := range total.Patterns {
		patternSessions += n
	}
	if patternSessions != int64(len(records)-known) {
		t.Errorf("window pattern sessions = %d, want %d long-tail records",
			patternSessions, len(records)-known)
	}
	for _, agg := range AggregateByTitle(records) {
		if got := total.Titles[agg.Title.String()]; got != int64(agg.Sessions) {
			t.Errorf("title %v: window counts %d sessions, aggregate %d", agg.Title, got, agg.Sessions)
		}
	}
	for st := range stageMins {
		if diff := total.StageMinutes[st] - stageMins[st]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("stage %d minutes: window %v, records %v", st, total.StageMinutes[st], stageMins[st])
		}
	}

	// Emission order must not matter on a day-spanning window: reverse
	// feeding yields a byte-identical checkpoint.
	rev := rollup.New(rollup.Config{Window: 24 * time.Hour, Buckets: 24})
	revSink := RollupSink(rev, base, stagger, subscribers)
	for i := len(records) - 1; i >= 0; i-- {
		revSink(records[i])
	}
	var a, b bytes.Buffer
	if err := ru.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := rev.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("rollup window depends on record emission order")
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if Percentile(s, 0) != 1 || Percentile(s, 1) != 5 || Percentile(s, 0.5) != 3 {
		t.Error("percentile wrong")
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
}

func TestGenericTitleDeterministic(t *testing.T) {
	a := gamesim.GenericTitle(42)
	b := gamesim.GenericTitle(42)
	if a.Name != b.Name || a.Pattern != b.Pattern || a.Demand != b.Demand {
		t.Error("GenericTitle not deterministic")
	}
	if a.IsCatalog() {
		t.Error("generic title claims catalog membership")
	}
	if gamesim.TitleByID(gamesim.Fortnite).IsCatalog() != true {
		t.Error("catalog title not recognized")
	}
	c := gamesim.GenericTitle(43)
	if c.Name == a.Name {
		t.Error("different seeds share a name")
	}
}

func TestAggregateByPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and simulates a fleet")
	}
	records := runSmallFleet(t, 80, 11)
	aggs := AggregateByPattern(records)
	if len(aggs) != gamesim.NumPatterns {
		t.Fatalf("%d pattern aggregates", len(aggs))
	}
	total := 0
	for _, a := range aggs {
		total += a.Sessions
	}
	unknown := 0
	for _, r := range records {
		if !r.TitleResult.Known {
			unknown++
		}
	}
	if total != unknown {
		t.Errorf("pattern aggregates cover %d sessions, want %d unknown-title sessions", total, unknown)
	}
}
