package gamelens

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/race"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

func smallTrainOptions() TrainOptions {
	opts := TrainOptions{
		SessionsPerTitle: 5,
		SessionLength:    12 * time.Minute,
		TitleConfig:      titleclass.Config{Forest: mlkit.ForestConfig{NumTrees: 60, MaxDepth: 10}},
	}
	if race.Enabled {
		opts.SessionsPerTitle = 2
		opts.SessionLength = 6 * time.Minute
		opts.TitleConfig.Forest.NumTrees = 20
		opts.StageConfig = stageclass.Config{
			StageForest:   mlkit.ForestConfig{NumTrees: 15, MaxDepth: 10},
			PatternForest: mlkit.ForestConfig{NumTrees: 15, MaxDepth: 10},
		}
	}
	return opts
}

func TestTrainModelsAndClassify(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	models, err := TrainModels(5, smallTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := gamesim.Generate(gamesim.Fortnite,
		gamesim.ClientConfig{Resolution: gamesim.ResQHD, FPS: 60},
		gamesim.LabNetwork(), 777, gamesim.Options{SessionLength: 8 * time.Minute})
	r := models.Title.Classify(s.Launch)
	if !r.Known || r.Title != gamesim.Fortnite {
		t.Errorf("classified %v, want Fortnite", r)
	}
	tracker := models.Stage.NewTracker(s.LaunchEnd())
	for _, slot := range trace.Rebin(s.Slots, time.Second) {
		tracker.Push(slot)
	}
	if tracker.Transitions().Total() == 0 {
		t.Error("tracker saw no transitions")
	}
}

func TestTrainModelsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models twice")
	}
	opts := smallTrainOptions()
	opts.SessionsPerTitle = 2
	a, err := TrainModels(9, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainModels(9, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := gamesim.Generate(gamesim.Dota2,
		gamesim.ClientConfig{Resolution: gamesim.ResFHD, FPS: 60},
		gamesim.LabNetwork(), 13, gamesim.Options{SessionLength: 5 * time.Minute})
	ra, rb := a.Title.Classify(s.Launch), b.Title.Classify(s.Launch)
	if ra != rb {
		t.Errorf("same seed, different results: %v vs %v", ra, rb)
	}
}

func TestSaveLoadTitleModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	models, err := TrainModels(11, smallTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTitleModel(&buf, models); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTitleModel(&buf, titleclass.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := gamesim.Generate(gamesim.Hearthstone,
		gamesim.ClientConfig{Resolution: gamesim.ResHD, FPS: 30},
		gamesim.LabNetwork(), 17, gamesim.Options{SessionLength: 5 * time.Minute})
	if a, b := models.Title.Classify(s.Launch), loaded.Classify(s.Launch); a != b {
		t.Errorf("loaded model disagrees: %v vs %v", a, b)
	}
}

// TestLoadModelsRejectMisfits: a forest that is well-formed on its own but
// does not fit the classifier it is loaded for — a split past the attribute
// vector, more classes than the catalog has titles — fails at load, not at
// the first flow's inference on a shard worker.
func TestLoadModelsRejectMisfits(t *testing.T) {
	leaf := func(classes int) string {
		return `{"f":-1,"d":[1` + strings.Repeat(",0", classes-1) + `]}`
	}
	forest := func(classes, feature int) string {
		return fmt.Sprintf(`{"format":"gamelens-forest-v1","num_classes":%d,"trees":[{"nodes":[{"f":%d,"t":1,"l":1,"r":2},%s,%s]}]}`,
			classes, feature, leaf(classes), leaf(classes))
	}
	if _, err := LoadTitleModel(strings.NewReader(forest(2, 50)), titleclass.Config{}); err != nil {
		t.Errorf("title forest splitting on the last launch attribute rejected: %v", err)
	}
	if _, err := LoadTitleModel(strings.NewReader(forest(2, 51)), titleclass.Config{}); err == nil {
		t.Error("title forest splitting past the launch attributes accepted")
	}
	if _, err := LoadTitleModel(strings.NewReader(forest(int(gamesim.NumTitles)+1, 0)), titleclass.Config{}); err == nil {
		t.Error("title forest with more classes than titles accepted")
	}
	if _, err := LoadStageModels(strings.NewReader(forest(3, 3)+forest(2, 8)), stageclass.Config{}); err != nil {
		t.Errorf("stage and pattern forests splitting on their last attributes rejected: %v", err)
	}
	if _, err := LoadStageModels(strings.NewReader(forest(3, 4)+forest(2, 0)), stageclass.Config{}); err == nil {
		t.Error("stage forest splitting past the stage attributes accepted")
	}
	if _, err := LoadStageModels(strings.NewReader(forest(3, 0)+forest(2, 9)), stageclass.Config{}); err == nil {
		t.Error("pattern forest splitting past the transition attributes accepted")
	}
}

func TestNewPipelineWired(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	models, err := TrainModels(15, smallTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(PipelineConfig{}, models)
	if p == nil {
		t.Fatal("nil pipeline")
	}
	if got := p.Finish(); len(got) != 0 {
		t.Errorf("fresh pipeline has %d sessions", len(got))
	}
}

// TestEngineLifecycleThroughFacade exercises the streaming deployment
// shape end to end through the public API: an Engine with a FlowTTL and a
// ReportSink over a mostly-sequential capture must stream each flow's
// report as it expires and leave nothing unreported at Finish.
func TestEngineLifecycleThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	models, err := TrainModels(27, smallTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	const flows = 4
	var sessions []*gamesim.Session
	for i := 0; i < flows; i++ {
		sessions = append(sessions, gamesim.Generate(gamesim.TitleID(i),
			gamesim.ClientConfig{Resolution: gamesim.ResFHD, FPS: 60},
			gamesim.LabNetwork(), 500+int64(i), gamesim.Options{SessionLength: 2 * time.Minute}))
	}
	st := gamesim.NewPacketStream(sessions, 45*time.Second,
		time.Date(2026, 6, 1, 11, 0, 0, 0, time.UTC), 90*time.Second)

	var streamed []*SessionReport // single-reader replay; engine serializes the sink
	eng := NewEngine(EngineConfig{
		Shards:   2,
		Sink:     func(r *SessionReport) { streamed = append(streamed, r) },
		Pipeline: PipelineConfig{FlowTTL: 20 * time.Second},
	}, models)
	gamesim.ReplayRawFrames(st.Flows, st.Eps, st.Starts, eng.Producer().HandleFrame)
	reports := eng.Finish()
	if len(reports) != flows {
		t.Fatalf("%d reports, want %d", len(reports), flows)
	}
	if len(streamed) != flows {
		t.Fatalf("sink saw %d reports, want %d", len(streamed), flows)
	}
	stats := eng.Stats()
	if stats.Flows() != flows || stats.ActiveFlows+int(stats.EvictedFlows) != flows {
		t.Errorf("flow accounting off: %+v", stats)
	}
	if stats.EmittedReports != int64(flows) {
		t.Errorf("EmittedReports = %d, want %d", stats.EmittedReports, flows)
	}
}

func TestSaveLoadStageModels(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	models, err := TrainModels(19, smallTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveStageModels(&buf, models); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStageModels(&buf, models.Stage.Config())
	if err != nil {
		t.Fatal(err)
	}
	s := gamesim.Generate(gamesim.Overwatch2,
		gamesim.ClientConfig{Resolution: gamesim.ResFHD, FPS: 60},
		gamesim.LabNetwork(), 23, gamesim.Options{SessionLength: 8 * time.Minute})
	a := models.Stage.NewTracker(s.LaunchEnd())
	b := loaded.NewTracker(s.LaunchEnd())
	for _, slot := range trace.Rebin(s.Slots, time.Second) {
		ra, rb := a.Push(slot), b.Push(slot)
		if ra.Stage != rb.Stage {
			t.Fatal("loaded stage model disagrees")
		}
	}
}
