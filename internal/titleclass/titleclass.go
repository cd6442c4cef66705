// Package titleclass implements the game-title classification process of
// §4.2: the first N seconds of a cloud-game streaming flow are reduced to
// the 51 packet-group attributes of Fig 7 and classified by a pre-trained
// model; low-confidence predictions are reported as "unknown" so the
// operator can fall back to the gameplay-activity-pattern inference.
package titleclass

import (
	"fmt"
	"time"

	"gamelens/internal/features"
	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/trace"
)

// Config carries the tunable parameters of §4.4.1. Zero values take the
// deployed defaults: N=5 s, T=1 s, V=10%, confidence threshold 40%, and a
// 500-tree depth-10 random forest (Appendix C.1).
type Config struct {
	// Window is N, the classified launch prefix.
	Window time.Duration
	// Slot is T, the attribute time-slot width.
	Slot time.Duration
	// Groups tunes the packet-group labeler (V lives here).
	Groups features.GroupConfig
	// ConfidenceThreshold is the minimum label confidence below which the
	// session is reported unknown (§4.4.1 observes misclassified sessions
	// mostly under 40%).
	ConfidenceThreshold float64
	// Forest configures the model (500 trees, depth 10 deployed).
	Forest mlkit.ForestConfig
	// AugmentPerClass balances training classes by variation-based
	// synthesis up to this many samples per class (0 disables; §4.4).
	AugmentPerClass int
	// Seed drives training randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 5 * time.Second
	}
	if c.Slot <= 0 {
		c.Slot = time.Second
	}
	if c.Groups.MaxPayload == 0 && c.Groups.V == 0 {
		c.Groups = features.DefaultGroupConfig()
	}
	if c.ConfidenceThreshold <= 0 {
		c.ConfidenceThreshold = 0.40
	}
	if c.Forest.NumTrees == 0 {
		c.Forest = mlkit.ForestConfig{NumTrees: 500, MaxDepth: 10}
	}
	if c.Forest.Seed == 0 {
		c.Forest.Seed = c.Seed + 17
	}
	return c
}

// Result is one classification outcome.
type Result struct {
	// Title is the classified catalog title; only meaningful when Known.
	Title gamesim.TitleID
	// Known is false when confidence fell below the threshold and the
	// session should be treated as an unknown title.
	Known bool
	// Confidence is the model's label confidence in [0,1].
	Confidence float64
}

// String renders the result.
func (r Result) String() string {
	if !r.Known {
		return fmt.Sprintf("unknown (%.0f%%)", r.Confidence*100)
	}
	return fmt.Sprintf("%v (%.0f%%)", r.Title, r.Confidence*100)
}

// Classifier classifies game titles from launch-window packets.
type Classifier struct {
	cfg   Config
	model mlkit.Classifier
}

// BuildDataset reduces sessions to the 51-attribute dataset for training and
// evaluation, labeled by catalog title.
func BuildDataset(sessions []*gamesim.Session, window, slot time.Duration, groups features.GroupConfig) *mlkit.Dataset {
	d := &mlkit.Dataset{
		FeatureNames: features.LaunchAttrNames(),
		ClassNames:   gamesim.TitleNames(),
	}
	for _, s := range sessions {
		d.Append(features.LaunchAttributes(s.Launch, window, slot, groups), int(s.Title.ID))
	}
	return d
}

// BuildVolumetricDataset reduces sessions to the flow-volumetric baseline
// attributes used in the rightmost column of Table 3.
func BuildVolumetricDataset(sessions []*gamesim.Session, window, slot time.Duration) *mlkit.Dataset {
	d := &mlkit.Dataset{
		FeatureNames: features.VolumetricLaunchAttrNames(window, slot),
		ClassNames:   gamesim.TitleNames(),
	}
	for _, s := range sessions {
		d.Append(features.VolumetricLaunchAttributes(s.Launch, window, slot), int(s.Title.ID))
	}
	return d
}

// Train fits a title classifier on generated (or replayed) sessions.
func Train(sessions []*gamesim.Session, cfg Config) (*Classifier, error) {
	cfg = cfg.withDefaults()
	d := BuildDataset(sessions, cfg.Window, cfg.Slot, cfg.Groups)
	if cfg.AugmentPerClass > 0 {
		d = mlkit.Augment(d, cfg.AugmentPerClass, 0.04, cfg.Seed+3)
	}
	model, err := mlkit.FitForest(d, cfg.Forest)
	if err != nil {
		return nil, fmt.Errorf("titleclass: %w", err)
	}
	return &Classifier{cfg: cfg, model: model}, nil
}

// FromModel wraps an externally trained model (e.g. loaded from disk, or an
// SVM/KNN from the Fig 14 comparison) with the classification config.
func FromModel(model mlkit.Classifier, cfg Config) *Classifier {
	return &Classifier{cfg: cfg.withDefaults(), model: model}
}

// Config returns the effective configuration.
func (c *Classifier) Config() Config { return c.cfg }

// Model exposes the underlying model (for persistence and importance
// analysis).
func (c *Classifier) Model() mlkit.Classifier { return c.model }

// Classify reduces the launch packets of one session, sorted by time, and
// predicts its title.
func (c *Classifier) Classify(launch []trace.Pkt) Result {
	var sc Scratch
	return c.ClassifyWith(launch, &sc)
}

// Scratch is reusable classification state: the attribute vector and the
// model probability vector one title decision needs, the slot-closing
// scratch every launch accumulator begun with it borrows, and the
// accumulator ClassifyWith itself runs. A long-running caller
// (core.Pipeline classifies every flow it tracks) keeps one Scratch and
// reuses it across flows; it must not be shared between goroutines. The
// zero value is ready to use.
type Scratch struct {
	attrs  [features.NumLaunchAttrs]float64
	probs  []float64
	launch features.LaunchScratch
	acc    features.LaunchAccumulator
}

// Begin readies acc to take one flow's launch window under the
// classifier's N, T and V; acc borrows sc until Decide. This is the
// streaming form of the title decision: Begin, acc.Add per downstream
// packet, Decide.
func (c *Classifier) Begin(acc *features.LaunchAccumulator, sc *Scratch) {
	acc.Reset(c.cfg.Window, c.cfg.Slot, c.cfg.Groups, &sc.launch)
}

// Decide finishes acc's window and predicts the title from its attributes.
func (c *Classifier) Decide(acc *features.LaunchAccumulator, sc *Scratch) Result {
	x := acc.Finish(sc.attrs[:])
	if sc.probs == nil {
		sc.probs = make([]float64, c.model.NumClasses())
	}
	return c.fromProbs(c.model.PredictProbaInto(x, sc.probs))
}

// ClassifyWith is Classify reusing caller-owned scratch, so the per-flow
// title decision costs no allocation beyond the classifier's own work.
func (c *Classifier) ClassifyWith(launch []trace.Pkt, sc *Scratch) Result {
	c.Begin(&sc.acc, sc)
	sc.acc.AddPkts(launch)
	return c.Decide(&sc.acc, sc)
}

// fromProbs reduces a class probability vector to a Result.
func (c *Classifier) fromProbs(probs []float64) Result {
	best, conf := 0, 0.0
	for i, p := range probs {
		if p > conf {
			best, conf = i, p
		}
	}
	return Result{
		Title:      gamesim.TitleID(best),
		Known:      conf >= c.cfg.ConfidenceThreshold,
		Confidence: conf,
	}
}

// Genre returns the catalog genre of a known result; ok is false for
// unknown-title results. Operators that only need coarse context (e.g. for
// slice sizing) can group by genre instead of title.
func (r Result) Genre() (gamesim.Genre, bool) {
	if !r.Known {
		return 0, false
	}
	return gamesim.TitleByID(r.Title).Genre, true
}

// Pattern returns the gameplay activity pattern implied by a known title —
// the direct catalog lookup the paper cross-validates against the
// transition-based inference (§4.1).
func (r Result) Pattern() (gamesim.Pattern, bool) {
	if !r.Known {
		return 0, false
	}
	return gamesim.TitleByID(r.Title).Pattern, true
}
