package experiments

import (
	"fmt"
	"time"

	"gamelens/internal/features"
	"gamelens/internal/fleet"
	"gamelens/internal/gamesim"
	"gamelens/internal/mlkit"
	"gamelens/internal/qoe"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// FieldRun bundles the trained models and deployment records shared by the
// §5 experiments (Fig 11–13 and the field validation) so the fleet is only
// simulated once.
type FieldRun struct {
	Records []*fleet.SessionRecord
	Opts    Options
}

// NewFieldRun trains deployment models on the corpus and simulates the
// fleet.
func NewFieldRun(c *Corpus) (*FieldRun, error) {
	opts := c.Opts
	titles, err := titleclass.Train(c.Train, titleclass.Config{
		Forest: mlkit.ForestConfig{NumTrees: opts.Trees, MaxDepth: 10},
		Seed:   opts.Seed + 31,
	})
	if err != nil {
		return nil, err
	}
	stages, err := stageclass.Train(c.Train, stageclass.Config{
		StageForest:   mlkit.ForestConfig{NumTrees: opts.Trees, MaxDepth: 10},
		PatternForest: mlkit.ForestConfig{NumTrees: opts.Trees, MaxDepth: 10},
		Seed:          opts.Seed + 33,
	})
	if err != nil {
		return nil, err
	}
	sessionLen := time.Duration(0) // realistic per-title lengths
	if opts.SessionMinutes > 0 && opts.SessionMinutes < 30 {
		sessionLen = time.Duration(opts.SessionMinutes) * time.Minute
	}
	d := fleet.New(fleet.Config{
		Sessions:      opts.FleetSessions,
		LongTailFrac:  -1, // the Table 1 population mix (DefaultLongTailFrac)
		ImpairedFrac:  -1, // DefaultImpairedFrac
		SessionLength: sessionLen,
		Seed:          opts.Seed + 35,
	}, titles, stages)
	return &FieldRun{Records: d.RunStream(0, nil), Opts: opts}, nil
}

// Figure11 reports the average minutes per session spent in each player
// activity stage, per classified title (a) and per inferred pattern for
// long-tail sessions (b).
func Figure11(fr *FieldRun) *Result {
	t := &Table{Header: []string{"Group", "active min", "passive min", "idle min", "total min"}}
	for _, agg := range fleet.AggregateByTitle(fr.Records) {
		m := agg.MeanStageMinutes
		t.Add(agg.Title.String(),
			fmt.Sprintf("%.1f", m[trace.StageActive]),
			fmt.Sprintf("%.1f", m[trace.StagePassive]),
			fmt.Sprintf("%.1f", m[trace.StageIdle]),
			fmt.Sprintf("%.1f", m[trace.StageActive]+m[trace.StagePassive]+m[trace.StageIdle]))
	}
	for _, agg := range fleet.AggregateByPattern(fr.Records) {
		if agg.Sessions == 0 {
			continue
		}
		m := agg.MeanStageMinutes
		t.Add("[pattern] "+agg.Pattern.String(),
			fmt.Sprintf("%.1f", m[trace.StageActive]),
			fmt.Sprintf("%.1f", m[trace.StagePassive]),
			fmt.Sprintf("%.1f", m[trace.StageIdle]),
			fmt.Sprintf("%.1f", m[trace.StageActive]+m[trace.StagePassive]+m[trace.StageIdle]))
	}
	return &Result{
		ID: "Figure 11", Title: "Average minutes per stage per session (per title and per pattern)", Table: t,
		Notes: []string{"paper: Baldur's Gate ~95 min sessions, RPGs idle/passive-heavy, Fortnite/Dota mostly active, Rocket League/CS:GO shortest"},
	}
}

// Figure12 reports per-session average throughput distributions per title
// and per pattern (min / median / p90 / max of the session means).
func Figure12(fr *FieldRun) *Result {
	t := &Table{Header: []string{"Group", "sessions", "min", "median", "p90", "max (Mbps)"}}
	row := func(name string, n int, tputs []float64) {
		if n == 0 {
			return
		}
		t.Add(name, n,
			fmt.Sprintf("%.1f", fleet.Percentile(tputs, 0)),
			fmt.Sprintf("%.1f", fleet.Percentile(tputs, 0.5)),
			fmt.Sprintf("%.1f", fleet.Percentile(tputs, 0.9)),
			fmt.Sprintf("%.1f", fleet.Percentile(tputs, 1)))
	}
	for _, agg := range fleet.AggregateByTitle(fr.Records) {
		row(agg.Title.String(), agg.Sessions, agg.Throughputs)
	}
	for _, agg := range fleet.AggregateByPattern(fr.Records) {
		row("[pattern] "+agg.Pattern.String(), agg.Sessions, agg.Throughputs)
	}
	return &Result{
		ID: "Figure 12", Title: "Average throughput per session (per title and per pattern)", Table: t,
		Notes: []string{"paper: high-demand titles reach ~68 Mbps, Hearthstone caps ~20 Mbps, most sessions 10–25 Mbps"},
	}
}

// Figure13 reports the objective vs effective QoE level shares per title
// and per pattern.
func Figure13(fr *FieldRun) *Result {
	t := &Table{Header: []string{"Group", "obj good", "obj med", "obj bad", "eff good", "eff med", "eff bad"}}
	row := func(name string, objShare, effShare [qoe.NumLevels]float64) {
		t.Add(name,
			pct(objShare[qoe.Good]), pct(objShare[qoe.Medium]), pct(objShare[qoe.Bad]),
			pct(effShare[qoe.Good]), pct(effShare[qoe.Medium]), pct(effShare[qoe.Bad]))
	}
	for _, agg := range fleet.AggregateByTitle(fr.Records) {
		row(agg.Title.String(), agg.ObjectiveShare, agg.EffectiveShare)
	}
	for _, agg := range fleet.AggregateByPattern(fr.Records) {
		if agg.Sessions == 0 {
			continue
		}
		row("[pattern] "+agg.Pattern.String(), agg.ObjectiveShare, agg.EffectiveShare)
	}
	var objGood, effGood, n float64
	for _, r := range fr.Records {
		if r.Objective == qoe.Good {
			objGood++
		}
		if r.Effective == qoe.Good {
			effGood++
		}
		n++
	}
	return &Result{
		ID: "Figure 13", Title: "Objective vs effective QoE shares (per title and per pattern)", Table: t,
		Notes: []string{fmt.Sprintf("overall good: %.1f%% objective -> %.1f%% effective (paper: all titles gain; Hearthstone 0%%->80%%, Cyberpunk ->95%%)",
			objGood/n*100, effGood/n*100)},
	}
}

// FieldValidation reproduces the §5 validation of the online classification
// against offline server logs.
func FieldValidation(fr *FieldRun) *Result {
	v := fleet.Validate(fr.Records)
	t := &Table{Header: []string{"Metric", "Value"}}
	t.Add("catalog sessions", v.CatalogSessions)
	t.Add("confident title labels", v.KnownResults)
	t.Add("title accuracy (confident)", pct(v.TitleAccuracy()))
	t.Add("long-tail sessions", v.PatternSessions)
	t.Add("pattern accuracy (long-tail)", pct(v.PatternAccuracy()))
	return &Result{
		ID: "Field validation", Title: "Online classification vs offline server logs (§5)", Table: t,
		Notes: []string{"paper: overall title accuracy above 95% in the field month"},
	}
}

// Ablations quantifies the method's design choices: EMA on/off,
// peak-relative vs absolute volumetric features, and the V sweep of §4.4.1.
func Ablations(c *Corpus) (*Result, error) {
	opts := c.Opts
	t := &Table{Header: []string{"Ablation", "Variant", "Accuracy"}}

	// EMA on vs off for stage classification (alpha=1 disables smoothing).
	for _, alpha := range []float64{0.5, 1.0} {
		vcfg := stageVolCfg(alpha)
		train := stageclass.BuildStageDataset(c.Train, vcfg)
		test := stageclass.BuildStageDataset(c.Test, vcfg)
		m, err := trainEval(train, test, opts.Trees, opts.Seed+41)
		if err != nil {
			return nil, err
		}
		label := "EMA alpha=0.5 (deployed)"
		if alpha == 1.0 {
			label = "EMA off (alpha=1)"
		}
		t.Add("stage smoothing", label, pct(m.Accuracy()))
	}

	// V sweep for the packet-group labeler.
	for _, v := range []float64{0.01, 0.05, 0.10, 0.15, 0.20} {
		gcfg := titleGroupCfg(v)
		train := titleclass.BuildDataset(c.Train, 5*time.Second, time.Second, gcfg)
		test := titleclass.BuildDataset(c.Test, 5*time.Second, time.Second, gcfg)
		m, err := trainEval(train, test, opts.Trees, opts.Seed+43)
		if err != nil {
			return nil, err
		}
		t.Add("group labeler V", fmt.Sprintf("V=%.0f%%", v*100), pct(m.Accuracy()))
	}
	return &Result{
		ID: "Ablations", Title: "Design-choice ablations (EMA, V sweep)", Table: t,
		Notes: []string{"paper deploys V=10% after inspecting 1-20%; extremes mislabel steady/sparse"},
	}, nil
}

func stageVolCfg(alpha float64) features.VolumetricConfig {
	return features.VolumetricConfig{I: time.Second, Alpha: alpha}
}

func titleGroupCfg(v float64) features.GroupConfig {
	return features.GroupConfig{MaxPayload: gamesim.MaxPayload, V: v, Neighbors: 3}
}
