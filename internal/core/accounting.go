package core

import (
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/qoe"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// Accounting is the paper's per-slot step (Fig 6, after the packet filter)
// and the one place it lives: push the slot through the stage tracker (which
// latches the activity pattern), credit stage minutes, pick the demand
// context, grade objective and context-calibrated effective QoE. The
// pipeline embeds one per flow; internal/fleet drives one per simulated
// session, so the §5 field figures come from the code the tap runs.
type Accounting struct {
	// CurrentStage is the latest per-slot stage classification.
	CurrentStage stageclass.StageResult
	// StageMinutes accumulates classified gameplay stage time (launch
	// excluded), indexed by trace.Stage.
	StageMinutes [trace.NumStages]float64

	// objCounts and effCounts hold the per-slot QoE levels as histograms:
	// the session grade is the majority level, so the counts carry all
	// Grades derives and a session of any length costs O(1) memory.
	objCounts [qoe.NumLevels]int64
	effCounts [qoe.NumLevels]int64

	tracker *stageclass.Tracker
	slotMin float64 // tracker slot width in minutes, the per-slot stage credit
}

// NewAccounting starts one session's accounting; launchFor is how long from
// session start the stream is still in its launch stage.
func NewAccounting(stages *stageclass.Classifier, launchFor time.Duration) Accounting {
	return Accounting{
		tracker: stages.NewTracker(launchFor),
		slotMin: stages.Config().Volumetric.I.Minutes(),
	}
}

// Push accounts one tracker-wide slot given its measured QoS, the session's
// streaming settings (0 when unknown) and the title classification so far
// (the zero Result while undecided). The demand context is the classified
// title's when known, else the inferred pattern's once latched, else the
// generic 1.0 — what an operator can know at that moment.
func (a *Accounting) Push(slot trace.Slot, q qoe.SlotQoS, settingsMbps, settingsFPS float64, title titleclass.Result) {
	sr := a.tracker.Push(slot)
	a.CurrentStage = sr
	if sr.Stage != trace.StageLaunch {
		a.StageMinutes[sr.Stage] += a.slotMin
	}
	demand := 1.0
	if title.Known {
		demand = gamesim.TitleByID(title.Title).Demand
	} else if pr, ok := a.tracker.Pattern(); ok {
		demand = qoe.PatternDemand(pr.Pattern)
	}
	a.objCounts[qoe.Objective(q)]++
	a.effCounts[qoe.Effective(q, qoe.Context{
		Demand: demand, Stage: sr.Stage,
		SettingsMbps: settingsMbps, SettingsFPS: settingsFPS,
	})]++
}

// Grades returns the session's objective and effective grades (the majority
// slot level, §5.3) and the continuous effective score the rollup sketches.
func (a *Accounting) Grades() (objective, effective qoe.Level, score float64) {
	return qoe.SessionLevelFromCounts(a.objCounts),
		qoe.SessionLevelFromCounts(a.effCounts),
		qoe.SessionScoreFromCounts(a.effCounts)
}

// Pattern is the gameplay activity pattern the session reports: the
// tracker's latched inference (known), else its best guess below the
// confidence gate — and with no stage transition to judge, no guess.
func (a *Accounting) Pattern() (pr stageclass.PatternResult, known bool) {
	if a.tracker == nil {
		return pr, false
	}
	if pr, known = a.tracker.Pattern(); !known && a.tracker.Transitions().Total() > 0 {
		pr = a.tracker.ForcePattern()
	}
	return pr, known
}
