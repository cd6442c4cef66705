// Package fleet simulates the paper's §5 field deployment: a population of
// cloud-game streaming sessions drawn from the Table 1 popularity mix (plus
// the long-tail of titles outside the catalog), played over a spread of
// access-network conditions, and validated against the "server log" ground
// truth that is only available offline. It owns four things: the population
// sampler, one runner (RunStream), one grouped fold of the records (by
// classified title or inferred pattern — Fig 11, 12, 13 — plus the §5
// validation tally) and the bridge into the per-subscriber rollup. The
// measurement itself is not here: each session's slots go through
// core.Accounting, the per-slot step the packet tap runs.
package fleet

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gamelens/internal/core"
	"gamelens/internal/gamesim"
	"gamelens/internal/qoe"
	"gamelens/internal/stageclass"
	"gamelens/internal/titleclass"
	"gamelens/internal/trace"
)

// DefaultLongTailFrac and DefaultImpairedFrac are the paper's §5
// population mix: Table 1's catalog covers ~69% of playtime (so 31% is
// long-tail), and ~12% of sessions ride degraded access paths. A negative
// Config fraction selects these defaults.
const (
	DefaultLongTailFrac = 0.31
	DefaultImpairedFrac = 0.12
)

// Config sizes and seeds a deployment run.
type Config struct {
	// Sessions is the number of streaming sessions to simulate.
	Sessions int
	// LongTailFrac is the fraction of sessions playing titles outside the
	// top-13 catalog. Zero means a pure-catalog population; negative
	// selects DefaultLongTailFrac, the Table 1 mix.
	LongTailFrac float64
	// ImpairedFrac is the fraction of sessions on degraded access paths
	// (high RTT, loss, or bandwidth caps). Zero means every path is
	// healthy; negative selects DefaultImpairedFrac.
	ImpairedFrac float64
	// SessionLength fixes session lengths for speed; 0 draws per-title
	// realistic lengths (Fig 11 durations).
	SessionLength time.Duration
	// Seed drives the population sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 500
	}
	if c.LongTailFrac < 0 {
		c.LongTailFrac = DefaultLongTailFrac
	} else if c.LongTailFrac > 1 {
		c.LongTailFrac = 1
	}
	if c.ImpairedFrac < 0 {
		c.ImpairedFrac = DefaultImpairedFrac
	} else if c.ImpairedFrac > 1 {
		c.ImpairedFrac = 1
	}
	return c
}

// SessionRecord is the per-session outcome of the deployment: what the
// pipeline measured online, and the offline ground truth used for
// validation and aggregation.
type SessionRecord struct {
	// Index is the session's position in the sampled population — the
	// deterministic identity the rollup bridge derives subscriber addresses
	// and packet-time stamps from.
	Index int

	// Ground truth ("server log", available only offline in the paper).
	Title     gamesim.Title
	InCatalog bool
	Pattern   gamesim.Pattern
	Config    gamesim.ClientConfig
	Net       gamesim.NetworkConditions

	// Online measurements.
	TitleResult   titleclass.Result
	PatternResult stageclass.PatternResult
	PatternKnown  bool

	// Stage minutes as classified online (launch excluded), indexed by
	// trace.Stage.
	StageMinutes [trace.NumStages]float64
	// TrueStageMinutes from the ground-truth timeline.
	TrueStageMinutes [trace.NumStages]float64

	// MeanDownMbps is the session-average downstream throughput (Fig 12).
	MeanDownMbps float64
	// Objective and Effective are the session QoE grades before and after
	// context calibration (Fig 13). Effective uses the *classified*
	// contexts, as deployed.
	Objective qoe.Level
	Effective qoe.Level
	// EffectiveScore is the continuous effective-QoE proxy in [0, 1] (mean
	// graded-slot level) the rollup sketches for percentile views.
	EffectiveScore float64
	// DurationMinutes is the session length.
	DurationMinutes float64
}

// Deployment runs sessions through the trained models (each is generated,
// measured, reduced to a SessionRecord, and discarded).
type Deployment struct {
	cfg    Config
	titles *titleclass.Classifier
	stages *stageclass.Classifier
}

// New builds a deployment around trained classifiers.
func New(cfg Config, titles *titleclass.Classifier, stages *stageclass.Classifier) *Deployment {
	return &Deployment{cfg: cfg.withDefaults(), titles: titles, stages: stages}
}

// sampleNetwork draws access-path conditions: mostly healthy fixed-line or
// 5G paths, with an impaired tail.
func sampleNetwork(rng *rand.Rand, impairedFrac float64) gamesim.NetworkConditions {
	if rng.Float64() >= impairedFrac {
		return gamesim.NetworkConditions{
			RTT:      time.Duration(4+rng.Intn(18)) * time.Millisecond,
			Jitter:   time.Duration(200+rng.Intn(900)) * time.Microsecond,
			LossRate: rng.Float64() * 0.002,
		}
	}
	// Impaired: one of laggy / lossy / starved (or a combination).
	n := gamesim.NetworkConditions{
		RTT:      time.Duration(10+rng.Intn(20)) * time.Millisecond,
		Jitter:   time.Duration(1+rng.Intn(4)) * time.Millisecond,
		LossRate: rng.Float64() * 0.004,
	}
	switch rng.Intn(3) {
	case 0:
		n.RTT = time.Duration(110+rng.Intn(150)) * time.Millisecond
	case 1:
		n.LossRate = 0.02 + rng.Float64()*0.05
	default:
		n.BandwidthMbps = 3 + rng.Float64()*6
	}
	return n
}

// sessionDraw is one pre-sampled population member: everything needed to
// generate and measure session i, drawn from the deployment rng up front so
// the population does not depend on the worker count.
type sessionDraw struct {
	i     int
	title gamesim.Title
	cfg   gamesim.ClientConfig
	net   gamesim.NetworkConditions
}

// samplePopulation draws the whole deployment population sequentially from
// the seeded rng stream.
func (d *Deployment) samplePopulation() []sessionDraw {
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	draws := make([]sessionDraw, d.cfg.Sessions)
	for i := range draws {
		var title gamesim.Title
		if rng.Float64() < d.cfg.LongTailFrac {
			title = gamesim.GenericTitle(int64(rng.Intn(4000)))
		} else {
			title = gamesim.TitleByID(gamesim.RandomTitle(rng))
		}
		draws[i] = sessionDraw{
			i:     i,
			title: title,
			cfg:   gamesim.RandomConfig(rng),
			net:   sampleNetwork(rng, d.cfg.ImpairedFrac),
		}
	}
	return draws
}

// RunStream simulates the deployment on workers goroutines (default all
// cores) and returns one record per session, in population order whatever
// the worker count: sessions are independent (like flows), the population is
// sampled up front from the one seeded rng stream, the classifiers are
// shared read-only and every per-session structure is worker local. A
// non-nil emit is handed each record as soon as its session is measured, in
// completion order — the deployment analogue of the packet engine's report
// sink — with calls serialized (no two run concurrently).
func (d *Deployment) RunStream(workers int, emit func(*SessionRecord)) []*SessionRecord {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	draws := d.samplePopulation()
	out := make([]*SessionRecord, len(draws))
	jobs := make(chan sessionDraw, workers)
	var emitMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dr := range jobs {
				rec := d.measure(gamesim.GenerateTitle(dr.title, dr.cfg, dr.net,
					d.cfg.Seed+int64(dr.i)*6007+11, gamesim.Options{SessionLength: d.cfg.SessionLength}))
				rec.Index = dr.i
				out[dr.i] = rec
				if emit != nil {
					emitMu.Lock()
					emit(rec)
					emitMu.Unlock()
				}
			}
		}()
	}
	for _, dr := range draws {
		jobs <- dr
	}
	close(jobs)
	wg.Wait()
	return out
}

// measure runs the online method over one session: classify the launch
// window, then push every tracker-wide slot, with the simulator's QoS
// series and the session's true streaming settings (settings detection is
// prior work [32]; the deployment consumes it as a given), through the
// per-slot accounting the packet pipeline runs.
func (d *Deployment) measure(s *gamesim.Session) *SessionRecord {
	rec := &SessionRecord{
		Title:           s.Title,
		InCatalog:       s.Title.IsCatalog(),
		Pattern:         s.Title.Pattern,
		Config:          s.Config,
		Net:             s.Net,
		TitleResult:     d.titles.Classify(s.Launch),
		MeanDownMbps:    s.MeanDownMbps(),
		DurationMinutes: s.Duration().Minutes(),
	}
	i := d.stages.Config().Volumetric.I
	acct := core.NewAccounting(d.stages, s.LaunchEnd())
	qos := qoe.EstimateSessionQoS(s, i)
	for k, slot := range trace.Rebin(s.Slots, i) {
		acct.Push(slot, qos[k], s.PeakDownMbps, float64(s.Config.FPS), rec.TitleResult)
	}
	rec.StageMinutes = acct.StageMinutes
	rec.PatternResult, rec.PatternKnown = acct.Pattern()
	rec.Objective, rec.Effective, rec.EffectiveScore = acct.Grades()
	for _, sp := range s.Spans {
		rec.TrueStageMinutes[sp.Stage] += sp.Duration().Minutes()
	}
	return rec
}
