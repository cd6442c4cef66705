package experiments

// Experiment is one table or figure of the reproduction.
type Experiment struct {
	// ID is the ID of the Result that Run renders, e.g. "Table 3".
	ID string
	// Run renders the experiment, building what it needs of in first.
	Run func(in *Inputs) (*Result, error)
}

// Inputs is what the experiments of one run share: the options, and the
// corpus and the field run built from them — once each, on first need, so
// a run filtered down to the lab tables generates nothing.
type Inputs struct {
	Opts Options
	// Logf, when set, announces the slow builds.
	Logf func(format string, args ...any)

	corpus *Corpus
	field  *FieldRun
}

func (in *Inputs) logf(format string, args ...any) {
	if in.Logf != nil {
		in.Logf(format, args...)
	}
}

// Corpus returns the run's train/test corpus.
func (in *Inputs) Corpus() *Corpus {
	if in.corpus == nil {
		in.logf("generating corpus...")
		in.corpus = NewCorpus(in.Opts)
		in.logf("corpus ready: %d train / %d test sessions", len(in.corpus.Train), len(in.corpus.Test))
	}
	return in.corpus
}

// FieldRun returns the run's simulated field deployment.
func (in *Inputs) FieldRun() (*FieldRun, error) {
	if in.field == nil {
		c := in.Corpus()
		in.logf("simulating field deployment (%d sessions)...", c.Opts.FleetSessions)
		fr, err := NewFieldRun(c)
		if err != nil {
			return nil, err
		}
		in.field = fr
	}
	return in.field, nil
}

// All lists the reproduction — every table and figure of the paper's
// evaluation, in the order cmd/experiments prints them. It is the one list:
// the command ranges over it and the golden test pins every entry.
func All() []Experiment {
	lab := func(f func(Options) *Result) func(*Inputs) (*Result, error) {
		return func(in *Inputs) (*Result, error) { return f(in.Opts), nil }
	}
	onCorpus := func(f func(*Corpus) (*Result, error)) func(*Inputs) (*Result, error) {
		return func(in *Inputs) (*Result, error) { return f(in.Corpus()) }
	}
	onField := func(f func(*FieldRun) *Result) func(*Inputs) (*Result, error) {
		return func(in *Inputs) (*Result, error) {
			fr, err := in.FieldRun()
			if err != nil {
				return nil, err
			}
			return f(fr), nil
		}
	}
	return []Experiment{
		{"Table 1", lab(Table1)},
		{"Table 2", lab(Table2)},
		{"Figure 3", lab(Figure3)},
		{"Figure 4", lab(Figure4)},
		{"Figure 5", lab(Figure5)},
		{"Figure 8", onCorpus(Figure8)},
		{"Table 3", onCorpus(Table3)},
		{"Figure 9", onCorpus(Figure9)},
		{"Figure 10", onCorpus(Figure10)},
		{"Table 4", onCorpus(Table4)},
		{"Figure 14", onCorpus(Figure14)},
		{"Figure 15", onCorpus(Figure15)},
		{"Table 5", onCorpus(Table5)},
		{"Ablations", onCorpus(Ablations)},
		{"Figure 11", onField(Figure11)},
		{"Figure 12", onField(Figure12)},
		{"Figure 13", onField(Figure13)},
		{"Field validation", onField(FieldValidation)},
	}
}
