package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyOptions keeps experiment tests fast: small corpus, small forests.
func tinyOptions() Options {
	return Options{
		TrainPerTitle:  3,
		TestPerTitle:   1,
		SessionMinutes: 10,
		FleetSessions:  40,
		Trees:          25,
		Seed:           5,
	}
}

var (
	tinyCorpus *Corpus
)

func corpus(t testing.TB) *Corpus {
	t.Helper()
	if tinyCorpus == nil {
		tinyCorpus = NewCorpus(tinyOptions())
	}
	return tinyCorpus
}

func TestTable1(t *testing.T) {
	r := Table1(tinyOptions())
	if len(r.Table.Rows) != 13 {
		t.Fatalf("%d rows", len(r.Table.Rows))
	}
	if !strings.Contains(r.String(), "Fortnite") {
		t.Error("missing Fortnite row")
	}
}

func TestTable2(t *testing.T) {
	r := Table2(tinyOptions())
	if len(r.Table.Rows) != 8 {
		t.Fatalf("%d rows, want 8 profile rows", len(r.Table.Rows))
	}
}

func TestFigure3(t *testing.T) {
	r := Figure3(tinyOptions())
	if len(r.Table.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Table.Rows))
	}
	// Every representative session must show all three packet groups.
	for _, row := range r.Table.Rows {
		for col := 1; col <= 3; col++ {
			if row[col] == "0" {
				t.Errorf("session %s has empty group in column %d", row[0], col)
			}
		}
	}
}

func TestFigure4(t *testing.T) {
	r := Figure4(tinyOptions())
	if len(r.Table.Rows) < 12 {
		t.Fatalf("%d rows", len(r.Table.Rows))
	}
}

func TestFigure5(t *testing.T) {
	r := Figure5(tinyOptions())
	if len(r.Table.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Table.Rows))
	}
	out := r.String()
	if !strings.Contains(out, "spectate-and-play") || !strings.Contains(out, "continuous-play") {
		t.Error("pattern rows missing")
	}
}

func TestFigure8Small(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests per sweep point")
	}
	c := corpus(t)
	// Shrink the sweep by reusing the standard function; it covers 24
	// points — acceptable at tiny sizes.
	r, err := Figure8(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 24 {
		t.Fatalf("%d sweep rows", len(r.Table.Rows))
	}
}

func TestTable3AndFigure9(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests")
	}
	c := corpus(t)
	r, err := Table3(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 13 {
		t.Fatalf("%d rows", len(r.Table.Rows))
	}
	r9, err := Figure9(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r9.Table.Rows) != 51 {
		t.Fatalf("%d importance rows", len(r9.Table.Rows))
	}
}

func TestFigure10Table4(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests per sweep point")
	}
	c := corpus(t)
	r, err := Figure10(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 20 {
		t.Fatalf("%d sweep rows", len(r.Table.Rows))
	}
	r4, err := Table4(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r4.Table.Rows) != 6 {
		t.Fatalf("%d rows", len(r4.Table.Rows))
	}
}

// TestFieldExperiments holds the §5 tables to the bytes the commit before
// fleet moved onto core.Accounting rendered at tinyOptions()
// (testdata/parent-*.txt): the field figures come from the per-slot step the
// tap runs, and they did not move.
func TestFieldExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a fleet")
	}
	c := corpus(t)
	fr, err := NewFieldRun(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Records) != c.Opts.FleetSessions {
		t.Fatalf("%d records", len(fr.Records))
	}
	for name, r := range map[string]*Result{
		"figure11": Figure11(fr), "figure12": Figure12(fr), "figure13": Figure13(fr),
		"field-validation": FieldValidation(fr),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "parent-"+name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := r.String(); got != string(want) {
			t.Errorf("%s differs from the parent commit's table:\n got:\n%s\nwant:\n%s", r.ID, got, want)
		}
	}
}

func TestTable5Figure15(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests")
	}
	c := corpus(t)
	r5, err := Table5(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r5.Table.Rows) != 9 {
		t.Fatalf("%d transition rows", len(r5.Table.Rows))
	}
	r15, err := Figure15(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r15.Table.Rows) == 0 {
		t.Fatal("empty tuning table")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests")
	}
	r, err := Ablations(corpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 7 {
		t.Fatalf("%d ablation rows", len(r.Table.Rows))
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"a", "long-header"}}
	tab.Add("x", 1.23456)
	tab.Add("yy", "z")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.Contains(lines[1], "1.235") {
		t.Errorf("float not formatted: %q", lines[1])
	}
}

func TestFigure14(t *testing.T) {
	if testing.Short() {
		t.Skip("trains many models")
	}
	r, err := Figure14(corpus(t))
	if err != nil {
		t.Fatal(err)
	}
	// 9 RF + 6 SVM + 6 KNN rows.
	if len(r.Table.Rows) != 21 {
		t.Fatalf("%d tuning rows", len(r.Table.Rows))
	}
}
