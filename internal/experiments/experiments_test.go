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

// tinyInputs and rendered are shared by every test, so per test binary the
// corpus is generated, the fleet simulated and each entry of All rendered
// once.
var (
	tinyInputs = &Inputs{Opts: tinyOptions()}
	rendered   = map[string]*Result{}
)

// result renders the entry of All called id at tinyOptions().
func result(t *testing.T, id string) *Result {
	t.Helper()
	if r := rendered[id]; r != nil {
		return r
	}
	for _, e := range All() {
		if e.ID == id {
			r, err := e.Run(tinyInputs)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			rendered[id] = r
			return r
		}
	}
	t.Fatalf("All has no entry %q", id)
	return nil
}

// TestGoldens pins the whole reproduction: every entry of All, rendered at
// tinyOptions(), must equal testdata/<id>.txt byte for byte. The files were
// rendered by the code of the commit before All existed (figure-11/12/13
// and field-validation by the commit before fleet moved onto
// core.Accounting, and they have not moved since), so a change to features,
// mlkit, gamesim, stageclass, qoe or fleet that shifts any table or figure
// fails here rather than in a hand-run cmp of cmd/experiments' stdout.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests and simulates a fleet")
	}
	for _, e := range All() {
		r := result(t, e.ID)
		if r.ID != e.ID {
			t.Errorf("All lists %q, its result calls itself %q", e.ID, r.ID)
		}
		name := strings.ReplaceAll(strings.ToLower(e.ID), " ", "-") + ".txt"
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := r.String(); got != string(want) {
			t.Errorf("%s differs from testdata/%s:\n got:\n%s\nwant:\n%s", e.ID, name, got, want)
		}
	}
}

func TestTable1(t *testing.T) {
	r := result(t, "Table 1")
	if len(r.Table.Rows) != 13 {
		t.Fatalf("%d rows", len(r.Table.Rows))
	}
	if !strings.Contains(r.String(), "Fortnite") {
		t.Error("missing Fortnite row")
	}
}

func TestTable2(t *testing.T) {
	r := result(t, "Table 2")
	if len(r.Table.Rows) != 8 {
		t.Fatalf("%d rows, want 8 profile rows", len(r.Table.Rows))
	}
}

func TestFigure3(t *testing.T) {
	r := result(t, "Figure 3")
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
	r := result(t, "Figure 4")
	if len(r.Table.Rows) < 12 {
		t.Fatalf("%d rows", len(r.Table.Rows))
	}
}

func TestFigure5(t *testing.T) {
	r := result(t, "Figure 5")
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
	// The standard sweep covers 24 points — acceptable at tiny sizes.
	r := result(t, "Figure 8")
	if len(r.Table.Rows) != 24 {
		t.Fatalf("%d sweep rows", len(r.Table.Rows))
	}
}

func TestTable3AndFigure9(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests")
	}
	r := result(t, "Table 3")
	if len(r.Table.Rows) != 13 {
		t.Fatalf("%d rows", len(r.Table.Rows))
	}
	r9 := result(t, "Figure 9")
	if len(r9.Table.Rows) != 51 {
		t.Fatalf("%d importance rows", len(r9.Table.Rows))
	}
}

func TestFigure10Table4(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests per sweep point")
	}
	r := result(t, "Figure 10")
	if len(r.Table.Rows) != 20 {
		t.Fatalf("%d sweep rows", len(r.Table.Rows))
	}
	r4 := result(t, "Table 4")
	if len(r4.Table.Rows) != 6 {
		t.Fatalf("%d rows", len(r4.Table.Rows))
	}
}

// TestFieldExperiments: the field run simulates the fleet the options ask
// for (its tables are pinned by TestGoldens).
func TestFieldExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a fleet")
	}
	fr, err := tinyInputs.FieldRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Records) != fr.Opts.FleetSessions {
		t.Fatalf("%d records", len(fr.Records))
	}
}

func TestTable5Figure15(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests")
	}
	r5 := result(t, "Table 5")
	if len(r5.Table.Rows) != 9 {
		t.Fatalf("%d transition rows", len(r5.Table.Rows))
	}
	r15 := result(t, "Figure 15")
	if len(r15.Table.Rows) == 0 {
		t.Fatal("empty tuning table")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("trains forests")
	}
	r := result(t, "Ablations")
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
	r := result(t, "Figure 14")
	// 9 RF + 6 SVM + 6 KNN rows.
	if len(r.Table.Rows) != 21 {
		t.Fatalf("%d tuning rows", len(r.Table.Rows))
	}
}
