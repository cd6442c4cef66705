package mlkit

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// blobs builds a well-separated Gaussian-blob dataset with k classes in dim
// dimensions, n samples per class.
func blobs(k, dim, n int, spread float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = float64(c*7+j%3*5) + 3
		}
		for i := 0; i < n; i++ {
			row := make([]float64, dim)
			for j := range row {
				row[j] = center[j] + rng.NormFloat64()*spread
			}
			d.Append(row, c)
		}
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{X: [][]float64{{1, 2}, {3, 4}}, Y: []int{0, 1}}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	bad := &Dataset{X: [][]float64{{1, 2}, {3}}, Y: []int{0, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("ragged rows accepted")
	}
	bad = &Dataset{X: [][]float64{{1}}, Y: []int{-1}}
	if err := bad.Validate(); err == nil {
		t.Error("negative label accepted")
	}
	bad = &Dataset{X: [][]float64{{1}}, Y: []int{0, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("row/label count mismatch accepted")
	}
	bad = &Dataset{X: [][]float64{{1}}, Y: []int{3}, ClassNames: []string{"a"}}
	if err := bad.Validate(); err == nil {
		t.Error("label beyond class names accepted")
	}
}

func TestStratifiedSplitKeepsProportions(t *testing.T) {
	d := blobs(3, 2, 100, 1, 1)
	train, test, err := StratifiedSplit(d, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumSamples()+test.NumSamples() != d.NumSamples() {
		t.Fatalf("split loses samples: %d + %d != %d", train.NumSamples(), test.NumSamples(), d.NumSamples())
	}
	for c, n := range test.ClassCounts() {
		if n != 20 {
			t.Errorf("class %d test count = %d, want 20", c, n)
		}
	}
	// Determinism under same seed.
	train2, _, _ := StratifiedSplit(d, 0.2, 42)
	if !reflect.DeepEqual(train.Y, train2.Y) {
		t.Error("split not deterministic under fixed seed")
	}
}

func TestStratifiedSplitErrors(t *testing.T) {
	if _, _, err := StratifiedSplit(&Dataset{}, 0.2, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	d := blobs(2, 2, 5, 1, 1)
	if _, _, err := StratifiedSplit(d, 0, 1); err == nil {
		t.Error("testFrac 0 accepted")
	}
	if _, _, err := StratifiedSplit(d, 1, 1); err == nil {
		t.Error("testFrac 1 accepted")
	}
}

func TestAugmentBalancesClasses(t *testing.T) {
	d := &Dataset{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		d.Append([]float64{rng.NormFloat64(), 10 + rng.NormFloat64()}, 0)
	}
	for i := 0; i < 5; i++ {
		d.Append([]float64{20 + rng.NormFloat64(), rng.NormFloat64()}, 1)
	}
	out := Augment(d, 50, 0.05, 9)
	counts := out.ClassCounts()
	if counts[0] != 50 || counts[1] != 50 {
		t.Fatalf("counts after augment = %v, want [50 50]", counts)
	}
	// Synthetic minority samples must stay near the minority cluster.
	for i := d.NumSamples(); i < out.NumSamples(); i++ {
		if out.Y[i] != 1 {
			t.Fatalf("synthetic sample %d has class %d", i, out.Y[i])
		}
		if out.X[i][0] < 15 {
			t.Errorf("synthetic sample %d drifted: %v", i, out.X[i])
		}
	}
}

func TestTreeSeparableData(t *testing.T) {
	d := blobs(3, 4, 60, 0.5, 11)
	tree, err := FitTree(d, TreeConfig{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(tree, d).Accuracy(); acc < 0.99 {
		t.Errorf("training accuracy = %v, want ~1 on separable blobs", acc)
	}
	if tree.Depth() > 10 {
		t.Errorf("depth %d exceeds MaxDepth", tree.Depth())
	}
}

func TestTreeDepthLimit(t *testing.T) {
	d := blobs(4, 3, 50, 2.5, 13)
	tree, err := FitTree(d, TreeConfig{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 2 {
		t.Errorf("depth = %d, want <= 2", tree.Depth())
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	d := blobs(2, 2, 30, 1.5, 17)
	tree, err := FitTree(d, TreeConfig{MinSamplesLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Every leaf distribution must be built from >= 10 samples: with 60
	// samples and min-leaf 10, at most 6 leaves exist.
	leaves := 0
	for _, n := range tree.nodes {
		if n.Feature < 0 {
			leaves++
		}
	}
	if leaves > 6 {
		t.Errorf("%d leaves with MinSamplesLeaf=10 on 60 samples", leaves)
	}
}

func TestTreeSingleClass(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 10; i++ {
		d.Append([]float64{float64(i)}, 0)
	}
	tree, err := FitTree(d, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 {
		t.Errorf("single-class tree has %d nodes, want 1 leaf", tree.NumNodes())
	}
	if got := tree.Predict([]float64{99}); got != 0 {
		t.Errorf("Predict = %d", got)
	}
}

func TestTreeEmptyDataset(t *testing.T) {
	if _, err := FitTree(&Dataset{}, TreeConfig{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestForestBeatsNoise(t *testing.T) {
	d := blobs(5, 8, 40, 3.0, 19)
	train, test, err := StratifiedSplit(d, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FitForest(train, ForestConfig{NumTrees: 40, MaxDepth: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(f, test).Accuracy(); acc < 0.85 {
		t.Errorf("forest test accuracy = %v, want >= 0.85", acc)
	}
}

func TestForestDeterministic(t *testing.T) {
	d := blobs(3, 5, 30, 1.5, 23)
	f1, err := FitForest(d, ForestConfig{NumTrees: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FitForest(d, ForestConfig{NumTrees: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumSamples(); i++ {
		p1 := f1.PredictProba(d.X[i])
		p2 := f2.PredictProba(d.X[i])
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("sample %d: probas differ across identical seeds", i)
		}
	}
}

func TestForestProbaSumsToOne(t *testing.T) {
	d := blobs(4, 3, 25, 2, 29)
	f, err := FitForest(d, ForestConfig{NumTrees: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range d.X[:20] {
		p := f.PredictProba(x)
		var s float64
		for _, v := range p {
			if v < 0 {
				t.Fatal("negative probability")
			}
			s += v
		}
		if s < 0.999 || s > 1.001 {
			t.Fatalf("probabilities sum to %v", s)
		}
	}
}

func TestKNNBasic(t *testing.T) {
	d := blobs(3, 4, 40, 0.8, 31)
	train, test, _ := StratifiedSplit(d, 0.25, 4)
	for _, cfg := range []KNNConfig{
		{K: 5},
		{K: 5, Metric: Manhattan},
		{K: 5, Metric: Chebyshev},
		{K: 7, Weighted: true},
	} {
		k, err := FitKNN(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if acc := Evaluate(k, test).Accuracy(); acc < 0.9 {
			t.Errorf("KNN %+v accuracy = %v, want >= 0.9", cfg, acc)
		}
	}
}

func TestKNNKClamped(t *testing.T) {
	d := blobs(2, 2, 3, 0.5, 37)
	k, err := FitKNN(d, KNNConfig{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Predict(d.X[0]); got < 0 || got > 1 {
		t.Errorf("Predict = %d", got)
	}
}

func TestSVMLinearSeparable(t *testing.T) {
	d := blobs(3, 6, 50, 0.7, 41)
	scaler := FitScaler(d)
	sd := scaler.TransformDataset(d)
	train, test, _ := StratifiedSplit(sd, 0.25, 6)
	s, err := FitSVM(train, SVMConfig{C: 10, Epochs: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(s, test).Accuracy(); acc < 0.95 {
		t.Errorf("linear SVM accuracy = %v, want >= 0.95", acc)
	}
}

func TestSVMRBFNonlinear(t *testing.T) {
	// XOR-style data that a linear model cannot separate.
	rng := rand.New(rand.NewSource(43))
	d := &Dataset{}
	for i := 0; i < 200; i++ {
		x := rng.Float64()*2 - 1
		y := rng.Float64()*2 - 1
		label := 0
		if x*y > 0 {
			label = 1
		}
		d.Append([]float64{x, y}, label)
	}
	train, test, _ := StratifiedSplit(d, 0.25, 8)
	lin, err := FitSVM(train, SVMConfig{C: 1, Epochs: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rbf, err := FitSVM(train, SVMConfig{C: 10, Kernel: RBFKernel, Gamma: 2, Epochs: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	linAcc := Evaluate(lin, test).Accuracy()
	rbfAcc := Evaluate(rbf, test).Accuracy()
	if rbfAcc < 0.8 {
		t.Errorf("RBF SVM accuracy = %v on XOR, want >= 0.8", rbfAcc)
	}
	if rbfAcc <= linAcc {
		t.Errorf("RBF (%v) should beat linear (%v) on XOR", rbfAcc, linAcc)
	}
}

func TestScalerStandardizes(t *testing.T) {
	d := blobs(2, 3, 100, 4, 47)
	s := FitScaler(d)
	sd := s.TransformDataset(d)
	check := FitScaler(sd)
	for j := range check.Mean {
		if abs(check.Mean[j]) > 1e-9 {
			t.Errorf("feature %d mean after scaling = %v", j, check.Mean[j])
		}
		if abs(check.Std[j]-1) > 1e-9 {
			t.Errorf("feature %d std after scaling = %v", j, check.Std[j])
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	d := &Dataset{X: [][]float64{{5, 1}, {5, 2}, {5, 3}}, Y: []int{0, 0, 1}}
	s := FitScaler(d)
	out := s.Transform([]float64{5, 2})
	if out[0] != 0 {
		t.Errorf("constant feature transforms to %v, want 0", out[0])
	}
}

// Property: scaling is invertible (x ≈ mean + std·transform(x)).
func TestScalerRoundTripProperty(t *testing.T) {
	d := blobs(2, 4, 50, 3, 53)
	s := FitScaler(d)
	f := func(i uint) bool {
		row := d.X[int(i%uint(d.NumSamples()))]
		tr := s.Transform(row)
		for j := range row {
			back := s.Mean[j] + s.Std[j]*tr[j]
			if abs(back-row[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConfusionMatrixMetrics(t *testing.T) {
	yTrue := []int{0, 0, 0, 1, 1, 2}
	yPred := []int{0, 0, 1, 1, 1, 0}
	m := NewConfusionMatrix(yTrue, yPred, 3, []string{"a", "b", "c"})
	if got := m.Accuracy(); abs(got-4.0/6) > 1e-12 {
		t.Errorf("accuracy = %v", got)
	}
	if got := m.Recall(0); abs(got-2.0/3) > 1e-12 {
		t.Errorf("recall(0) = %v", got)
	}
	if got := m.Precision(0); abs(got-2.0/3) > 1e-12 {
		t.Errorf("precision(0) = %v", got)
	}
	if got := m.Recall(1); got != 1 {
		t.Errorf("recall(1) = %v", got)
	}
	if got := m.Recall(2); got != 0 {
		t.Errorf("recall(2) = %v", got)
	}
	if m.F1(2) != 0 {
		t.Errorf("F1(2) = %v", m.F1(2))
	}
	if m.MacroF1() <= 0 || m.MacroF1() >= 1 {
		t.Errorf("macro F1 = %v", m.MacroF1())
	}
	if s := m.String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	if Accuracy(nil, nil) != 0 {
		t.Error("nil slices")
	}
	if Accuracy([]int{1}, []int{1, 2}) != 0 {
		t.Error("length mismatch")
	}
	if Accuracy([]int{1, 2}, []int{1, 2}) != 1 {
		t.Error("perfect prediction")
	}
}

func TestPermutationImportanceFindsSignal(t *testing.T) {
	// Feature 0 fully determines the class; features 1 and 2 are noise.
	rng := rand.New(rand.NewSource(59))
	d := &Dataset{}
	for i := 0; i < 300; i++ {
		c := i % 2
		d.Append([]float64{float64(c*10) + rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}, c)
	}
	f, err := FitForest(d, ForestConfig{NumTrees: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	imp := PermutationImportance(f, d, 5, 3)
	if imp[0] < 0.3 {
		t.Errorf("signal feature importance = %v, want >= 0.3", imp[0])
	}
	if abs(imp[1]) > 0.05 || abs(imp[2]) > 0.05 {
		t.Errorf("noise features have importance %v, %v", imp[1], imp[2])
	}
}

func TestForestSaveLoadRoundTrip(t *testing.T) {
	d := blobs(3, 4, 30, 1.2, 61)
	f, err := FitForest(d, ForestConfig{NumTrees: 8, MaxDepth: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveForest(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := LoadForest(&buf, d.NumFeatures())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range d.X {
		if !reflect.DeepEqual(f.PredictProba(x), g.PredictProba(x)) {
			t.Fatal("loaded forest predicts differently")
		}
	}
}

func TestLoadForestRejectsGarbage(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"format":"wrong","num_classes":2,"trees":[{"nodes":[{"f":-1,"d":[1,0]}]}]}`,
		`{"format":"gamelens-forest-v1","num_classes":0,"trees":[]}`,
		`{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":0,"t":1,"l":5,"r":6}]}]}`,
	}
	for i, s := range cases {
		if _, err := LoadForest(bytes.NewReader([]byte(s)), 4); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestEvaluateUsesAllRows(t *testing.T) {
	d := blobs(2, 2, 10, 0.5, 67)
	tree, _ := FitTree(d, TreeConfig{})
	m := Evaluate(tree, d)
	var total int
	for _, row := range m.Counts {
		for _, c := range row {
			total += c
		}
	}
	if total != d.NumSamples() {
		t.Errorf("matrix covers %d samples, want %d", total, d.NumSamples())
	}
}

func BenchmarkFitForest(b *testing.B) {
	d := blobs(5, 20, 100, 2, 71)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitForest(d, ForestConfig{NumTrees: 20, MaxDepth: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	d := blobs(5, 20, 100, 2, 73)
	f, err := FitForest(d, ForestConfig{NumTrees: 100, MaxDepth: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(d.X[i%d.NumSamples()])
	}
}

func TestSubsampleStratified(t *testing.T) {
	d := blobs(3, 2, 200, 1, 83)
	s := Subsample(d, 60, 1)
	if s.NumSamples() < 55 || s.NumSamples() > 66 {
		t.Fatalf("subsample size %d, want ~60", s.NumSamples())
	}
	for c, n := range s.ClassCounts() {
		if n < 15 || n > 25 {
			t.Errorf("class %d count %d after stratified subsample", c, n)
		}
	}
	if got := Subsample(d, 10000, 1); got != d {
		t.Error("oversized request must return the dataset itself")
	}
}
