// Package mlkit is a small, deterministic machine-learning toolkit built for
// the traffic-classification models of the paper: CART decision trees,
// random forests, support vector machines (linear and RBF), and k-nearest
// neighbours, together with the supporting pieces — feature scaling,
// stratified splits, variation-based data augmentation (§4.4) and
// permutation importance (Fig 9 / Table 5).
//
// Everything is seeded explicitly; given the same seed, training and
// evaluation are bit-for-bit reproducible.
package mlkit

import (
	"errors"
	"fmt"
	"math/rand"
)

// Dataset is a dense supervised-learning dataset: one row of X per sample,
// one integer class label in Y per row. FeatureNames and ClassNames are
// optional but, when set, must match the respective dimensions.
type Dataset struct {
	X            [][]float64
	Y            []int
	FeatureNames []string
	ClassNames   []string
}

// NumSamples returns the number of rows.
func (d *Dataset) NumSamples() int { return len(d.X) }

// NumFeatures returns the number of columns, or 0 for an empty dataset.
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// NumClasses returns one more than the largest label in Y (labels are
// assumed to be 0-based and dense), or len(ClassNames) when that is larger.
func (d *Dataset) NumClasses() int {
	n := len(d.ClassNames)
	for _, y := range d.Y {
		if y+1 > n {
			n = y + 1
		}
	}
	return n
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("mlkit: %d rows but %d labels", len(d.X), len(d.Y))
	}
	nf := d.NumFeatures()
	for i, row := range d.X {
		if len(row) != nf {
			return fmt.Errorf("mlkit: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != nf {
		return fmt.Errorf("mlkit: %d feature names for %d features", len(d.FeatureNames), nf)
	}
	for i, y := range d.Y {
		if y < 0 {
			return fmt.Errorf("mlkit: negative label %d at row %d", y, i)
		}
		if d.ClassNames != nil && y >= len(d.ClassNames) {
			return fmt.Errorf("mlkit: label %d at row %d exceeds %d class names", y, i, len(d.ClassNames))
		}
	}
	return nil
}

// Append adds one labeled sample.
func (d *Dataset) Append(x []float64, y int) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Subset returns a view of the dataset containing the given row indices.
// Rows are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{
		X:            make([][]float64, len(idx)),
		Y:            make([]int, len(idx)),
		FeatureNames: d.FeatureNames,
		ClassNames:   d.ClassNames,
	}
	for i, j := range idx {
		s.X[i] = d.X[j]
		s.Y[i] = d.Y[j]
	}
	return s
}

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// ErrEmptyDataset is returned when a split or a model is asked to work on a
// dataset with no rows.
var ErrEmptyDataset = errors.New("mlkit: empty dataset")

// StratifiedSplit partitions the dataset into train and test sets, keeping
// the per-class proportions, with testFrac of each class (rounded, at least
// one sample when a class has at least two) going to the test set.
func StratifiedSplit(d *Dataset, testFrac float64, seed int64) (train, test *Dataset, err error) {
	if d.NumSamples() == 0 {
		return nil, nil, ErrEmptyDataset
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("mlkit: testFrac %v out of (0,1)", testFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := make(map[int][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	var trainIdx, testIdx []int
	// Iterate classes in deterministic order.
	for c := 0; c < d.NumClasses(); c++ {
		idx := byClass[c]
		if len(idx) == 0 {
			continue
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nTest := int(float64(len(idx))*testFrac + 0.5)
		if nTest == 0 && len(idx) >= 2 {
			nTest = 1
		}
		if nTest >= len(idx) {
			nTest = len(idx) - 1
		}
		testIdx = append(testIdx, idx[:nTest]...)
		trainIdx = append(trainIdx, idx[nTest:]...)
	}
	return d.Subset(trainIdx), d.Subset(testIdx), nil
}

// Augment synthesizes additional samples by variation: each synthetic sample
// copies a randomly chosen real sample of the same class and perturbs every
// feature by Gaussian noise with standard deviation frac·|value| (plus a tiny
// absolute floor so zero-valued features also vary). This mirrors the
// variation-based statistical augmentation used in §4.4 to balance classes.
// The dataset is grown so every class has at least perClass samples.
func Augment(d *Dataset, perClass int, frac float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	byClass := make(map[int][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	out := &Dataset{
		X:            append([][]float64{}, d.X...),
		Y:            append([]int{}, d.Y...),
		FeatureNames: d.FeatureNames,
		ClassNames:   d.ClassNames,
	}
	for c := 0; c < d.NumClasses(); c++ {
		idx := byClass[c]
		if len(idx) == 0 {
			continue
		}
		for have := len(idx); have < perClass; have++ {
			src := d.X[idx[rng.Intn(len(idx))]]
			row := make([]float64, len(src))
			for j, v := range src {
				sigma := frac*abs(v) + 1e-9
				row[j] = v + rng.NormFloat64()*sigma
			}
			out.Append(row, c)
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Subsample returns a stratified random subset of at most n samples,
// preserving class proportions (every non-empty class keeps at least one
// sample). It returns d itself when it already fits.
func Subsample(d *Dataset, n int, seed int64) *Dataset {
	if d.NumSamples() <= n || n <= 0 {
		return d
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := make(map[int][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	frac := float64(n) / float64(d.NumSamples())
	var keep []int
	for c := 0; c < d.NumClasses(); c++ {
		idx := byClass[c]
		if len(idx) == 0 {
			continue
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		k := int(float64(len(idx))*frac + 0.5)
		if k < 1 {
			k = 1
		}
		keep = append(keep, idx[:k]...)
	}
	return d.Subset(keep)
}
