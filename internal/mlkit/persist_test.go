package mlkit

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// hostileForests are model files an operator could hand to
// `classify -title-model`: each is well-formed JSON of the right format that
// would hang (a cycle), panic (an index out of range) or mis-size the first
// inference, and must be rejected at load with a message naming the tree
// and node at fault when loaded for forestWidth features.
const forestWidth = 4

var hostileForests = []struct{ name, doc, want string }{
	{"negative child", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":0,"t":1,"l":-3,"r":1},{"f":-1,"d":[1,0]}]}]}`, "tree 0 node 0"},
	{"self cycle", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":-1,"d":[1,0]}]},{"nodes":[{"f":0,"t":1,"l":1,"r":2},{"f":1,"t":1,"l":1,"r":2},{"f":-1,"d":[0,1]}]}]}`, "tree 1 node 1"},
	{"back edge", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":0,"t":1,"l":1,"r":2},{"f":1,"t":1,"l":2,"r":0},{"f":-1,"d":[0,1]}]}]}`, "tree 0 node 1"},
	{"missing child", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":0,"t":1,"l":1},{"f":-1,"d":[0,1]}]}]}`, "tree 0 node 0"},
	{"child past end", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":0,"t":1,"l":1,"r":2},{"f":-1,"d":[0,1]}]}]}`, "tree 0 node 0"},
	{"no nodes", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":-1,"d":[1,0]}]},{"nodes":[]}]}`, "tree 1"},
	{"feature past width", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":4,"t":1,"l":1,"r":2},{"f":-1,"d":[1,0]},{"f":-1,"d":[0,1]}]}]}`, "tree 0 node 0"},
	{"feature wraps int32", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":4294967295,"t":1,"l":1,"r":2},{"f":-1,"d":[1,0]},{"f":-1,"d":[0,1]}]}]}`, "tree 0 node 0"},
	{"feature below -1", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":-2,"d":[1,0]}]}]}`, "tree 0 node 0"},
	{"leaf without distribution", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":0,"t":1,"l":1,"r":2},{"f":-1},{"f":-1,"d":[0,1]}]}]}`, "tree 0 node 1"},
	{"short leaf in a huge forest", `{"format":"gamelens-forest-v1","num_classes":2000000000,"trees":[{"nodes":[{"f":-1,"d":[1]}]}]}`, "tree 0 node 0"},
	{"wide leaf", `{"format":"gamelens-forest-v1","num_classes":2,"trees":[{"nodes":[{"f":-1,"d":[1,0,0]}]}]}`, "tree 0 node 0"},
}

func TestLoadForestRejectsHostile(t *testing.T) {
	for _, tc := range hostileForests {
		_, err := LoadForest(strings.NewReader(tc.doc), forestWidth)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// savedForests returns SaveForest's bytes for a few trained forests over
// forestWidth-feature data.
func savedForests(tb testing.TB) [][]byte {
	var out [][]byte
	for seed := int64(1); seed <= 3; seed++ {
		f, err := FitForest(blobs(int(seed)+1, forestWidth, 12, 1.5, 80+seed), ForestConfig{NumTrees: 3, MaxDepth: 4, Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveForest(&buf, f); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// reload holds a loaded forest to the loader's promise: a prediction over a
// width-feature vector returns, and the forest saves to a document that
// loads and saves again to the same bytes.
func reload(t *testing.T, f *Forest, width int) []byte {
	t.Helper()
	f.PredictProbaInto(make([]float64, width), make([]float64, f.NumClasses()))
	var first, second bytes.Buffer
	if err := SaveForest(&first, f); err != nil {
		t.Fatal(err)
	}
	g, err := LoadForest(bytes.NewReader(first.Bytes()), width)
	if err != nil {
		t.Fatalf("LoadForest rejects the re-save of a forest it loaded: %v", err)
	}
	if err := SaveForest(&second, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-save is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
	}
	return first.Bytes()
}

// TestSavedForestReloadsByteIdentical: the tightened loader still takes
// everything SaveForest writes, and gives it back byte for byte.
func TestSavedForestReloadsByteIdentical(t *testing.T) {
	for i, doc := range savedForests(t) {
		f, err := LoadForest(bytes.NewReader(doc), forestWidth)
		if err != nil {
			t.Fatalf("forest %d: %v", i, err)
		}
		if got := reload(t, f, forestWidth); !bytes.Equal(got, doc) {
			t.Fatalf("forest %d re-saved differently:\n%s\n%s", i, got, doc)
		}
	}
}

// FuzzLoadForest is the loader property for model files: whatever document
// LoadForest accepts for a width predicts over a zero vector of that width
// without hanging or panicking, and saves to a fixed point of load→save.
// Seeds: saved forests whole, cut short and with single bits flipped, and
// the hostile table.
func FuzzLoadForest(f *testing.F) {
	for i, doc := range savedForests(f) {
		f.Add(doc, forestWidth)
		rng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 16; j++ {
			f.Add(doc[:rng.Intn(len(doc))], forestWidth)
			flipped := bytes.Clone(doc)
			flipped[rng.Intn(len(doc))] ^= 1 << rng.Intn(8)
			f.Add(flipped, 1+rng.Intn(6))
		}
	}
	for _, tc := range hostileForests {
		f.Add([]byte(tc.doc), forestWidth)
	}
	f.Fuzz(func(t *testing.T, doc []byte, width int) {
		if width < 0 || width > 64 {
			t.Skip()
		}
		forest, err := LoadForest(bytes.NewReader(doc), width)
		if err != nil {
			t.Skip()
		}
		reload(t, forest, width)
	})
}
