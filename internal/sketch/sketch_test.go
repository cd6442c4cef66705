package sketch

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

// values generates a deterministic, shuffled-looking sample spanning the
// default range: a low-rate mass, a mid-band bulk and a heavy tail.
func values(n int) []float64 {
	out := make([]float64, 0, n)
	x := uint64(2463534242)
	for i := 0; i < n; i++ {
		// xorshift64 — deterministic without math/rand.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x%1_000_000) / 1_000_000
		switch i % 3 {
		case 0:
			out = append(out, 0.5+u*5) // lobby-grade Mbps
		case 1:
			out = append(out, 8+u*20) // streaming bulk
		default:
			out = append(out, 40+u*200) // heavy tail
		}
	}
	return out
}

// exactQuantile is the reference: nearest-rank on the sorted sample.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileAccuracy pins the Alpha relative-error contract on p50, p90
// and p99 against the exact nearest-rank quantiles.
func TestQuantileAccuracy(t *testing.T) {
	vs := values(5000)
	s := New(Config{})
	for _, v := range vs {
		s.Add(v)
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := s.Quantile(q), exactQuantile(sorted, q)
		if rel := math.Abs(got-want) / want; rel > s.Config().Alpha {
			t.Errorf("q=%v: sketch %v vs exact %v, relative error %.4f > alpha %v",
				q, got, want, rel, s.Config().Alpha)
		}
	}
	if s.Count() != int64(len(vs)) {
		t.Errorf("Count = %d, want %d", s.Count(), len(vs))
	}
}

// TestMergeExact pins the property everything downstream relies on: merging
// per-tap sketches over any partition of the value stream, in any order, is
// byte-identical to sketching the union.
func TestMergeExact(t *testing.T) {
	vs := values(999)
	whole := New(Config{})
	for _, v := range vs {
		whole.Add(v)
	}
	// Partition round-robin into three taps, fed in different directions.
	taps := []*Sketch{New(Config{}), New(Config{}), New(Config{})}
	for i := len(vs) - 1; i >= 0; i-- {
		taps[i%3].Add(vs[i])
	}
	merged := New(Config{})
	for _, tap := range taps {
		merged.Merge(tap)
	}
	a, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("merged partition differs from whole-stream sketch:\n%s\nvs\n%s", a, b)
	}
}

// TestTailsAndZero pins the graceful range edges: non-positive values count
// exactly as zero, sub-Min values report ≈Min, over-Max values report ≈Max.
func TestTailsAndZero(t *testing.T) {
	s := New(Config{Alpha: 0.05, Min: 0.01, Max: 1000})
	for i := 0; i < 10; i++ {
		s.Add(0)
	}
	s.Add(-3)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("zero-heavy median = %v, want 0", got)
	}
	low := New(Config{Alpha: 0.05, Min: 0.01, Max: 1000})
	low.Add(1e-9)
	// The first centroid's representative sits exactly at the alpha bound
	// below Min, so allow a hair past it for float round-off.
	if got := low.Quantile(1); math.Abs(got-0.01) > 0.01*0.0501 {
		t.Errorf("sub-Min value reported as %v, want ≈0.01", got)
	}
	high := New(Config{Alpha: 0.05, Min: 0.01, Max: 1000})
	high.Add(1e9)
	high.Add(math.Inf(1)) // clamps into the top centroid, never a bad int conversion
	if got := high.Quantile(1); got < 900 || got > 1100 {
		t.Errorf("over-Max value reported as %v, want ≈1000", got)
	}
	if high.Count() != 2 {
		t.Errorf("+Inf sample not counted: %d", high.Count())
	}
	// NaN counts exactly once (into the zero centroid): a corrupt
	// measurement must not desynchronize Count from the caller's session
	// accounting.
	nan := New(Config{})
	nan.Add(math.NaN())
	if nan.Count() != 1 {
		t.Errorf("NaN sample count = %d, want 1", nan.Count())
	}
	if got := nan.Quantile(1); got != 0 {
		t.Errorf("NaN sample reported as %v, want 0", got)
	}
	empty := New(Config{})
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty sketch quantile = %v, want 0", got)
	}
}

// TestJSONRoundTrip pins the canonical encoding: marshal→unmarshal→marshal
// is the identity, and the restored sketch answers identically.
func TestJSONRoundTrip(t *testing.T) {
	s := New(Config{})
	for _, v := range values(400) {
		s.Add(v)
	}
	s.Add(0)
	first, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var restored Sketch
	if err := json.Unmarshal(first, &restored); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip not the identity:\n%s\nvs\n%s", first, second)
	}
	if restored.Count() != s.Count() {
		t.Errorf("restored count %d, want %d", restored.Count(), s.Count())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := restored.Quantile(q), s.Quantile(q); got != want {
			t.Errorf("q=%v: restored %v, want %v", q, got, want)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":        `nope`,
		"bad geometry":    `{"alpha":0,"min":1,"max":2}`,
		"alpha >= 1":      `{"alpha":1,"min":1,"max":2}`,
		"min over max":    `{"alpha":0.05,"min":10,"max":2}`,
		"nan alpha":       `{"alpha":null,"min":1,"max":2}`,
		"overflow layout": `{"alpha":1e-300,"min":1e-300,"max":1e300}`, // float→int overflow would panic make()
		"huge layout":     `{"alpha":1e-9,"min":0.001,"max":100000}`,   // multi-TB centroid buffer
		"negative zero":   `{"alpha":0.05,"min":0.001,"max":100000,"zero":-1}`,
		"index range":     `{"alpha":0.05,"min":0.001,"max":100000,"centroids":[[99999,1]]}`,
		"neg index":       `{"alpha":0.05,"min":0.001,"max":100000,"centroids":[[-1,1]]}`,
		"unsorted":        `{"alpha":0.05,"min":0.001,"max":100000,"centroids":[[5,1],[3,1]]}`,
		"zero count":      `{"alpha":0.05,"min":0.001,"max":100000,"centroids":[[3,0]]}`,
		"total overflow": `{"alpha":0.05,"min":0.001,"max":100000,"centroids":` +
			`[[0,4611686018427387904],[1,4611686018427387904],[2,4611686018427387904],[3,4611686018427387909]]}`, // counts sum wraps int64 to 5
	} {
		var s Sketch
		if err := json.Unmarshal([]byte(doc), &s); err == nil {
			t.Errorf("%s: accepted invalid sketch document", name)
		}
	}
}

func TestCloneAndGeometry(t *testing.T) {
	s := New(Config{})
	s.Add(12)
	c := s.Clone()
	c.Add(99)
	if s.Count() != 1 || c.Count() != 2 {
		t.Errorf("clone not independent: %d / %d", s.Count(), c.Count())
	}
	if !s.SameGeometry(c) {
		t.Error("clone geometry differs")
	}
	other := New(Config{Alpha: 0.01})
	if s.SameGeometry(other) {
		t.Error("distinct geometries reported the same")
	}
	defer func() {
		if recover() == nil {
			t.Error("merging incompatible geometries did not panic")
		}
	}()
	s.Merge(other)
}

// TestAppendJSONMatchesMarshal holds the append encoder to MarshalJSON: at
// every nesting depth it writes what encoding/json's indenter makes of the
// marshalled object — for an empty sketch (no centroids member), a
// zero-only one, odd geometries with 'e'-form floats, and a populated one.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	empty := New(Config{})
	zeros := New(Config{})
	zeros.Add(0)
	zeros.Add(-3)
	odd := New(Config{Alpha: 1e-7 + 0.01, Min: 2.5e-9, Max: 3e22})
	odd.Add(1e-12)
	odd.Add(1e30)
	full := New(Config{})
	for _, v := range values(400) {
		full.Add(v)
	}
	full.Add(0)
	recycled := New(Config{})
	recycled.Add(7)
	recycled.Reset()
	for name, s := range map[string]*Sketch{"empty": empty, "zeros": zeros, "odd": odd, "full": full, "recycled": recycled} {
		compact, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		for depth := 0; depth < 8; depth++ {
			var want bytes.Buffer
			if err := json.Indent(&want, compact, strings.Repeat(" ", depth), " "); err != nil {
				t.Fatal(err)
			}
			got, err := s.AppendJSON([]byte("x"), depth)
			if err != nil {
				t.Fatalf("%s: AppendJSON: %v", name, err)
			}
			if !bytes.Equal(got[1:], want.Bytes()) {
				t.Fatalf("%s at depth %d:\n%s\nencoding/json writes:\n%s", name, depth, got[1:], want.Bytes())
			}
		}
	}
	bad := New(Config{})
	bad.cfg.Max = math.Inf(1)
	if _, err := bad.AppendJSON(nil, 0); err == nil {
		t.Error("AppendJSON encoded an infinite geometry; MarshalJSON refuses it")
	}
}
