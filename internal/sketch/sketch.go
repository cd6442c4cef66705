// Package sketch provides the deterministic, mergeable quantile sketch the
// per-subscriber rollup buckets carry: a t-digest-style summary with a
// *fixed* centroid layout, so that aggregation stays pure addition — the
// property every rollup invariant (order-independence, byte-identical
// checkpoints across engine shard counts, exact multi-monitor merge) is
// built on.
//
// A classic t-digest compresses adaptively: centroid positions depend on
// insertion order, so two taps sketching the same values in different
// orders serialize differently, and merge(A, B) only approximates the
// single-stream sketch. This package fixes the centroid positions up front
// instead — geometrically spaced over [Min, Max] with ratio gamma =
// (1+Alpha)/(1-Alpha), the relative-error layout production telemetry
// sketches use — and each insertion increments its centroid's count. Two
// sketches with the same Config are then mergeable by cell-wise addition,
// exactly: merging per-tap sketches over a partitioned value stream is
// *identical* (not approximately equal) to sketching the union, in any
// order.
//
// # Accuracy
//
// Quantile(q) returns a value within a relative error of Alpha of some
// exact q'-quantile of the inserted values: every value v in [Min, Max]
// lands in a centroid whose representative value rep satisfies
// |rep - v| <= Alpha * v. Values outside the tracked range degrade
// gracefully rather than erroring: v <= 0 is counted exactly as 0 in a
// dedicated zero centroid, v in (0, Min) collapses into the first centroid
// (reported as ≈Min), and v > Max collapses into the last (reported as
// ≈Max). Counts are integers, so quantile queries are exact in rank and
// deterministic in value.
//
// # Allocation
//
// New allocates the centroid buffer once (the warm-up); Add and Merge are
// allocation-free after that, which keeps Rollup.Observe's steady state at
// 0 allocs/op with sketch insertion included (pinned by the allocgate
// tests). The sketch owns its centroid buffer; nothing is borrowed.
package sketch

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"gamelens/internal/canonjson"
)

// Config fixes a sketch's centroid geometry. Two sketches are mergeable iff
// their Configs are identical; the geometry is serialized with the sketch
// and validated on restore.
type Config struct {
	// Alpha is the target relative accuracy (default 0.05): quantile
	// values are within a factor of 1±Alpha of an exact quantile.
	Alpha float64
	// Min is the smallest distinguishable positive value (default 1e-3).
	// Positive values below it collapse into the first centroid.
	Min float64
	// Max is the largest tracked value (default 1e5). Values above it
	// collapse into the last centroid.
	Max float64
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.05
	}
	if c.Min <= 0 {
		c.Min = 1e-3
	}
	if c.Max <= c.Min {
		c.Max = 1e5
	}
	return c
}

// maxCentroids bounds the layout a config may define (64 KB of counts).
// Geometry arrives from untrusted checkpoint files via UnmarshalJSON, so
// the bound is a validity condition, not an assumption: without it a
// corrupt document could demand a multi-terabyte buffer or overflow the
// float→int conversion into a negative make() length.
const maxCentroids = 8192

// layout is the fixed centroid count for a config, computed in floats so
// callers can bound it before any int conversion or allocation.
func (c Config) layout() float64 {
	gamma := (1 + c.Alpha) / (1 - c.Alpha)
	return math.Ceil(math.Log(c.Max/c.Min)/math.Log(gamma)) + 1
}

// valid reports whether the config defines a usable, sanely-sized
// geometry (NaN and infinite fields fail the comparisons).
func (c Config) valid() bool {
	if !(c.Alpha > 0) || !(c.Alpha < 1) || !(c.Min > 0) || !(c.Max > c.Min) {
		return false
	}
	n := c.layout()
	return n >= 1 && n <= maxCentroids
}

// centroids is the fixed layout size for a config: centroid i represents
// values in (Min*gamma^(i-1), Min*gamma^i], i = 0..centroids-1, with the
// first and last centroids additionally absorbing the out-of-range tails.
// Callers validate the config first (withDefaults' defaults are valid by
// construction; UnmarshalJSON rejects invalid geometry).
func (c Config) centroids() int {
	return int(c.layout())
}

// Sketch is one distribution summary. The zero value is not usable; build
// with New. Sketch is not safe for concurrent use (the rollup serializes
// access under its own lock).
type Sketch struct {
	cfg      Config
	invLnGam float64 // 1 / ln(gamma), for value→centroid mapping
	repScale float64 // 2*gamma/(gamma+1): rep(i) = Min*gamma^(i-1)*repScale
	zero     int64   // values <= 0, counted exactly
	counts   []int64 // fixed centroid buffer, owned by the sketch
	total    int64   // zero + sum(counts)
}

// New builds an empty sketch with the given geometry (zero Config fields
// take defaults). This is the only allocation the sketch ever makes.
func New(cfg Config) *Sketch {
	cfg = cfg.withDefaults()
	gamma := (1 + cfg.Alpha) / (1 - cfg.Alpha)
	return &Sketch{
		cfg:      cfg,
		invLnGam: 1 / math.Log(gamma),
		repScale: 2 * gamma / (gamma + 1),
		counts:   make([]int64, cfg.centroids()),
	}
}

// Config returns the sketch's geometry (with defaults resolved).
func (s *Sketch) Config() Config { return s.cfg }

// Count returns the number of inserted values.
func (s *Sketch) Count() int64 { return s.total }

// index maps a positive value onto its centroid, clamping the tails. The
// clamping happens in float space so +Inf (and any overflow) lands in the
// top centroid rather than going through an undefined float→int
// conversion.
func (s *Sketch) index(v float64) int {
	f := math.Ceil(math.Log(v/s.cfg.Min) * s.invLnGam)
	if !(f > 0) {
		return 0
	}
	if f >= float64(len(s.counts)) {
		return len(s.counts) - 1
	}
	return int(f)
}

// rep is centroid i's representative value: the relative midpoint of its
// span, so |rep - v| <= Alpha*v for every in-range v the centroid absorbed.
func (s *Sketch) rep(i int) float64 {
	return s.cfg.Min * math.Pow((1+s.cfg.Alpha)/(1-s.cfg.Alpha), float64(i-1)) * s.repScale
}

// Add inserts one value; v <= 0 — and NaN, which a corrupt measurement
// can produce — counts into the exact zero centroid, so every call adds
// exactly one sample (callers like the rollup pin their session counts to
// Count, and a skipped value would desynchronize them). Allocation-free.
//
//gamelens:noalloc
func (s *Sketch) Add(v float64) {
	if v <= 0 || math.IsNaN(v) {
		s.zero++
		s.total++
		return
	}
	s.counts[s.index(v)]++
	s.total++
}

// Reset empties the sketch in place, keeping its geometry and centroid
// buffer: the warm path for containers that cycle sketches — the rollup's
// bucket rotation resets a rotated bucket's sketches instead of paying
// New's centroid-buffer allocation once per subscriber per bucket width.
// Allocation-free.
//
//gamelens:noalloc
func (s *Sketch) Reset() {
	s.zero = 0
	s.total = 0
	clear(s.counts)
}

// SameGeometry reports whether o can be merged into s.
func (s *Sketch) SameGeometry(o *Sketch) bool { return s.cfg == o.cfg }

// Merge folds o into s by cell-wise addition — exact, order-independent,
// allocation-free. The geometries must be identical; trust boundaries
// (checkpoint restore, multi-monitor merge) validate before calling, so a
// mismatch here is a programming error and panics.
//
//gamelens:noalloc
func (s *Sketch) Merge(o *Sketch) {
	if !s.SameGeometry(o) {
		panic(fmt.Sprintf("sketch: merging incompatible geometries %+v and %+v", s.cfg, o.cfg))
	}
	s.zero += o.zero
	for i, n := range o.counts {
		s.counts[i] += n
	}
	s.total += o.total
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	out := New(s.cfg)
	out.zero = s.zero
	copy(out.counts, s.counts)
	out.total = s.total
	return out
}

// Quantile returns the q-quantile (q clamped to [0, 1]) of the inserted
// values, within the Accuracy contract above. An empty sketch returns 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.total)))
	if rank < 1 {
		rank = 1
	}
	cum := s.zero
	if rank <= cum {
		return 0
	}
	for i, n := range s.counts {
		cum += n
		if rank <= cum {
			return s.rep(i)
		}
	}
	// Unreachable when total is consistent; defensively report the top.
	return s.rep(len(s.counts) - 1)
}

// sketchJSON is the canonical serialized form: geometry, the exact-zero
// count, and the non-empty centroids as sorted (index, count) pairs —
// ascending by construction, so two sketches holding the same distribution
// serialize byte-identically.
type sketchJSON struct {
	Alpha     float64    `json:"alpha"`
	Min       float64    `json:"min"`
	Max       float64    `json:"max"`
	Zero      int64      `json:"zero,omitempty"`
	Centroids [][2]int64 `json:"centroids,omitempty"`
}

// MarshalJSON implements the canonical encoding.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	doc := sketchJSON{Alpha: s.cfg.Alpha, Min: s.cfg.Min, Max: s.cfg.Max, Zero: s.zero}
	for i, n := range s.counts {
		if n != 0 {
			doc.Centroids = append(doc.Centroids, [2]int64{int64(i), n})
		}
	}
	return json.Marshal(doc)
}

// AppendJSON appends the canonical encoding as the document encoders lay it
// out — the bytes MarshalJSON's object becomes once encoding/json has
// indented it with SetIndent("", " ") at nesting depth depth (the depth of
// the line the opening brace sits on) — straight from the centroid buffer:
// no sketchJSON, no pair slice, no second pass. The rollup's cell encoder
// calls it for both sketches of every cell it writes; the tests hold it to
// MarshalJSON byte for byte.
func (s *Sketch) AppendJSON(dst []byte, depth int) ([]byte, error) {
	var err error
	dst = append(dst, '{')
	for i, f := range [...]struct {
		key string
		v   float64
	}{{`"alpha": `, s.cfg.Alpha}, {`"min": `, s.cfg.Min}, {`"max": `, s.cfg.Max}} {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = canonjson.Newline(dst, depth+1)
		dst = append(dst, f.key...)
		if dst, err = canonjson.Float(dst, f.v); err != nil {
			return dst, err
		}
	}
	if s.zero != 0 {
		dst = append(dst, ',')
		dst = canonjson.Newline(dst, depth+1)
		dst = append(dst, `"zero": `...)
		dst = strconv.AppendInt(dst, s.zero, 10)
	}
	first := true
	for i, n := range s.counts {
		if n == 0 {
			continue
		}
		if first {
			dst = append(dst, ',')
			dst = canonjson.Newline(dst, depth+1)
			dst = append(dst, `"centroids": [`...)
			first = false
		} else {
			dst = append(dst, ',')
		}
		dst = canonjson.Newline(dst, depth+2)
		dst = append(dst, '[')
		dst = canonjson.Newline(dst, depth+3)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ',')
		dst = canonjson.Newline(dst, depth+3)
		dst = strconv.AppendInt(dst, n, 10)
		dst = canonjson.Newline(dst, depth+2)
		dst = append(dst, ']')
	}
	if !first {
		dst = canonjson.Newline(dst, depth+1)
		dst = append(dst, ']')
	}
	dst = canonjson.Newline(dst, depth)
	return append(dst, '}'), nil
}

// UnmarshalJSON rebuilds a sketch from its canonical encoding, validating
// the geometry and every centroid (in range, strictly ascending, positive
// count) so a corrupt checkpoint is rejected rather than restored wrong.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var doc sketchJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	cfg := Config{Alpha: doc.Alpha, Min: doc.Min, Max: doc.Max}
	if !cfg.valid() {
		return fmt.Errorf("sketch: invalid geometry %+v", cfg)
	}
	if doc.Zero < 0 {
		return fmt.Errorf("sketch: negative zero count %d", doc.Zero)
	}
	restored := New(cfg)
	restored.zero = doc.Zero
	restored.total = doc.Zero
	prev := int64(-1)
	for _, c := range doc.Centroids {
		idx, n := c[0], c[1]
		if idx <= prev {
			return fmt.Errorf("sketch: centroid indices not strictly ascending at %d", idx)
		}
		if idx < 0 || idx >= int64(len(restored.counts)) {
			return fmt.Errorf("sketch: centroid index %d outside layout [0, %d)", idx, len(restored.counts))
		}
		if n <= 0 {
			return fmt.Errorf("sketch: centroid %d with non-positive count %d", idx, n)
		}
		if n > math.MaxInt64-restored.total {
			// An overflowed total would wrap to a small number and slip
			// past downstream count-consistency checks.
			return fmt.Errorf("sketch: total sample count overflows at centroid %d", idx)
		}
		restored.counts[idx] = n
		restored.total += n
		prev = idx
	}
	*s = *restored
	return nil
}
