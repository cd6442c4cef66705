// The cell codec: one Counts → bytes encoder, shared by every document that
// stores cells — the window checkpoint (checkpoint.go), the archive's
// partition files and its pending tail (internal/rollup/store). It appends
// exactly what encoding/json's Encoder with SetIndent("", " ") would emit
// for the Counts struct at a given nesting depth — declared field order, the
// same omitempty rules, map keys sorted bytewise, each sketch appending its
// own object (sketch.AppendJSON) — without reflection, without a document
// tree and without allocating per cell. Decoding still goes through the
// struct tags (Restore, the store's loaders); the reflection *encoding* is
// kept in the _test.go files only, as the reference this one is held to byte
// for byte.

package rollup

import (
	"fmt"
	"slices"
	"strconv"

	"gamelens/internal/canonjson"
	"gamelens/internal/sketch"
)

// AppendJSON appends the cell's canonical encoding to dst. depth is the
// nesting depth of the line the opening brace sits on (the closing brace
// returns to it; keys sit one level deeper). A non-finite float sum has no
// JSON form and is an error; dst's contents past its original length are
// then unspecified and the caller must discard them.
func (c *Counts) AppendJSON(dst []byte, depth int) ([]byte, error) {
	d := depth + 1
	dst = append(dst, '{')
	dst = canonjson.Newline(dst, d)
	dst = append(dst, `"sessions": `...)
	dst = strconv.AppendInt(dst, c.Sessions, 10)
	dst = appendOptInt(dst, d, `"evicted": `, c.Evicted)
	dst = appendCountMap(dst, d, `"titles": `, c.Titles)
	dst = appendCountMap(dst, d, `"patterns": `, c.Patterns)
	dst = appendOptInt(dst, d, `"unknown": `, c.Unknown)
	dst, err := appendFloatArray(dst, d, `"stage_minutes": [`, c.StageMinutes[:])
	if err != nil {
		return dst, fmt.Errorf("stage_minutes: %w", err)
	}
	dst = appendField(dst, d, `"mbps_sum": `)
	if dst, err = canonjson.Float(dst, c.MbpsSum); err != nil {
		return dst, fmt.Errorf("mbps_sum: %w", err)
	}
	dst = appendIntArray(dst, d, `"objective": [`, c.Objective[:])
	dst = appendIntArray(dst, d, `"effective": [`, c.Effective[:])
	dst = appendOptInt(dst, d, `"objective_unknown": `, c.ObjectiveUnknown)
	dst = appendOptInt(dst, d, `"effective_unknown": `, c.EffectiveUnknown)
	for _, s := range [...]struct {
		key string
		s   *sketch.Sketch
	}{{`"throughput": `, c.Throughput}, {`"qoe_proxy": `, c.QoEProxy}} {
		if s.s == nil {
			continue
		}
		dst = appendField(dst, d, s.key)
		if dst, err = s.s.AppendJSON(dst, d); err != nil {
			return dst, err
		}
	}
	dst = canonjson.Newline(dst, depth)
	return append(dst, '}'), nil
}

// appendField starts every field after the first: the separating comma, a
// new line at the keys' depth, and the key with its colon.
func appendField(dst []byte, depth int, key string) []byte {
	dst = append(dst, ',')
	dst = canonjson.Newline(dst, depth)
	return append(dst, key...)
}

// appendOptInt is an `omitempty` integer field.
func appendOptInt(dst []byte, depth int, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(appendField(dst, depth, key), v, 10)
}

// closeArray ends an array of n elements opened with "[": an empty one is
// "[]" on one line, as encoding/json's indenter leaves it.
func closeArray(dst []byte, depth, n int) []byte {
	if n > 0 {
		dst = canonjson.Newline(dst, depth)
	}
	return append(dst, ']')
}

func appendFloatArray(dst []byte, depth int, key string, vs []float64) ([]byte, error) {
	dst = appendField(dst, depth, key)
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = canonjson.Float(canonjson.Newline(dst, depth+1), v); err != nil {
			return dst, err
		}
	}
	return closeArray(dst, depth, len(vs)), nil
}

func appendIntArray(dst []byte, depth int, key string, vs []int64) []byte {
	dst = appendField(dst, depth, key)
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(canonjson.Newline(dst, depth+1), v, 10)
	}
	return closeArray(dst, depth, len(vs))
}

// appendCountMap is an `omitempty` map field with its keys in encoding/json's
// order (bytewise on the raw key). The key scratch lives on the stack for
// any realistic title catalog, so a cell costs no allocation.
func appendCountMap(dst []byte, depth int, key string, m map[string]int64) []byte {
	if len(m) == 0 {
		return dst
	}
	var scratch [32]string
	keys := scratch[:0]
	//gamelens:sorted keys are collected here and sorted just below
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = appendField(dst, depth, key)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = canonjson.String(canonjson.Newline(dst, depth+1), k)
		dst = append(dst, ": "...)
		dst = strconv.AppendInt(dst, m[k], 10)
	}
	dst = canonjson.Newline(dst, depth)
	return append(dst, '}')
}
