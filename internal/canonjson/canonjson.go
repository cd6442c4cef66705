// Package canonjson holds the append-style primitives the canonical
// document encoders share (sketch.Sketch.AppendJSON, rollup.Counts.AppendJSON,
// the checkpoint and partition shells): each renders one JSON token exactly
// as encoding/json's Encoder does with SetIndent("", " ") and HTML escaping
// on, so a document assembled from them is byte-identical to the reflection
// encoding it replaced — the property the differential tests in
// internal/rollup and internal/rollup/store hold every encoder to.
package canonjson

import (
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"strconv"
)

// Newline starts a new line at the given nesting depth: one space per level,
// the SetIndent("", " ") layout.
func Newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ')
	}
	return dst
}

// Float appends f in encoding/json's float64 form: shortest round-trip
// digits, 'f' notation except below 1e-6 and from 1e21 where it is 'e' with
// the exponent's leading zero trimmed (1e-09 → 1e-9). NaN and the
// infinities have no JSON form and are an error, as they are to
// encoding/json.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("canonjson: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// String appends s as a quoted JSON string. Plain ASCII — every title,
// pattern, tier name and timestamp the tree produces — is copied through;
// anything encoding/json would escape (quotes, backslashes, control bytes,
// the HTML trio <>&, non-ASCII and with it invalid UTF-8 and U+2028/9) is
// handed to encoding/json itself, so the escaping rules live in one place.
func String(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil {
				panic(err) // a string cannot fail to marshal
			}
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Addr appends a's String form as a quoted JSON string without building the
// string. A zone is free text (netip.ParseAddr accepts any), and the zero
// Addr's String is not what AppendTo writes, so those two go through String.
func Addr(dst []byte, a netip.Addr) []byte {
	if !a.IsValid() || a.Zone() != "" {
		return String(dst, a.String())
	}
	dst = append(dst, '"')
	dst = a.AppendTo(dst)
	return append(dst, '"')
}
