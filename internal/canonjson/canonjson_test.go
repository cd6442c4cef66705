package canonjson

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
)

// marshal is the reference every primitive is held to: encoding/json's own
// rendering of the value (HTML escaping on, as Encoder has it by default).
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.05, 0.001, 100000, 14.25,
		1e-6, 9.999999e-7, 1e-7, 1e-9, 1.5e-9, 1e-10, 1e-100, 1e-308, math.SmallestNonzeroFloat64,
		1e20, 9.99999e20, 1e21, 1.5e21, 3e22, 1e99, 1e100, math.MaxFloat64, -3e22, -1e-9,
		1 << 53, 1<<63 - 1, 123456789.125,
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 20000; i++ {
		// Raw bit patterns reach every exponent; the scaled draws crowd the
		// two format switches.
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.Float64()*2e-6, rng.Float64()*2e21)
	}
	for _, v := range vals {
		got, err := Float(nil, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if err == nil {
				t.Fatalf("Float(%v) succeeded", v)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Float(%v): %v", v, err)
		}
		if want := marshal(t, v); !bytes.Equal(got, want) {
			t.Fatalf("Float(%v) = %s, encoding/json writes %s", v, got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Float(nil, v); err == nil {
			t.Errorf("Float(%v) succeeded; JSON has no form for it", v)
		}
	}
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "Fortnite", "continuous-play", "2026-07-01T12:00:00.000000005Z", `<>&`, `"`, `\`, `a"b\c`,
		"\x00", "\x1f", "\x7f", "\t\n\r\b\f", "\xff", "a\xc0\xafb", "  ", "日本語", "é", "\U0001F3AE",
	}
	for c := 0; c < 256; c++ { // every byte, alone and embedded
		cases = append(cases, string([]byte{byte(c)}), "ab"+string([]byte{byte(c)})+"cd")
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		got := String([]byte("x"), s)
		if want := append([]byte("x"), marshal(t, s)...); !bytes.Equal(got, want) {
			t.Fatalf("String(%q) = %s, encoding/json writes %s", s, got[1:], want[1:])
		}
	}
}

func TestAddrMatchesString(t *testing.T) {
	addrs := []netip.Addr{
		{}, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("255.255.255.255"), netip.MustParseAddr("::"),
		netip.MustParseAddr("::1"), netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("::ffff:1.2.3.4"),
		netip.MustParseAddr("fe80::1%eth0"), netip.MustParseAddr("fe80::1").WithZone(`<"z">`), netip.MustParseAddr("fe80::1").WithZone("z\xff"),
	}
	for _, a := range addrs {
		if got, want := Addr(nil, a), marshal(t, a.String()); !bytes.Equal(got, want) {
			t.Errorf("Addr(%v) = %s, encoding/json writes %s", a, got, want)
		}
	}
}

func TestNewline(t *testing.T) {
	for d := 0; d < 9; d++ {
		if got, want := string(Newline([]byte("{"), d)), "{\n"+strings.Repeat(" ", d); got != want {
			t.Errorf("Newline(depth %d) = %q, want %q", d, got, want)
		}
	}
}
