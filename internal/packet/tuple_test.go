package packet

import (
	"net/netip"
	"testing"
	"unsafe"
)

// TestTupleRoundTrip pins the tuple as a lossless FlowKey: every address
// kind — absent, IPv4, IPv6, IPv4-mapped IPv6 — in either position converts
// there and back, and keys that differ as FlowKeys differ as Tuples.
func TestTupleRoundTrip(t *testing.T) {
	addrs := []netip.Addr{
		{},
		netip.MustParseAddr("1.2.3.4"),
		netip.MustParseAddr("::ffff:1.2.3.4"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::"),
		netip.MustParseAddr("0.0.0.0"),
	}
	seen := map[Tuple]FlowKey{}
	for _, src := range addrs {
		for _, dst := range addrs {
			for _, proto := range []IPProto{0, ProtoUDP} {
				k := FlowKey{Src: src, Dst: dst, SrcPort: 49003, DstPort: 258, Proto: proto}
				tup := TupleOf(k)
				if back := tup.FlowKey(); back != k {
					t.Errorf("TupleOf(%v).FlowKey() = %v", k, back)
				}
				if other, dup := seen[tup]; dup {
					t.Errorf("%v and %v share the tuple %x", k, other, tup[:])
				}
				seen[tup] = k
				if tup[38] != 0 || tup[39] != 0 {
					t.Errorf("TupleOf(%v) wrote its spare bytes: %x", k, tup[:])
				}
			}
		}
	}
	if (TupleOf(FlowKey{}) != Tuple{}) {
		t.Error("the zero FlowKey is not the zero Tuple")
	}
}

// TestSummarySize pins what one frame costs on the producer→shard ring: a
// field added to Summary fails here by name, not as a drift in the
// benchmark's heap_b_per_key.
func TestSummarySize(t *testing.T) {
	if n := unsafe.Sizeof(Summary{}); n > 48 {
		t.Errorf("packet.Summary is %d bytes, budget 48", n)
	}
}
