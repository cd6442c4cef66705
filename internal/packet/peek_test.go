package packet

import (
	"bytes"
	"net/netip"
	"testing"
)

// peekFrames builds the representative frame shapes whose routing keys the
// engine's raw-frame handoff depends on: IPv4 UDP/TCP (with and without
// options), IPv6 UDP, unknown transports, and non-IP.
func peekFrames() map[string][]byte {
	src, dst := addr4(10, 0, 0, 2), addr4(203, 0, 113, 9)
	eth4 := Ethernet{Dst: MAC{0xaa, 1, 2, 3, 4, 5}, Src: MAC{0xbb, 6, 7, 8, 9, 10}, Type: EtherTypeIPv4}
	frames := map[string][]byte{
		"ipv4-udp": frame([]byte("payload"), ProtoUDP),
		"ipv4-tcp": frame([]byte("GET /"), ProtoTCP),
	}

	// IPv4 with options: the transport header starts past IHL, which a
	// naive fixed-offset peek would misread as garbage ports.
	tc := TCP{SrcPort: 49003, DstPort: 443, Flags: TCPAck, Window: 64240,
		Options: []byte{1, 1, 1, 1}}
	ipOpt := IPv4{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst,
		Options: []byte{7, 4, 0, 0}} // loose source route placeholder, padded
	frames["ipv4-opts-tcp"] = ipOpt.AppendTo(eth4.AppendTo(nil),
		tc.AppendTo(nil, []byte("x"), src, dst))

	// IPv6 UDP.
	s6 := netip.MustParseAddr("2001:db8::2")
	d6 := netip.MustParseAddr("2001:db8::9")
	u := UDP{SrcPort: 50123, DstPort: 5004}
	ip6 := IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: s6, Dst: d6}
	eth6 := eth4
	eth6.Type = EtherTypeIPv6
	frames["ipv6-udp"] = ip6.AppendTo(eth6.AppendTo(nil), u.AppendTo(nil, []byte("v6"), s6, d6))

	// Unknown transport: addresses route, ports/proto stay zero.
	ipIcmp := IPv4{TTL: 64, Protocol: IPProto(1), Src: src, Dst: dst}
	frames["ipv4-icmp"] = ipIcmp.AppendTo(eth4.AppendTo(nil), []byte{8, 0, 0, 0, 0, 1, 0, 1})

	// Non-IP: zero key.
	arp := eth4
	arp.Type = EtherType(0x0806)
	frames["arp"] = append(arp.AppendTo(nil), bytes.Repeat([]byte{0}, 28)...)
	return frames
}

// TestPeekFlowMatchesDecode pins the routing contract: on every frame
// Decode accepts, PeekFlow must return exactly Decode+Flow — a divergence
// would route a flow's packets to a different shard than its decoded-path
// packets, splitting the flow.
func TestPeekFlowMatchesDecode(t *testing.T) {
	for name, b := range peekFrames() {
		got := PeekFlow(b)
		var d Decoded
		if err := Decode(b, &d); err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if want := d.Flow(); got != want {
			t.Errorf("%s: PeekFlow = %+v, Decode+Flow = %+v", name, got, want)
		}
	}
}

// TestPeekFlowTruncated checks truncated frames neither panic nor read out
// of bounds; the returned key only has to be deterministic (the frame is
// rejected at decode time on whichever shard it reaches).
func TestPeekFlowTruncated(t *testing.T) {
	for name, b := range peekFrames() {
		for n := 0; n <= len(b); n++ {
			first := PeekFlow(b[:n])
			if again := PeekFlow(b[:n]); again != first {
				t.Fatalf("%s[:%d]: PeekFlow not deterministic", name, n)
			}
		}
	}
}
