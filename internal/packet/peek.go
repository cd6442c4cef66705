package packet

import (
	"encoding/binary"
	"net/netip"
)

// PeekFlow extracts the transport five-tuple from a raw Ethernet frame
// without a full decode: no options copy, no payload bounding, no error
// construction. It is for callers that only route or group raw frames;
// Summarize is the validating single-pass parse the engine's ingest uses.
//
// The key agrees exactly with Decode followed by Decoded.Flow on every frame
// Decode accepts: the zero key for non-IP frames, addresses with zero
// ports/proto for transports this package does not parse, and the full
// five-tuple for UDP/TCP. Frames Decode would reject (truncated or
// malformed headers) yield a best-effort key.
func PeekFlow(b []byte) FlowKey {
	var k FlowKey
	if len(b) < EthernetHeaderLen {
		return k
	}
	var (
		proto IPProto
		rest  []byte
	)
	switch EtherType(binary.BigEndian.Uint16(b[12:14])) {
	case EtherTypeIPv4:
		ip := b[EthernetHeaderLen:]
		if len(ip) < IPv4HeaderLen || ip[0]>>4 != 4 {
			return k
		}
		ihl := int(ip[0]&0x0f) * 4
		if ihl < IPv4HeaderLen || len(ip) < ihl {
			return k
		}
		k.Src = netip.AddrFrom4([4]byte(ip[12:16]))
		k.Dst = netip.AddrFrom4([4]byte(ip[16:20]))
		proto = IPProto(ip[9])
		rest = ip[ihl:]
	case EtherTypeIPv6:
		ip := b[EthernetHeaderLen:]
		if len(ip) < IPv6HeaderLen || ip[0]>>4 != 6 {
			return k
		}
		k.Src = netip.AddrFrom16([16]byte(ip[8:24]))
		k.Dst = netip.AddrFrom16([16]byte(ip[24:40]))
		proto = IPProto(ip[6])
		rest = ip[IPv6HeaderLen:]
	default:
		return k
	}
	// Ports (and the key's Proto) are set only for the transports Decode
	// parses, mirroring Decoded.Flow's zero ports on unknown transports.
	if (proto == ProtoUDP || proto == ProtoTCP) && len(rest) >= 4 {
		k.SrcPort = binary.BigEndian.Uint16(rest[0:2])
		k.DstPort = binary.BigEndian.Uint16(rest[2:4])
		k.Proto = proto
	}
	return k
}
