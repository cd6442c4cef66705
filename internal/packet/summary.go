package packet

import (
	"bytes"
	"encoding/binary"
)

// Summary is everything the analysis path reads of one frame: which
// conversation it belongs to, which way it travelled, and how much transport
// payload it carried. The method never looks at payload content beyond the
// RTP header probe, so a Summary — 48 plain bytes with no pointer and no view
// into the frame — is all that has to outlive the capture buffer (the engine
// hands summaries, not frame bytes, to its shards).
type Summary struct {
	// Key is the canonical five-tuple (FlowKey.Canonical of the frame's
	// own, in tuple form): the zero Tuple for non-IP frames, addresses only
	// for transports this package does not parse.
	Key Tuple
	// PayloadLen is the transport payload length Decode would return.
	PayloadLen int32
	// Reversed reports that the frame travelled from Key's destination to
	// its source, i.e. its own five-tuple is Key.FlowKey().Reverse().
	Reversed bool
	// UDP reports a UDP datagram over IPv4 or IPv6.
	UDP bool
	// RTP is LooksLikeRTP of the payload; only probed on UDP frames.
	RTP bool
}

// SrcPort returns the transport source port of the frame itself.
func (s *Summary) SrcPort() uint16 {
	if s.Reversed {
		return s.Key.dstPort()
	}
	return s.Key.srcPort()
}

// DstPort returns the transport destination port of the frame itself.
func (s *Summary) DstPort() uint16 {
	if s.Reversed {
		return s.Key.srcPort()
	}
	return s.Key.dstPort()
}

// Summarize parses an Ethernet frame straight into its Summary in one pass:
// no layer structs, no options copy, no payload slice, and the canonical
// five-tuple written off the wire bytes with no netip.Addr in between. It
// accepts and rejects exactly the frames Decode does, and on the accepted
// ones s equals Decoded.SummaryInto of the decode (FuzzSummarize holds the
// two together). Rejections are the package's bare sentinel errors — frames
// come off the wire, so the reject path must cost an adversary's input
// nothing to report. s is written only on success.
//
//gamelens:noalloc
func Summarize(b []byte, s *Summary) error {
	if len(b) < EthernetHeaderLen {
		return ErrTruncated
	}
	ip := b[EthernetHeaderLen:]
	var (
		src, dst []byte // the addresses as the header has them: 4 bytes each, or 16
		proto    IPProto
		rest     []byte
	)
	switch EtherType(binary.BigEndian.Uint16(b[12:14])) {
	case EtherTypeIPv4:
		if len(ip) < IPv4HeaderLen {
			return ErrTruncated
		}
		if ip[0]>>4 != 4 {
			return ErrBadVersion
		}
		ihl := int(ip[0]&0x0f) * 4
		end := int(binary.BigEndian.Uint16(ip[2:4]))
		if ihl < IPv4HeaderLen || len(ip) < ihl || end < ihl {
			return ErrBadLength
		}
		if end > len(ip) {
			end = len(ip) // truncated capture: what we have
		}
		src, dst = ip[12:16], ip[16:20]
		proto = IPProto(ip[9])
		rest = ip[ihl:end]
	case EtherTypeIPv6:
		if len(ip) < IPv6HeaderLen {
			return ErrTruncated
		}
		if ip[0]>>4 != 6 {
			return ErrBadVersion
		}
		end := IPv6HeaderLen + int(binary.BigEndian.Uint16(ip[4:6]))
		if end > len(ip) {
			end = len(ip)
		}
		src, dst = ip[8:24], ip[24:40]
		proto = IPProto(ip[6])
		rest = ip[IPv6HeaderLen:end]
	default:
		*s = Summary{PayloadLen: int32(len(ip))}
		return nil
	}
	var (
		sport, dport uint16
		udp          bool
	)
	payload := rest
	switch proto {
	case ProtoUDP:
		if len(rest) < UDPHeaderLen {
			return ErrTruncated
		}
		end := int(binary.BigEndian.Uint16(rest[4:6]))
		if end < UDPHeaderLen {
			return ErrBadLength
		}
		if end > len(rest) {
			end = len(rest)
		}
		payload, udp = rest[UDPHeaderLen:end], true
	case ProtoTCP:
		if len(rest) < TCPHeaderLen {
			return ErrTruncated
		}
		off := int(rest[12]>>4) * 4
		if off < TCPHeaderLen || len(rest) < off {
			return ErrBadLength
		}
		payload = rest[off:]
	default:
		proto = 0 // unparsed transport: addresses only, as Decoded.Flow
	}
	if proto != 0 {
		sport = binary.BigEndian.Uint16(rest[0:2])
		dport = binary.BigEndian.Uint16(rest[2:4])
	}

	// FlowKey.Canonical's order, the smaller (addr, port) endpoint first:
	// both addresses are of one family, so netip.Addr.Compare is the byte
	// order of what the header holds.
	order := bytes.Compare(src, dst)
	reversed := order > 0 || order == 0 && sport > dport
	if reversed {
		src, dst, sport, dport = dst, src, dport, sport
	}
	*s = Summary{
		PayloadLen: int32(len(payload)),
		Reversed:   reversed,
		UDP:        udp,
		RTP:        udp && LooksLikeRTP(payload),
	}
	k := &s.Key
	if len(src) == 4 {
		k[tupSrc+10], k[tupSrc+11] = 0xff, 0xff
		copy(k[tupSrc+12:tupSrc+16], src)
		k[tupDst+10], k[tupDst+11] = 0xff, 0xff
		copy(k[tupDst+12:tupDst+16], dst)
		k[tupKinds] = kindIP4 | kindIP4<<2
	} else {
		copy(k[tupSrc:tupSrc+16], src)
		copy(k[tupDst:tupDst+16], dst)
		k[tupKinds] = kindIP6 | kindIP6<<2
	}
	binary.BigEndian.PutUint16(k[tupSrcPort:], sport)
	binary.BigEndian.PutUint16(k[tupDstPort:], dport)
	k[tupProto] = byte(proto)
	return nil
}

// SummaryInto writes the summary of a decoded frame whose transport payload
// is payload (normally d.Payload; the pipeline entry points take it
// separately) into s.
func (d *Decoded) SummaryInto(payload []byte, s *Summary) {
	own := d.Flow()
	key := own.Canonical()
	*s = Summary{
		Key:        TupleOf(key),
		PayloadLen: int32(len(payload)),
		Reversed:   key != own,
		UDP:        d.HasUDP,
		RTP:        d.HasUDP && LooksLikeRTP(payload),
	}
}
