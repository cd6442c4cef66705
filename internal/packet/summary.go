package packet

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"net/netip"
)

// Summary is everything the analysis path reads of one frame: which
// conversation it belongs to, which way it travelled, and how much transport
// payload it carried. The method never looks at payload content beyond the
// RTP header probe, so a Summary — a fixed-size value with no view into the
// frame — is all that has to outlive the capture buffer (the engine hands
// summaries, not frame bytes, to its shards).
type Summary struct {
	// Key is the canonical five-tuple (FlowKey.Canonical of the frame's
	// own): the zero key for non-IP frames, addresses only for transports
	// this package does not parse.
	Key FlowKey
	// PayloadLen is the transport payload length Decode would return.
	PayloadLen int
	// Reversed reports that the frame travelled from Key.Dst to Key.Src,
	// i.e. its own five-tuple is Key.Reverse().
	Reversed bool
	// UDP reports a UDP datagram over IPv4 or IPv6.
	UDP bool
	// RTP is LooksLikeRTP of the payload; only probed on UDP frames.
	RTP bool
}

// SrcPort returns the transport source port of the frame itself.
func (s *Summary) SrcPort() uint16 {
	if s.Reversed {
		return s.Key.DstPort
	}
	return s.Key.SrcPort
}

// DstPort returns the transport destination port of the frame itself.
func (s *Summary) DstPort() uint16 {
	if s.Reversed {
		return s.Key.SrcPort
	}
	return s.Key.DstPort
}

// Summarize parses an Ethernet frame straight into its Summary in one pass:
// no layer structs, no options copy, no payload slice. It accepts and
// rejects exactly the frames Decode does, and on the accepted ones s equals
// Decoded.SummaryInto of the decode (FuzzSummarize holds the two together).
// Rejections are the package's bare sentinel errors — frames come off the
// wire, so the reject path must cost an adversary's input nothing to report.
// s is written only on success.
//
//gamelens:noalloc
func Summarize(b []byte, s *Summary) error {
	if len(b) < EthernetHeaderLen {
		return ErrTruncated
	}
	ip := b[EthernetHeaderLen:]
	var (
		src, dst netip.Addr
		order    int // src compared to dst, as netip.Addr.Compare orders them
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
		src = netip.AddrFrom4([4]byte(ip[12:16]))
		dst = netip.AddrFrom4([4]byte(ip[16:20]))
		order = cmp.Compare(binary.BigEndian.Uint32(ip[12:16]), binary.BigEndian.Uint32(ip[16:20]))
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
		src = netip.AddrFrom16([16]byte(ip[8:24]))
		dst = netip.AddrFrom16([16]byte(ip[24:40]))
		order = bytes.Compare(ip[8:24], ip[24:40])
		proto = IPProto(ip[6])
		rest = ip[IPv6HeaderLen:end]
	default:
		*s = Summary{PayloadLen: len(ip)}
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
	s.set(src, dst, sport, dport, proto, order, payload, udp)
	return nil
}

// SummaryInto writes the summary of a decoded frame whose transport payload
// is payload (normally d.Payload; the pipeline entry points take it
// separately) into s.
func (d *Decoded) SummaryInto(payload []byte, s *Summary) {
	if !d.HasIP4 && !d.HasIP6 {
		*s = Summary{PayloadLen: len(payload)}
		return
	}
	src, dst := d.SrcAddr(), d.DstAddr()
	s.set(src, dst, d.SrcPort(), d.DstPort(), d.Proto(), src.Compare(dst), payload, d.HasUDP)
}

// set fills s from a frame's own five-tuple, given how its addresses order
// (src compared to dst), placing the endpoints in FlowKey.Canonical's order:
// the smaller (addr, port) first.
func (s *Summary) set(src, dst netip.Addr, sport, dport uint16, proto IPProto, order int, payload []byte, udp bool) {
	reversed := order > 0 || order == 0 && sport > dport
	if reversed {
		src, dst, sport, dport = dst, src, dport, sport
	}
	*s = Summary{
		Key:        FlowKey{Src: src, Dst: dst, SrcPort: sport, DstPort: dport, Proto: proto},
		PayloadLen: len(payload),
		Reversed:   reversed,
		UDP:        udp,
		RTP:        udp && LooksLikeRTP(payload),
	}
}
