package main

import (
	"encoding/binary"
	"math/rand"
	"net/netip"

	"gamelens/internal/packet"
)

// background is the non-gaming traffic of the `background` workload: short
// TCP segments (rejected by the detector without state), small UDP and
// IPv6-UDP datagrams over a Zipf-popular population of five-tuples (each a
// Pending detector entry until the sweep expires it) and a few non-IP
// frames. Frames come from one template per kind, re-addressed per packet.
type background struct {
	tuples int
	zipf   []uint32 // pre-drawn Zipf tuple ids, cycled
	zi     int
	rng    splitmix

	tcp, udp4, udp6, nonIP []byte
}

func newBackground(tuples int, seed int64) *background {
	b := &background{tuples: tuples}
	b.reset(seed)
	z := rand.NewZipf(rand.New(rand.NewSource(seed^0x5bd1e995)), 1.1, 8, uint64(tuples-1))
	b.zipf = make([]uint32, 1<<20)
	for i := range b.zipf {
		b.zipf[i] = uint32(z.Uint64())
	}
	a4, b4 := netip.AddrFrom4([4]byte{172, 16, 0, 1}), netip.AddrFrom4([4]byte{198, 51, 100, 1})
	a6 := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1})
	b6 := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 1, 15: 1})
	payload := make([]byte, 256)
	eth4 := packet.Ethernet{Type: packet.EtherTypeIPv4}
	eth6 := packet.Ethernet{Type: packet.EtherTypeIPv6}
	tcp := packet.TCP{SrcPort: 443, DstPort: 40000, Flags: packet.TCPAck, Window: 512}
	ip := packet.IPv4{TTL: 60, Protocol: packet.ProtoTCP, Src: a4, Dst: b4, DontFrag: true}
	b.tcp = ip.AppendTo(eth4.AppendTo(nil), tcp.AppendTo(nil, payload, a4, b4))
	udp := packet.UDP{SrcPort: 3478, DstPort: 40000}
	ip.Protocol = packet.ProtoUDP
	b.udp4 = ip.AppendTo(eth4.AppendTo(nil), udp.AppendTo(nil, payload, a4, b4))
	ip6 := packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 60, Src: a6, Dst: b6}
	b.udp6 = ip6.AppendTo(eth6.AppendTo(nil), udp.AppendTo(nil, payload, a6, b6))
	arp := packet.Ethernet{Type: packet.EtherTypeARP}
	b.nonIP = append(arp.AppendTo(nil), make([]byte, 46)...)
	return b
}

// reset rewinds the random stream to its seeded start.
func (b *background) reset(seed int64) {
	b.rng, b.zi = splitmix(uint64(seed)*0x9e3779b97f4a7c15+1), 0
}

// splitmix is a splitmix64 generator: fast, seedable from any value, and
// good enough to place packets and draw entry fields.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// emit appends n background records with timestamps uniform over the chunk
// starting at t0. The mix is 50 % TCP, 38 % UDP/IPv4, 11.8 % UDP/IPv6 and
// 0.2 % non-IP; seq carries the direction bit.
func (b *background) emit(out []rec, n int, t0 int64, chunkShift uint) []rec {
	mask := uint64(1)<<chunkShift - 1
	for i := 0; i < n; i++ {
		x := b.rng.next()
		ts := t0 + int64(x&mask)
		mix := (x >> 32) % 1000
		size := uint16(6 + (x>>44)%141) // transport payload bytes: 60–200 B TCP frames
		dir := uint16(x >> 63)
		var kind uint8
		var id uint32
		switch {
		case mix < 500:
			kind = kindTCP
			id = uint32(x>>20) % uint32(b.tuples)
		case mix < 998:
			kind = kindUDP4
			if mix >= 880 {
				kind = kindUDP6
			}
			id = b.zipf[b.zi]
			if b.zi++; b.zi == len(b.zipf) {
				b.zi = 0
			}
		default:
			kind = kindNonIP
		}
		out = append(out, mkRec(ts, kind, id, size, dir))
	}
	return out
}

// frame re-addresses the kind's template for the record's tuple and cuts it
// to the record's length. Tuple id t talks from client 172.16+t/65536.x.y
// (2001:db8::t over IPv6) on port 20000+7t%30000 to one of 200 servers on
// port 3478+t%5, so the numerically smaller port — the one the detector
// takes for the server — is stable per tuple.
func (b *background) frame(r *rec) []byte {
	t := r.id()
	cport, sport := uint16(20000+t*7%30000), uint16(3478+t%5)
	up := r.seq&1 == 1
	switch r.kind() {
	case kindTCP:
		f := b.tcp[:packet.EthernetHeaderLen+packet.IPv4HeaderLen+packet.TCPHeaderLen+int(r.size)]
		readdr4(f, t, cport, sport, up)
		return f
	case kindUDP4, kindTrunc:
		n := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen + int(r.size)
		f := b.udp4[:n]
		readdr4(f, t, cport, sport, up)
		binary.BigEndian.PutUint16(f[offUDPLen:], uint16(n-offUDP))
		if r.kind() == kindTrunc {
			return f[:packet.EthernetHeaderLen+12] // cut inside the IPv4 header
		}
		return f
	case kindUDP6:
		const off6 = packet.EthernetHeaderLen
		n := off6 + packet.IPv6HeaderLen + packet.UDPHeaderLen + int(r.size)
		f := b.udp6[:n]
		binary.BigEndian.PutUint16(f[off6+4:], uint16(packet.UDPHeaderLen+int(r.size)))
		src, dst := f[off6+8:off6+24], f[off6+24:off6+40]
		ports := f[off6+packet.IPv6HeaderLen:]
		if up {
			binary.BigEndian.PutUint32(src[12:], t)
			binary.BigEndian.PutUint32(dst[12:], t%200+1)
			src[4], dst[4] = 0, 1
			binary.BigEndian.PutUint16(ports[0:], cport)
			binary.BigEndian.PutUint16(ports[2:], sport)
		} else {
			binary.BigEndian.PutUint32(dst[12:], t)
			binary.BigEndian.PutUint32(src[12:], t%200+1)
			src[4], dst[4] = 1, 0
			binary.BigEndian.PutUint16(ports[0:], sport)
			binary.BigEndian.PutUint16(ports[2:], cport)
		}
		binary.BigEndian.PutUint16(ports[4:], uint16(packet.UDPHeaderLen+int(r.size)))
		return f
	default:
		return b.nonIP
	}
}

// readdr4 rewrites the IPv4 addresses, the transport ports, the total length
// and the header checksum of f for tuple t in the given direction.
func readdr4(f []byte, t uint32, cport, sport uint16, up bool) {
	ip := f[packet.EthernetHeaderLen:]
	client := [4]byte{172, byte(16 + t>>16), byte(t >> 8), byte(t)}
	server := [4]byte{198, 51, 100, byte(t%200 + 1)}
	ports := ip[packet.IPv4HeaderLen:]
	if up {
		copy(ip[12:16], client[:])
		copy(ip[16:20], server[:])
		binary.BigEndian.PutUint16(ports[0:], cport)
		binary.BigEndian.PutUint16(ports[2:], sport)
	} else {
		copy(ip[12:16], server[:])
		copy(ip[16:20], client[:])
		binary.BigEndian.PutUint16(ports[0:], sport)
		binary.BigEndian.PutUint16(ports[2:], cport)
	}
	binary.BigEndian.PutUint16(ip[2:], uint16(len(ip)))
	ip[10], ip[11] = 0, 0
	var sum uint32
	for i := 0; i < packet.IPv4HeaderLen; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i:]))
	}
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	binary.BigEndian.PutUint16(ip[10:], ^uint16(sum))
}
