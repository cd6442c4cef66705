package packet

import (
	"encoding/binary"
	"net/netip"
)

// Tuple is a five-tuple as 40 plain bytes — the key the per-packet path
// carries, hashes and compares, with no pointer for the garbage collector to
// follow and no netip.Addr to build per frame:
//
//	[0:16)  source address, 16-byte form (IPv4 as ::ffff:a.b.c.d)
//	[16:32) destination address, likewise
//	[32:34) source port, big-endian
//	[34:36) destination port, big-endian
//	[36]    transport protocol
//	[37]    address kinds: source in bits 0–1, destination in bits 2–3
//	        (0 absent, 1 IPv4, 2 IPv6), so 1.2.3.4 and ::ffff:1.2.3.4 stay
//	        distinct keys and a frame without an IP layer is the zero Tuple
//	[38:40) zero
//
// It is comparable, and t[:] is the byte string to hash. FlowKey is the
// public, printable form; TupleOf and Tuple.FlowKey convert between the two
// without loss for every address a frame can carry (zones, which no frame
// has, are not kept).
type Tuple [40]byte

// Byte offsets into a Tuple.
const (
	tupSrc     = 0
	tupDst     = 16
	tupSrcPort = 32
	tupDstPort = 34
	tupProto   = 36
	tupKinds   = 37
)

// Address kinds, two bits per endpoint in Tuple[tupKinds].
const (
	kindNone = 0
	kindIP4  = 1
	kindIP6  = 2
)

// TupleOf returns k in tuple form, endpoints in k's own order.
func TupleOf(k FlowKey) Tuple {
	var t Tuple
	t[tupKinds] = putAddr(t[tupSrc:tupSrc+16], k.Src) | putAddr(t[tupDst:tupDst+16], k.Dst)<<2
	binary.BigEndian.PutUint16(t[tupSrcPort:], k.SrcPort)
	binary.BigEndian.PutUint16(t[tupDstPort:], k.DstPort)
	t[tupProto] = byte(k.Proto)
	return t
}

// putAddr writes a in 16-byte form and returns its kind.
func putAddr(dst []byte, a netip.Addr) byte {
	if !a.IsValid() {
		return kindNone
	}
	b := a.As16()
	copy(dst, b[:])
	if a.Is4() {
		return kindIP4
	}
	return kindIP6
}

// FlowKey returns t as a FlowKey, endpoints in t's own order.
func (t Tuple) FlowKey() FlowKey {
	return FlowKey{
		Src:     addrOf(t[tupSrc:tupSrc+16], t[tupKinds]&3),
		Dst:     addrOf(t[tupDst:tupDst+16], t[tupKinds]>>2&3),
		SrcPort: t.srcPort(),
		DstPort: t.dstPort(),
		Proto:   IPProto(t[tupProto]),
	}
}

func addrOf(b []byte, kind byte) netip.Addr {
	switch kind {
	case kindIP4:
		return netip.AddrFrom4([4]byte(b[12:16]))
	case kindIP6:
		return netip.AddrFrom16([16]byte(b))
	}
	return netip.Addr{}
}

func (t Tuple) srcPort() uint16 { return binary.BigEndian.Uint16(t[tupSrcPort:]) }
func (t Tuple) dstPort() uint16 { return binary.BigEndian.Uint16(t[tupDstPort:]) }

// String renders the tuple as its FlowKey does.
func (t Tuple) String() string { return t.FlowKey().String() }
