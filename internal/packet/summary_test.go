package packet

import (
	"encoding/binary"
	"errors"
	"testing"

	"gamelens/internal/race"
)

// summaryFrames is FuzzSummarize's seed corpus: every frame shape the
// parser branches on (IPv4 with and without options, IPv6, UDP both ways,
// TCP with options, an unparsed transport, non-IP, an RTP-shaped payload)
// and one frame per length-field defect Decode rejects.
func summaryFrames() map[string][]byte {
	frames := peekFrames()
	frames["ipv6-udp-2"] = frame6([]byte("v6 gaming payload"))

	// An RTP-shaped video payload, server→client and client→server (the
	// second canonicalizes with Reversed set).
	src, dst := addr4(203, 0, 113, 9), addr4(10, 0, 0, 2)
	rtp := RTP{PayloadType: 96, SeqNumber: 7, Timestamp: 90000, SSRC: 0xfeed}
	body := rtp.AppendTo(nil, make([]byte, 64))
	eth := Ethernet{Dst: MAC{0xaa, 1, 2, 3, 4, 5}, Src: MAC{0xbb, 6, 7, 8, 9, 10}, Type: EtherTypeIPv4}
	for name, ep := range map[string][2]uint16{"rtp-down": {49003, 52000}, "rtp-up": {52000, 49003}} {
		a, b := src, dst
		if name == "rtp-up" {
			a, b = dst, src
		}
		u := UDP{SrcPort: ep[0], DstPort: ep[1]}
		ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: a, Dst: b}
		frames[name] = ip.AppendTo(eth.AppendTo(nil), u.AppendTo(nil, body, a, b))
	}

	// IPv4 options in front of UDP, plus Ethernet padding past TotalLength.
	u := UDP{SrcPort: 9295, DstPort: 40000}
	ipOpt := IPv4{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst, Options: []byte{1, 1, 1, 0}}
	frames["ipv4-opts-udp-padded"] = append(ipOpt.AppendTo(eth.AppendTo(nil), u.AppendTo(nil, []byte("pad"), src, dst)), 0, 0, 0, 0, 0)

	const ip4, udp4 = EthernetHeaderLen, EthernetHeaderLen + IPv4HeaderLen
	mutate := func(base string, name string, edit func(b []byte)) {
		b := append([]byte(nil), frames[base]...)
		edit(b)
		frames[name] = b
	}
	mutate("ipv4-udp", "bad-version", func(b []byte) { b[ip4] = 0x65 })
	mutate("ipv4-udp", "bad-ihl-short", func(b []byte) { b[ip4] = 0x44 })
	mutate("ipv4-udp", "bad-ihl-long", func(b []byte) { b[ip4] = 0x4f })
	mutate("ipv4-udp", "bad-total-length", func(b []byte) { binary.BigEndian.PutUint16(b[ip4+2:], 12) })
	mutate("ipv4-udp", "short-total-length", func(b []byte) { binary.BigEndian.PutUint16(b[ip4+2:], IPv4HeaderLen+3) })
	mutate("ipv4-udp", "bad-udp-length", func(b []byte) { binary.BigEndian.PutUint16(b[udp4+4:], 7) })
	mutate("ipv4-udp", "long-udp-length", func(b []byte) { binary.BigEndian.PutUint16(b[udp4+4:], 0xffff) })
	mutate("ipv4-tcp", "bad-data-offset-short", func(b []byte) { b[udp4+12] = 0x40 })
	mutate("ipv4-tcp", "bad-data-offset-long", func(b []byte) { b[udp4+12] = 0xf0 })
	mutate("ipv6-udp", "bad-version-6", func(b []byte) { b[ip4] = 0x40 })
	mutate("ipv6-udp", "short-payload-length", func(b []byte) { binary.BigEndian.PutUint16(b[ip4+4:], 5) })
	return frames
}

// checkSummarize is the differential property: Summarize errs iff Decode
// errs (with the sentinel Decode's error wraps), and otherwise yields the
// summary derived from the decode, whose Key converts to the decode's
// canonical FlowKey and back without loss.
func checkSummarize(t *testing.T, b []byte) {
	t.Helper()
	var d Decoded
	untouched := Summary{PayloadLen: -1, Reversed: true, UDP: true, RTP: true}
	got := untouched
	derr, serr := Decode(b, &d), Summarize(b, &got)
	if (derr == nil) != (serr == nil) {
		t.Fatalf("Decode err = %v, Summarize err = %v on %x", derr, serr, b)
	}
	if derr != nil {
		if !errors.Is(derr, serr) {
			t.Fatalf("Decode rejected with %v, Summarize with %v on %x", derr, serr, b)
		}
		if got != untouched {
			t.Fatalf("Summarize wrote %+v on a rejected frame %x", got, b)
		}
		return
	}
	k := d.Flow()
	want := Summary{
		Key:        TupleOf(k.Canonical()),
		PayloadLen: int32(len(d.Payload)),
		Reversed:   k != k.Canonical(),
		UDP:        d.HasUDP,
		RTP:        d.HasUDP && LooksLikeRTP(d.Payload),
	}
	if got != want {
		t.Fatalf("Summarize = %+v, Decode derives %+v on %x", got, want, b)
	}
	var via Summary
	d.SummaryInto(d.Payload, &via)
	if via != want {
		t.Fatalf("SummaryInto = %+v, want %+v on %x", via, want, b)
	}
	if got.SrcPort() != d.SrcPort() || got.DstPort() != d.DstPort() {
		t.Fatalf("ports %d->%d, Decode has %d->%d on %x", got.SrcPort(), got.DstPort(), d.SrcPort(), d.DstPort(), b)
	}
	// The tuple is the FlowKey in other clothes: nothing is lost either way.
	if back := got.Key.FlowKey(); back != k.Canonical() {
		t.Fatalf("Key.FlowKey() = %v, Decode's canonical key is %v on %x", back, k.Canonical(), b)
	}
	if back := TupleOf(k).FlowKey(); back != k {
		t.Fatalf("TupleOf(%v).FlowKey() = %v on %x", k, back, b)
	}
}

// FuzzSummarize holds the single-pass parse to the layered decode on
// arbitrary bytes. The seeds are every corpus frame cut at every length.
func FuzzSummarize(f *testing.F) {
	for _, b := range summaryFrames() {
		for n := 0; n <= len(b); n++ {
			f.Add(b[:n])
		}
	}
	f.Fuzz(checkSummarize)
}

// TestSummarizeAllocs pins both outcomes of the ingest parse at zero
// allocations: the accept path runs once per frame on the reader goroutine,
// and the reject path runs on whatever an adversary puts on the wire.
func TestSummarizeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned without -race instrumentation")
	}
	frames := summaryFrames()
	var s Summary
	for _, name := range []string{"rtp-down", "ipv4-opts-tcp", "ipv6-udp", "arp"} {
		b := frames[name]
		if n := testing.AllocsPerRun(200, func() {
			if err := Summarize(b, &s); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Summarize(%s) allocates %.1f/op, want 0", name, n)
		}
	}
	rejects := map[string]error{
		"bad-version": ErrBadVersion, "bad-ihl-long": ErrBadLength, "bad-udp-length": ErrBadLength,
		"bad-data-offset-short": ErrBadLength,
	}
	for name, want := range rejects {
		b := frames[name]
		if n := testing.AllocsPerRun(200, func() {
			if err := Summarize(b, &s); err != want {
				t.Fatalf("Summarize(%s) = %v, want the bare %v", name, err, want)
			}
		}); n != 0 {
			t.Errorf("Summarize(%s) allocates %.1f/op rejecting, want 0", name, n)
		}
	}
	cut := frames["rtp-down"][:EthernetHeaderLen+IPv4HeaderLen+3]
	if n := testing.AllocsPerRun(200, func() {
		if err := Summarize(cut, &s); err != ErrTruncated {
			t.Fatalf("Summarize(cut) = %v, want the bare ErrTruncated", err)
		}
	}); n != 0 {
		t.Errorf("Summarize allocates %.1f/op rejecting a truncated frame, want 0", n)
	}
}

func BenchmarkSummarize(b *testing.B) {
	buf := summaryFrames()["rtp-down"]
	var s Summary
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Summarize(buf, &s); err != nil {
			b.Fatal(err)
		}
	}
}
