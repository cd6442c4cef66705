package flowdetect

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/pcapio"
)

// feedStream replays count downstream video packets and count/20 upstream
// packets for one synthetic flow at rate pps, returning the detector's
// account of the flow (nil if it tracks none).
func feedStream(t *testing.T, d *Detector, serverPort uint16, payloadSize, count int, rtpValid bool) *Flow {
	t.Helper()
	server := netip.AddrFrom4([4]byte{203, 0, 113, 10})
	client := netip.AddrFrom4([4]byte{10, 1, 1, 2})
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	payload := make([]byte, payloadSize)
	var rtp packet.RTP
	if rtpValid {
		rtp = packet.RTP{PayloadType: 96, SSRC: 1}
	}
	step := time.Second / 1000 // 1000 pps -> plenty of Mbps at 1200 B
	var dec packet.Decoded
	for i := 0; i < count; i++ {
		ts := base.Add(time.Duration(i) * step)
		var pl []byte
		if rtpValid {
			rtp.SeqNumber++
			pl = rtp.AppendTo(nil, payload[:payloadSize-packet.RTPHeaderLen])
		} else {
			pl = payload // zeroed bytes: version 0, not RTP
		}
		dec = packet.Decoded{HasIP4: true, HasUDP: true}
		dec.IP4.Src, dec.IP4.Dst = server, client
		dec.UDP.SrcPort, dec.UDP.DstPort = serverPort, 50000
		d.Observe(ts, &dec, pl)
		if i%20 == 0 {
			up := packet.Decoded{HasIP4: true, HasUDP: true}
			up.IP4.Src, up.IP4.Dst = client, server
			up.UDP.SrcPort, up.UDP.DstPort = 50000, serverPort
			inRTP := packet.RTP{PayloadType: 97, SeqNumber: uint16(i), SSRC: 2}
			d.Observe(ts, &up, inRTP.AppendTo(nil, make([]byte, 60)))
		}
	}
	f, ok := d.Lookup(dec.Flow())
	if !ok {
		return nil
	}
	return &f
}

func TestDetectsGeForceNOWStream(t *testing.T) {
	d := New(Config{})
	f := feedStream(t, d, 49004, 1200, 400, true)
	if f == nil {
		t.Fatal("flow not tracked")
	}
	if f.State != Gaming {
		t.Fatalf("state = %v, want gaming (flow: %v)", f.State, f)
	}
	if f.Platform != GeForceNOW {
		t.Errorf("platform = %v, want GeForce NOW", f.Platform)
	}
	if len(d.GamingFlows()) != 1 {
		t.Errorf("%d gaming flows", len(d.GamingFlows()))
	}
}

func TestPlatformPortMapping(t *testing.T) {
	for _, tc := range []struct {
		port uint16
		want Platform
	}{
		{49003, GeForceNOW}, {49006, GeForceNOW},
		{9002, XboxCloud}, {9999, AmazonLuna}, {9296, PSCloudStreaming},
		{8080, PlatformUnknown},
	} {
		if got := platformFor(tc.port); got != tc.want {
			t.Errorf("port %d -> %v, want %v", tc.port, got, tc.want)
		}
	}
}

func TestRejectsSmallPayloadFlow(t *testing.T) {
	d := New(Config{})
	f := feedStream(t, d, 49004, 200, 400, true) // VoIP-sized packets
	if f.State != Rejected {
		t.Errorf("state = %v, want rejected for 200 B payloads", f.State)
	}
}

func TestRejectsNonRTPFlow(t *testing.T) {
	d := New(Config{})
	f := feedStream(t, d, 49004, 1200, 400, false)
	if f.State != Rejected {
		t.Errorf("state = %v, want rejected for non-RTP payloads", f.State)
	}
}

func TestRejectsSlowFlow(t *testing.T) {
	d := New(Config{MinDownPkts: 50})
	server := netip.AddrFrom4([4]byte{203, 0, 113, 10})
	client := netip.AddrFrom4([4]byte{10, 1, 1, 2})
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	rtp := packet.RTP{PayloadType: 96}
	var dec packet.Decoded
	for i := 0; i < 60; i++ {
		rtp.SeqNumber++
		pl := rtp.AppendTo(nil, make([]byte, 1100))
		dec = packet.Decoded{HasIP4: true, HasUDP: true}
		dec.IP4.Src, dec.IP4.Dst = server, client
		dec.UDP.SrcPort, dec.UDP.DstPort = 49004, 50000
		// 10 pps: ~0.1 Mbps, below the 1.5 Mbps floor.
		d.Observe(base.Add(time.Duration(i)*100*time.Millisecond), &dec, pl)
	}
	if f, _ := d.Lookup(dec.Flow()); f.State != Rejected {
		t.Errorf("state = %v, want rejected for 0.1 Mbps flow", f.State)
	}
}

func TestUnknownPortPolicy(t *testing.T) {
	d := New(Config{})
	f := feedStream(t, d, 23456, 1200, 400, true)
	if f.State != Gaming || f.Platform != PlatformUnknown {
		t.Errorf("default policy: state %v platform %v, want gaming/unknown", f.State, f.Platform)
	}
	strict := New(Config{RequireKnownPort: true})
	f = feedStream(t, strict, 23456, 1200, 400, true)
	if f.State != Rejected {
		t.Errorf("strict policy: state = %v, want rejected", f.State)
	}
}

func TestIgnoresTCP(t *testing.T) {
	d := New(Config{})
	dec := packet.Decoded{HasIP4: true, HasTCP: true}
	if st := d.Observe(time.Now(), &dec, []byte("GET /")); st != Rejected {
		t.Errorf("TCP observe = %v", st)
	}
	if d.NumFlows() != 0 {
		t.Error("TCP flow tracked")
	}
}

func TestExpire(t *testing.T) {
	d := New(Config{})
	feedStream(t, d, 49004, 1200, 250, true)
	if d.NumFlows() != 1 {
		t.Fatalf("%d flows", d.NumFlows())
	}
	if n := d.Expire(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)); n != 1 {
		t.Errorf("expired %d flows, want 1", n)
	}
	if d.NumFlows() != 0 {
		t.Error("flow survived expiry")
	}
}

func TestDetectorOnGeneratedPCAP(t *testing.T) {
	// End-to-end: generate a session, write it as PCAP, decode frames, and
	// verify the detector flags exactly one GeForce NOW gaming flow.
	cfg := gamesim.ClientConfig{Device: gamesim.DevicePC, OS: gamesim.OSWindows, Resolution: gamesim.ResFHD, FPS: 60}
	sess := gamesim.Generate(gamesim.CSGO, cfg, gamesim.LabNetwork(), 5, gamesim.Options{SessionLength: 3 * time.Minute})
	var buf bytes.Buffer
	if err := sess.WritePCAP(&buf, time.Date(2025, 2, 1, 0, 0, 0, 0, time.UTC), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{})
	var dec packet.Decoded
	n := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := packet.Decode(rec.Data, &dec); err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		d.Observe(rec.Timestamp, &dec, dec.Payload)
		n++
	}
	if n < 1000 {
		t.Fatalf("only %d frames in 20 s capture", n)
	}
	flows := d.GamingFlows()
	if len(flows) != 1 {
		t.Fatalf("%d gaming flows, want 1", len(flows))
	}
	if flows[0].Platform != GeForceNOW {
		t.Errorf("platform = %v", flows[0].Platform)
	}
}

// gamingSummaries returns the two directions of one flow that meets the
// streaming signature when fed fast enough: 1200-byte RTP down from a
// GeForce NOW port, 60-byte up.
func gamingSummaries(client byte) (down, up packet.Summary) {
	down = packet.Summary{
		Key: packet.TupleOf(packet.FlowKey{
			Src: netip.AddrFrom4([4]byte{10, 1, 1, client}), Dst: netip.AddrFrom4([4]byte{203, 0, 113, 10}),
			SrcPort: 50000, DstPort: 49004, Proto: packet.ProtoUDP,
		}),
		PayloadLen: 1200, Reversed: true, UDP: true, RTP: true,
	}
	up = down
	up.Reversed, up.PayloadLen = false, 60
	return down, up
}

// TestTableAttach pins the caller-owned slot beside a Gaming flow: nothing
// hangs on a flow before its verdict, what Attach hangs afterwards comes back
// from every later ObserveSummary of either direction with the same Flow,
// goes when the entry goes, and never reaches the Flow record.
func TestTableAttach(t *testing.T) {
	type session struct{ id int }
	d := NewTable[session](Config{MinDownPkts: 3})
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	down, up := gamingSummaries(2)
	key := down.Key.FlowKey()
	mine := &session{id: 7}

	if st, f, s := d.ObserveSummary(base, &down); st != Pending || f != nil || s != nil {
		t.Fatalf("first frame: %v, flow %v, attachment %v", st, f, s)
	}
	d.Attach(key, mine) // no verdict yet: nothing to hang it on
	d.ObserveSummary(base.Add(time.Millisecond), &up)
	d.ObserveSummary(base.Add(2*time.Millisecond), &down)
	st, f, s := d.ObserveSummary(base.Add(3*time.Millisecond), &down)
	if st != Gaming || f == nil || s != nil {
		t.Fatalf("verdict frame: %v, flow %v, attachment %v", st, f, s)
	}
	if f.Key != key || f.ServerPort != 49004 || f.DownPkts != 3 || f.UpPkts != 1 || f.Platform != GeForceNOW ||
		f.FirstSeen != base || f.LastSeen != base.Add(3*time.Millisecond) {
		t.Fatalf("the verdict's Flow does not carry the record's account: %+v", f)
	}

	d.Attach(key, mine)
	d.Attach(key.Reverse(), &session{id: 8}) // not a tracked (canonical) key: no-op
	if st, f2, s := d.ObserveSummary(base.Add(4*time.Millisecond), &up); st != Gaming || f2 != f || s != mine || f.UpPkts != 2 {
		t.Fatalf("next frame: %v, flow %p (want %p), attachment %v, up=%d", st, f2, f, s, f.UpPkts)
	}
	if n := d.Expire(base.Add(time.Second)); n != 1 {
		t.Fatalf("Expire removed %d flows, want 1", n)
	}
	if st, f3, s := d.ObserveSummary(base.Add(2*time.Second), &down); st != Pending || f3 != nil || s != nil {
		t.Fatalf("after expiry: %v, flow %v, attachment %v; want a fresh pending record", st, f3, s)
	}
	if f.DownPkts != 3 || len(d.GamingFlows()) != 0 {
		t.Errorf("the expired flow's Flow was touched (down=%d) or is still listed", f.DownPkts)
	}
	tcp := packet.Summary{Key: down.Key, PayloadLen: 100}
	if st, f, s := d.ObserveSummary(base, &tcp); st != Rejected || f != nil || s != nil {
		t.Errorf("non-UDP summary tracked: %v %v %v", st, f, s)
	}
}

// TestLateFrameKeepsLastSeen pins the table's monotone last-seen: a frame
// delivered late is counted but cannot age its flow — Pending, Rejected or
// Gaming — toward an expiry it has not earned.
func TestLateFrameKeepsLastSeen(t *testing.T) {
	d := New(Config{MinDownPkts: 3})
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	down, _ := gamingSummaries(2)
	slow, _ := gamingSummaries(3) // the same frames a second apart: rejected as too slow
	for i := 0; i < 4; i++ {
		d.ObserveSummary(base.Add(10*time.Second+time.Duration(i)*time.Millisecond), &down)
		d.ObserveSummary(base.Add(time.Duration(7+i)*time.Second), &slow)
	}
	d.ObserveSummary(base, &down) // both delivered ten seconds late
	d.ObserveSummary(base, &slow)
	g, _ := d.Lookup(down.Key.FlowKey())
	r, _ := d.Lookup(slow.Key.FlowKey())
	if g.State != Gaming || g.DownPkts != 5 || !g.LastSeen.Equal(base.Add(10*time.Second+3*time.Millisecond)) {
		t.Errorf("gaming flow after a late frame: %v down=%d last=%v", g.State, g.DownPkts, g.LastSeen)
	}
	if r.State != Rejected || !r.LastSeen.Equal(base.Add(10*time.Second)) {
		t.Errorf("rejected flow after a late frame: %v last=%v", r.State, r.LastSeen)
	}
	if n := d.Expire(base.Add(5 * time.Second)); n != 0 || d.NumFlows() != 2 {
		t.Errorf("a late frame cost %d flows their entries", n)
	}
}
