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
// packets for one synthetic flow at rate pps, returning the detector flow.
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
	return d.Flow(dec.Flow())
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
	if f := d.Flow(dec.Flow()); f.State != Rejected {
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

// TestTableAttach pins the entry's caller-owned slot: what Attach hangs on a
// tracked flow comes back from every later ObserveSummary of either
// direction, goes when the entry goes, and never reaches the Flow record.
func TestTableAttach(t *testing.T) {
	type session struct{ id int }
	d := NewTable[session](Config{})
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	down := packet.Summary{
		Key: packet.FlowKey{
			Src: netip.AddrFrom4([4]byte{10, 1, 1, 2}), Dst: netip.AddrFrom4([4]byte{203, 0, 113, 10}),
			SrcPort: 50000, DstPort: 49004, Proto: packet.ProtoUDP,
		},
		PayloadLen: 1200, Reversed: true, UDP: true, RTP: true,
	}
	up := down
	up.Reversed, up.PayloadLen = false, 60

	f, s := d.ObserveSummary(base, &down)
	if f == nil || s != nil || f.ServerPort != 49004 || f.DownPkts != 1 {
		t.Fatalf("first frame: flow %v, attachment %v", f, s)
	}
	mine := &session{id: 7}
	d.Attach(down.Key, mine)
	d.Attach(up.Key.Reverse(), &session{id: 8}) // not a tracked (canonical) key: no-op
	if f2, s := d.ObserveSummary(base.Add(time.Millisecond), &up); f2 != f || s != mine || f.UpPkts != 1 {
		t.Fatalf("second frame: flow %p (want %p), attachment %v, up=%d", f2, f, s, f.UpPkts)
	}
	if n := d.Expire(base.Add(time.Second)); n != 1 {
		t.Fatalf("Expire removed %d flows, want 1", n)
	}
	if f3, s := d.ObserveSummary(base.Add(2*time.Second), &down); f3 == f || s != nil {
		t.Fatalf("after expiry: reused flow record (%v) or kept attachment %v", f3 == f, s)
	}
	tcp := packet.Summary{Key: down.Key, PayloadLen: 100}
	if f, s := d.ObserveSummary(base, &tcp); f != nil || s != nil {
		t.Errorf("non-UDP summary tracked: %v %v", f, s)
	}
}
