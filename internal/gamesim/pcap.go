package gamesim

import (
	"encoding/csv"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"gamelens/internal/packet"
	"gamelens/internal/pcapio"
	"gamelens/internal/trace"
)

// Wire-format conventions for exported sessions: a GeForce NOW-style RTP/UDP
// stream between a cloud server and a client behind the access gateway.
var (
	serverAddr = netip.AddrFrom4([4]byte{203, 0, 113, 10})
	clientAddr = netip.AddrFrom4([4]byte{192, 168, 1, 50})
)

const (
	// ServerPort is within NVIDIA's published GeForce NOW UDP range.
	ServerPort uint16 = 49004
	// ClientPort is an arbitrary ephemeral client port.
	ClientPort uint16 = 54321

	videoPayloadType = 96
	inputPayloadType = 97
)

// ExpandPackets converts a session into a full payload-record stream: the
// detailed launch window as-is, then packets synthesized from the 100 ms
// volumetric slots (evenly spaced within each slot, sizes matching the slot
// aggregate). limit truncates the expansion; 0 expands the whole session.
func (s *Session) ExpandPackets(limit time.Duration) []trace.Pkt {
	if limit <= 0 || limit > s.Duration() {
		limit = s.Duration()
	}
	var out []trace.Pkt
	// The launch packet view hands over to the slot view at the last whole
	// native slot inside the launch stage, so the two never overlap.
	startSlot := int(s.LaunchEnd() / trace.SlotDuration)
	launchCut := time.Duration(startSlot) * trace.SlotDuration
	for _, p := range s.Launch {
		if p.T >= limit || p.T >= launchCut {
			break
		}
		out = append(out, p)
	}
	endSlot := int(limit / trace.SlotDuration)
	if endSlot > len(s.Slots) {
		endSlot = len(s.Slots)
	}
	for i := startSlot; i < endSlot; i++ {
		sl := s.Slots[i]
		base := time.Duration(i) * trace.SlotDuration
		slotStart := len(out)
		emitEven(&out, base, trace.Down, int(sl.DownPkts), sl.DownBytes)
		emitEven(&out, base, trace.Up, int(sl.UpPkts), sl.UpBytes)
		// Interleave the directions by timestamp within the slot.
		sort.Slice(out[slotStart:], func(a, b int) bool {
			return out[slotStart+a].T < out[slotStart+b].T
		})
	}
	return out
}

// emitEven appends n packets of total bytes, evenly spaced across one native
// slot starting at base.
func emitEven(out *[]trace.Pkt, base time.Duration, dir trace.Direction, n int, totalBytes float64) {
	if n <= 0 {
		return
	}
	size := int(totalBytes / float64(n))
	if size < 40 {
		size = 40
	}
	if size > MaxPayload {
		size = MaxPayload
	}
	step := trace.SlotDuration / time.Duration(n)
	for k := 0; k < n; k++ {
		*out = append(*out, trace.Pkt{T: base + time.Duration(k)*step + step/2, Dir: dir, Size: size})
	}
}

// Endpoints names the wire identities of one exported session stream. Each
// distinct Endpoints value yields a distinct flow five-tuple, which is what
// multi-flow consumers (the sharded engine, its tests and benchmarks) need
// to keep concurrent sessions apart.
type Endpoints struct {
	ServerAddr, ClientAddr netip.Addr
	ServerPort, ClientPort uint16
	// SSRCDown / SSRCUp identify the two RTP streams.
	SSRCDown, SSRCUp uint32
}

// DefaultEndpoints returns the fixed lab identities WritePCAP uses: a
// GeForce NOW-style server streaming to one client behind the access
// gateway.
func DefaultEndpoints() Endpoints {
	return Endpoints{
		ServerAddr: serverAddr, ClientAddr: clientAddr,
		ServerPort: ServerPort, ClientPort: ClientPort,
		SSRCDown: 0x47464e01, SSRCUp: 0x47464e02,
	}
}

// FlowEndpoints derives distinct per-session identities from an index:
// clients i spread across 10.0.0.0/8 home networks, all reaching the same
// GeForce NOW server port. Useful for synthesizing multi-flow captures out
// of independent sessions.
func FlowEndpoints(i int) Endpoints {
	ep := DefaultEndpoints()
	ep.ClientAddr = netip.AddrFrom4([4]byte{10, byte(i >> 14 & 0x3f), byte(i >> 6), byte(50 + i&0x3f)})
	ep.ClientPort = uint16(50000 + i%10000)
	ep.SSRCDown += uint32(2 * i)
	ep.SSRCUp += uint32(2 * i)
	return ep
}

// FrameBuilder synthesizes the Ethernet RTP/UDP frames of one session
// stream, maintaining the per-direction RTP sequence numbers. The frame
// returned by Build aliases an internal buffer and is only valid until the
// next call, mirroring how a capture loop reuses its read buffer.
type FrameBuilder struct {
	ep             Endpoints
	seqDown, seqUp uint16
	rtpBuf, udpBuf []byte
	frameBuf       []byte
	payload        []byte
}

// NewFrameBuilder starts a frame stream between the given endpoints.
func NewFrameBuilder(ep Endpoints) *FrameBuilder {
	return &FrameBuilder{ep: ep, payload: make([]byte, MaxPayload)}
}

var (
	serverMAC = packet.MAC{0x02, 0x00, 0x5e, 0x10, 0x00, 0x01}
	clientMAC = packet.MAC{0x02, 0x00, 0x5e, 0x20, 0x00, 0x02}
)

// Build encodes one payload record as a full Ethernet frame.
func (b *FrameBuilder) Build(p trace.Pkt) []byte {
	var rtp packet.RTP
	var eth packet.Ethernet
	var ip packet.IPv4
	var udp packet.UDP
	ts90k := uint32(p.T * 90000 / time.Second)
	if p.Dir == trace.Down {
		b.seqDown++
		rtp = packet.RTP{PayloadType: videoPayloadType, SeqNumber: b.seqDown, Timestamp: ts90k, SSRC: b.ep.SSRCDown}
		eth = packet.Ethernet{Dst: clientMAC, Src: serverMAC, Type: packet.EtherTypeIPv4}
		ip = packet.IPv4{TTL: 58, Protocol: packet.ProtoUDP, Src: b.ep.ServerAddr, Dst: b.ep.ClientAddr, DontFrag: true}
		udp = packet.UDP{SrcPort: b.ep.ServerPort, DstPort: b.ep.ClientPort}
	} else {
		b.seqUp++
		rtp = packet.RTP{PayloadType: inputPayloadType, SeqNumber: b.seqUp, Timestamp: ts90k, SSRC: b.ep.SSRCUp}
		eth = packet.Ethernet{Dst: serverMAC, Src: clientMAC, Type: packet.EtherTypeIPv4}
		ip = packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: b.ep.ClientAddr, Dst: b.ep.ServerAddr, DontFrag: true}
		udp = packet.UDP{SrcPort: b.ep.ClientPort, DstPort: b.ep.ServerPort}
	}
	body := p.Size - packet.RTPHeaderLen
	if body < 0 {
		body = 0
	}
	b.rtpBuf = rtp.AppendTo(b.rtpBuf[:0], b.payload[:body])
	b.udpBuf = udp.AppendTo(b.udpBuf[:0], b.rtpBuf, ip.Src, ip.Dst)
	b.frameBuf = ip.AppendTo(eth.AppendTo(b.frameBuf[:0]), b.udpBuf)
	return b.frameBuf
}

// ReplayFlow replays one flow's payload records as decoded Ethernet frames:
// each record is rebuilt with a FrameBuilder and decoded into one reused
// buffer (the aliasing discipline of a live capture loop) before handle is
// called with start+record offset as its capture timestamp.
func ReplayFlow(pkts []trace.Pkt, ep Endpoints, start time.Time, handle func(ts time.Time, dec *packet.Decoded, payload []byte)) error {
	fb := NewFrameBuilder(ep)
	var dec packet.Decoded
	for _, p := range pkts {
		if err := packet.Decode(fb.Build(p), &dec); err != nil {
			return err
		}
		handle(start.Add(p.T), &dec, dec.Payload)
	}
	return nil
}

// ReplayFlowFrames is ReplayFlow without the decode: each rebuilt raw
// Ethernet frame goes to handle directly. The frame aliases the builder's
// internal buffer — valid only until handle returns, exactly a capture
// loop's read-buffer discipline — which is what the engine's
// Producer.HandleFrame path expects to be fed with.
func ReplayFlowFrames(pkts []trace.Pkt, ep Endpoints, start time.Time, handle func(ts time.Time, frame []byte)) {
	fb := NewFrameBuilder(ep)
	for _, p := range pkts {
		handle(start.Add(p.T), fb.Build(p))
	}
}

// PacketStream is a synthesized multi-flow capture feed: one expanded
// payload-record stream per session, each with its own endpoints and a
// staggered start so flows interleave the way they do at a gateway tap.
type PacketStream struct {
	Flows  [][]trace.Pkt
	Eps    []Endpoints
	Starts []time.Time
	// Total counts packets across all flows.
	Total int
}

// NewPacketStream expands up to limit of each session, giving flow i the
// FlowEndpoints(i) identities and start base + i*stagger.
func NewPacketStream(sessions []*Session, limit time.Duration, base time.Time, stagger time.Duration) *PacketStream {
	st := &PacketStream{}
	for i, s := range sessions {
		pkts := s.ExpandPackets(limit)
		st.Flows = append(st.Flows, pkts)
		st.Eps = append(st.Eps, FlowEndpoints(i))
		st.Starts = append(st.Starts, base.Add(time.Duration(i)*stagger))
		st.Total += len(pkts)
	}
	return st
}

// Key returns the canonical five-tuple of flow i.
func (st *PacketStream) Key(i int) packet.FlowKey {
	ep := st.Eps[i]
	return packet.FlowKey{
		Src: ep.ServerAddr, Dst: ep.ClientAddr,
		SrcPort: ep.ServerPort, DstPort: ep.ClientPort,
		Proto: packet.ProtoUDP,
	}.Canonical()
}

// Replay hands the whole stream to handle in global timestamp order.
func (st *PacketStream) Replay(handle func(ts time.Time, dec *packet.Decoded, payload []byte)) error {
	return ReplayFrames(st.Flows, st.Eps, st.Starts, handle)
}

// ReplayOne replays just flow i with its own builder and decode buffer,
// for per-flow feeder goroutines.
func (st *PacketStream) ReplayOne(i int, handle func(ts time.Time, dec *packet.Decoded, payload []byte)) error {
	return ReplayFlow(st.Flows[i], st.Eps[i], st.Starts[i], handle)
}

// ReplayOneFrames replays just flow i as raw Ethernet frames
// (ReplayFlowFrames), for per-flow feeder goroutines driving the engine's
// raw-frame ingest path.
func (st *PacketStream) ReplayOneFrames(i int, handle func(ts time.Time, frame []byte)) {
	ReplayFlowFrames(st.Flows[i], st.Eps[i], st.Starts[i], handle)
}

// ReplayFrames interleaves several per-flow payload-record streams into one
// capture feed: flow i's records are anchored at starts[i], and frames are
// handed to handle in global timestamp order (ties to the lower flow
// index), rebuilt and decoded ReplayFlow-style. It is the simulation-side
// stand-in for a multi-flow gateway capture; the sharded engine's tests and
// benchmarks replay with it.
func ReplayFrames(flows [][]trace.Pkt, eps []Endpoints, starts []time.Time, handle func(ts time.Time, dec *packet.Decoded, payload []byte)) error {
	var (
		dec   packet.Decoded
		first error
	)
	ReplayRawFrames(flows, eps, starts, func(ts time.Time, frame []byte) {
		if first != nil {
			return
		}
		if first = packet.Decode(frame, &dec); first == nil {
			handle(ts, &dec, dec.Payload)
		}
	})
	return first
}

// ReplayRawFrames is ReplayFrames without the decode: the interleaved raw
// Ethernet frames go to handle directly, each aliasing its flow's builder
// buffer until handle returns (ReplayFlowFrames's discipline).
func ReplayRawFrames(flows [][]trace.Pkt, eps []Endpoints, starts []time.Time, handle func(ts time.Time, frame []byte)) {
	builders := make([]*FrameBuilder, len(flows))
	for i := range builders {
		builders[i] = NewFrameBuilder(eps[i])
	}
	idx := make([]int, len(flows))
	for {
		best := -1
		var bestTS time.Time
		for i := range flows {
			if idx[i] >= len(flows[i]) {
				continue
			}
			ts := starts[i].Add(flows[i][idx[i]].T)
			if best < 0 || ts.Before(bestTS) {
				best, bestTS = i, ts
			}
		}
		if best < 0 {
			return
		}
		frame := builders[best].Build(flows[best][idx[best]])
		idx[best]++
		handle(bestTS, frame)
	}
}

// WritePCAP serializes the session (up to limit; 0 = all) as an Ethernet
// PCAP of RTP/UDP frames on GeForce NOW ports, the shape a capture at the
// lab's access gateway has (§3.1). start anchors the capture timestamps.
func (s *Session) WritePCAP(w io.Writer, start time.Time, limit time.Duration) error {
	pw, err := pcapio.NewWriter(w, pcapio.LinkTypeEthernet, 65535)
	if err != nil {
		return err
	}
	fb := NewFrameBuilder(DefaultEndpoints())
	for _, p := range s.ExpandPackets(limit) {
		frame := fb.Build(p)
		if err := pw.WriteRecord(start.Add(p.T), len(frame), frame); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// WriteLabelsCSV writes the ground-truth label sidecar the released dataset
// ships per PCAP (Appendix B): session metadata rows followed by one row per
// stage span.
func (s *Session) WriteLabelsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{
		{"field", "value"},
		{"title", s.Title.Name},
		{"genre", s.Title.Genre.String()},
		{"pattern", s.Title.Pattern.String()},
		{"device", s.Config.Device.String()},
		{"os", s.Config.OS.String()},
		{"software", s.Config.Software.String()},
		{"resolution", s.Config.Resolution.String()},
		{"fps", strconv.Itoa(s.Config.FPS)},
		{"stage", "start_s,end_s"},
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	for _, sp := range s.Spans {
		err := cw.Write([]string{
			sp.Stage.String(),
			fmt.Sprintf("%.3f,%.3f", sp.Start.Seconds(), sp.End.Seconds()),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPCAPPackets reads a PCAP written by WritePCAP (or any capture of a
// single cloud-game streaming flow) back into payload records relative to
// the first packet's timestamp. The downstream direction is the one sourced
// from serverPort.
func ReadPCAPPackets(r io.Reader, serverPort uint16) ([]trace.Pkt, error) {
	pr, err := pcapio.NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []trace.Pkt
	var dec packet.Decoded
	var t0 time.Time
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := packet.Decode(rec.Data, &dec); err != nil {
			continue // tolerate non-IP frames in mixed captures
		}
		if !dec.HasUDP {
			continue
		}
		if t0.IsZero() {
			t0 = rec.Timestamp
		}
		dir := trace.Up
		if dec.SrcPort() == serverPort {
			dir = trace.Down
		}
		out = append(out, trace.Pkt{
			T:    rec.Timestamp.Sub(t0),
			Dir:  dir,
			Size: len(dec.Payload),
		})
	}
	return out, nil
}
