package main

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/trace"
)

// The packet source turns gamesim sessions into a time-ordered frame feed
// without putting the generator inside the measurement: records are merged
// one chunk of packet time at a time while the clock is stopped, and a frame
// is materialised on feed by patching the per-packet fields into a
// pre-built per-flow header template — no FrameBuilder.Build (a UDP
// checksum over ~1.1 KB per packet) and no scan over flows per packet.

// epoch is packet-time zero of every workload: a multiple of the archive's
// week span since the Unix epoch, so the history workload starts on a week
// boundary.
var epoch = time.Unix(2935*7*24*3600, 0).UTC()

// Record kinds. Gaming records carry a flow index; background records carry
// a five-tuple id.
const (
	kindDown = iota
	kindUp
	kindTCP
	kindUDP4
	kindUDP6
	kindNonIP
	kindTrunc
)

// rec is one scheduled packet: its offset from epoch, its kind and flow (or
// tuple) id, its RTP payload size (transport payload size for background
// kinds) and, for gaming records, its RTP sequence number.
type rec struct {
	ts   int64
	key  uint32 // kind<<kindShift | flow or tuple id
	size uint16
	seq  uint16
}

const kindShift = 28

func mkRec(ts int64, kind uint8, id uint32, size, seq uint16) rec {
	return rec{ts: ts, key: uint32(kind)<<kindShift | id, size: size, seq: seq}
}

func (r *rec) kind() uint8 { return uint8(r.key >> kindShift) }
func (r *rec) id() uint32  { return r.key & (1<<kindShift - 1) }

// slotPlan is one native 100 ms slot reduced to what expansion needs: how
// many packets each direction carries and their (uniform) payload size.
type slotPlan struct {
	dn, un       uint16
	dsz, usz     uint16
	stepD, stepU int64
}

// launchRec is one detailed launch-window record.
type launchRec struct {
	t    int64
	size uint16
	dir  uint8
}

// sessData is one generated session in the compact form the source expands
// from: detailed launch records up to the last whole native slot inside the
// launch stage, then 100 ms slot plans — the same hand-over rule
// gamesim.Session.ExpandPackets uses.
type sessData struct {
	title     gamesim.TitleID
	launch    []launchRec
	slots     []slotPlan
	startSlot int
	// gs is the generated session itself, kept only under keepSessions: the
	// traced pass takes the inputs of its isolation loops from it.
	gs *gamesim.Session
}

const slotNs = int64(trace.SlotDuration)

func planFor(n int, totalBytes float64) (uint16, uint16, int64) {
	if n <= 0 {
		return 0, 0, 0
	}
	size := int(totalBytes / float64(n))
	if size < 40 {
		size = 40
	}
	if size > gamesim.MaxPayload {
		size = gamesim.MaxPayload
	}
	return uint16(n), uint16(size), slotNs / int64(n)
}

// compactSession reduces a generated session. cut bounds the detailed launch
// records kept (0 keeps the whole launch stage); churn flows only ever play
// their first seconds.
func compactSession(s *gamesim.Session, cut time.Duration) *sessData {
	d := &sessData{title: s.Title.ID, startSlot: int(s.LaunchEnd() / trace.SlotDuration)}
	launchCut := time.Duration(d.startSlot) * trace.SlotDuration
	if cut > 0 && cut < launchCut {
		launchCut = cut
	}
	for _, p := range s.Launch {
		if p.T >= launchCut {
			break
		}
		d.launch = append(d.launch, launchRec{t: int64(p.T), size: uint16(p.Size), dir: uint8(p.Dir)})
	}
	if cut > 0 {
		return d
	}
	d.slots = make([]slotPlan, len(s.Slots))
	for i, sl := range s.Slots {
		p := &d.slots[i]
		p.dn, p.dsz, p.stepD = planFor(int(sl.DownPkts), sl.DownBytes)
		p.un, p.usz, p.stepU = planFor(int(sl.UpPkts), sl.UpBytes)
	}
	return d
}

// Frame template offsets (Ethernet II + IPv4 without options + UDP + RTP).
const (
	offIPLen  = packet.EthernetHeaderLen + 2
	offIPSum  = packet.EthernetHeaderLen + 10
	offUDP    = packet.EthernetHeaderLen + packet.IPv4HeaderLen
	offUDPLen = offUDP + 4
	offUDPSum = offUDP + 6
	offRTP    = offUDP + packet.UDPHeaderLen
	offRTPSeq = offRTP + 2
	offRTPTS  = offRTP + 4
	hdrLen    = offRTP + packet.RTPHeaderLen
)

// tmpl is one direction's pre-built frame: full-size, with the fields that
// vary per packet left to patch. sum is the IPv4 header's ones-complement
// sum with the total-length and checksum fields zeroed.
type tmpl struct {
	buf []byte
	sum uint32
}

func (t *tmpl) init(fb *gamesim.FrameBuilder, dir trace.Direction) {
	t.buf = append(t.buf[:0], fb.Build(trace.Pkt{Dir: dir, Size: gamesim.MaxPayload})...)
	b := t.buf
	b[offIPLen], b[offIPLen+1] = 0, 0
	b[offIPSum], b[offIPSum+1] = 0, 0
	// A zero UDP checksum is legal over IPv4 ("not computed"); the program
	// under test never verifies it.
	b[offUDPSum], b[offUDPSum+1] = 0, 0
	t.sum = 0
	for i := packet.EthernetHeaderLen; i < offUDP; i += 2 {
		t.sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
}

// patch writes one packet's fields and returns the frame, which aliases the
// template and is valid until the flow's next packet in that direction.
func (t *tmpl) patch(size int, seq uint16, ts90k uint32) []byte {
	body := size - packet.RTPHeaderLen
	if body < 0 {
		body = 0
	}
	n := hdrLen + body
	h := (*[hdrLen]byte)(t.buf) // one bounds check for all the header writes
	ipLen := uint32(n - packet.EthernetHeaderLen)
	binary.BigEndian.PutUint16(h[offIPLen:], uint16(ipLen))
	sum := t.sum + ipLen
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	binary.BigEndian.PutUint16(h[offIPSum:], ^uint16(sum))
	binary.BigEndian.PutUint16(h[offUDPLen:], uint16(n-offUDP))
	binary.BigEndian.PutUint16(h[offRTPSeq:], seq)
	binary.BigEndian.PutUint32(h[offRTPTS:], ts90k)
	return t.buf[:n]
}

// gflow is one gaming-flow slot of the schedule: the session it plays, where
// its t=0 sits on the global timeline, the expansion cursor, and its frame
// templates.
type gflow struct {
	sess  *sessData
	start int64 // ns from epoch of the flow's first instant
	end   int64 // local time at which the flow goes silent
	ident int   // endpoint identity (gamesim.FlowEndpoints index)

	li       int // next launch record
	slot     int // next slot (absolute index; wraps over post-launch slots)
	kd, ku   int // next packet within the slot, per direction
	seqD     uint16
	seqU     uint16
	down, up tmpl
}

func (f *gflow) bind(sess *sessData, ident int, start int64) {
	f.sess, f.ident, f.start = sess, ident, start
	f.li, f.slot, f.kd, f.ku, f.seqD, f.seqU = 0, sess.startSlot, 0, 0, 0, 0
	fb := gamesim.NewFrameBuilder(endpoints(ident))
	f.down.init(fb, trace.Down)
	f.up.init(fb, trace.Up)
}

// subscriberPool is how many client addresses the gaming flows come from.
// Flow identities beyond it reuse an address on a new port, as a household's
// next session does, so the per-subscriber state the sinks keep stops
// growing once every address has been seen.
const subscriberPool = 1024

// endpoints gives flow identity ident its wire identities: one GeForce NOW
// server port, client ident%subscriberPool, a client port that makes the
// five-tuple unique.
func endpoints(ident int) gamesim.Endpoints {
	ep := gamesim.DefaultEndpoints()
	sub := ident % subscriberPool
	ep.ClientAddr = netip.AddrFrom4([4]byte{10, 20, byte(sub >> 8), byte(sub)})
	ep.ClientPort = uint16(50000 + ident/subscriberPool%15000)
	ep.SSRCDown += uint32(2 * ident)
	ep.SSRCUp += uint32(2 * ident)
	return ep
}

// flowKey is the flow's canonical five-tuple, as the pipeline reports it.
func flowKey(ident int) packet.FlowKey {
	ep := endpoints(ident)
	return packet.FlowKey{
		Src: ep.ServerAddr, Dst: ep.ClientAddr,
		SrcPort: ep.ServerPort, DstPort: ep.ClientPort,
		Proto: packet.ProtoUDP,
	}.Canonical()
}

// emit appends the flow's records with global time in [t0, t1) to out.
func (f *gflow) emit(out []rec, id uint32, t0, t1 int64) []rec {
	hi := t1 - f.start // local upper bound
	if hi > f.end {
		hi = f.end
	}
	if hi <= 0 {
		return out
	}
	s := f.sess
	for f.li < len(s.launch) && s.launch[f.li].t < hi {
		l := s.launch[f.li]
		f.li++
		seq := &f.seqD
		if l.dir == kindUp {
			seq = &f.seqU
		}
		*seq++
		out = append(out, mkRec(f.start+l.t, l.dir, id, l.size, *seq))
	}
	if len(s.slots) == 0 {
		return out
	}
	post := len(s.slots) - s.startSlot
	for {
		base := int64(f.slot) * slotNs
		if base >= hi {
			return out
		}
		p := &s.slots[s.startSlot+(f.slot-s.startSlot)%post]
		// Two evenly spaced sequences merged by time, down first on ties.
		for f.kd < int(p.dn) || f.ku < int(p.un) {
			td, tu := int64(1)<<62, int64(1)<<62
			if f.kd < int(p.dn) {
				td = base + int64(f.kd)*p.stepD + p.stepD/2
			}
			if f.ku < int(p.un) {
				tu = base + int64(f.ku)*p.stepU + p.stepU/2
			}
			if td <= tu {
				if td >= hi {
					return out
				}
				f.kd++
				f.seqD++
				out = append(out, mkRec(f.start+td, kindDown, id, p.dsz, f.seqD))
			} else {
				if tu >= hi {
					return out
				}
				f.ku++
				f.seqU++
				out = append(out, mkRec(f.start+tu, kindUp, id, p.usz, f.seqU))
			}
		}
		f.slot++
		f.kd, f.ku = 0, 0
	}
}

// sourceConfig shapes a packet workload's schedule.
type sourceConfig struct {
	flows      int           // concurrent gaming-flow slots
	sessions   int           // distinct generated sessions the slots draw from
	sessionLen time.Duration // generated session length (post-launch slots loop)
	// churn, when set, makes each slot play only the first churnPlay of a
	// session, fall silent for the rest of churnPeriod, and restart on a
	// fresh five-tuple with the next session round-robin.
	churnPlay, churnPeriod time.Duration
	// bgPerChunk background packets over bgTuples five-tuples are mixed
	// into every chunk from chunk bgFromChunk on (0 = none).
	bgPerChunk, bgTuples, bgFromChunk int
	chunkShift                        uint // a chunk is 1<<chunkShift ns of packet time
	keepSessions                      bool // retain the generated sessions (traced runs)
}

// source is the deterministic schedule generator of one packet workload.
type source struct {
	cfg    sourceConfig
	seed   int64
	starts []int64 // non-churn: each flow's start offset
	sess   []*sessData
	flows  []gflow
	cycle  []int // churn: the cycle each slot is currently playing
	bg     *background

	chunk   int64 // next chunk index
	recs    []rec
	scratch []rec
	counts  []int32

	// Totals over everything built so far.
	Packets   int64
	Truncated int64  // injected undecodable frames
	hash      uint64 // FNV-1a over the schedule, see Hash
}

const sortBuckets = 1 << 16

// newSource generates the sessions and binds the flow slots. Everything is
// a function of seed.
func newSource(cfg sourceConfig, seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	s := &source{cfg: cfg, seed: seed, counts: make([]int32, sortBuckets+1)}
	if cfg.churnPeriod > 0 && cfg.churnPeriod-cfg.churnPlay <= time.Duration(1)<<cfg.chunkShift {
		panic("bench: churn silent gap must exceed one chunk")
	}
	// Both chunk buffers are sized up front (3000 pkts/s per flow is above
	// any catalog stream), so the schedule never allocates mid-run.
	est := int(float64(cfg.flows)*3000*float64(int64(1)<<cfg.chunkShift)/1e9) + cfg.bgPerChunk + 1024
	s.recs, s.scratch = make([]rec, 0, est), make([]rec, 0, est)
	cut := cfg.churnPlay
	for i := 0; i < cfg.sessions; i++ {
		// Round-robin over the catalog, so every title is equally present.
		id := gamesim.TitleID(i % int(gamesim.NumTitles))
		gs := gamesim.Generate(id, gamesim.RandomConfig(rng), gamesim.LabNetwork(),
			seed*1000003+int64(i)*977, gamesim.Options{SessionLength: cfg.sessionLen})
		d := compactSession(gs, cut)
		if cfg.keepSessions {
			d.gs = gs
		}
		s.sess = append(s.sess, d)
	}
	s.flows = make([]gflow, cfg.flows)
	s.cycle = make([]int, cfg.flows)
	s.starts = make([]int64, cfg.flows)
	for i := range s.starts {
		s.starts[i] = rng.Int63n(2e9) // established flows begin within the first two seconds
	}
	if cfg.bgPerChunk > 0 {
		s.bg = newBackground(cfg.bgTuples, seed)
	}
	s.reset()
	return s
}

// reset rewinds the schedule to chunk 0. The same chunks come out again, so
// a second consumer (the reference pipeline, the traced pass) sees exactly
// what the first saw.
func (s *source) reset() {
	s.chunk, s.Packets, s.Truncated = 0, 0, 0
	s.hash = 14695981039346656037
	for i := range s.flows {
		f := &s.flows[i]
		if s.cfg.churnPeriod > 0 {
			f.end = int64(s.cfg.churnPlay)
			f.sess = nil // unbound until its first life
			s.cycle[i] = -1
			continue
		}
		f.end = 1 << 62
		f.bind(s.sess[i%len(s.sess)], i, s.starts[i])
	}
	if s.bg != nil {
		s.bg.reset(s.seed)
	}
}

// truth returns the ground-truth title of the flow with the given endpoint
// identity.
func (s *source) truth(ident int) gamesim.TitleID {
	return s.sess[ident%len(s.sess)].title
}

// nextChunk builds the next chunk of the schedule in timestamp order (ties
// by flow, then per-flow order). The returned slice is reused by the next
// call. The caller's clock is stopped while this runs.
func (s *source) nextChunk() []rec {
	shift := s.cfg.chunkShift
	t0 := s.chunk << shift
	t1 := t0 + 1<<shift
	s.chunk++
	out := s.recs[:0]
	for i := range s.flows {
		f := &s.flows[i]
		if period := int64(s.cfg.churnPeriod); period > 0 {
			// Slot i's k-th life starts at i*period/flows + k*period on a
			// fresh five-tuple. A chunk is shorter than the silent gap, so
			// the previous life has been emitted in full by then.
			phase := int64(i) * period / int64(len(s.flows))
			if last := t1 - 1 - phase; last >= 0 {
				if k := int(last / period); k > s.cycle[i] {
					s.cycle[i] = k
					ident := k*len(s.flows) + i
					f.bind(s.sess[ident%len(s.sess)], ident, phase+int64(k)*period)
				}
			}
			if s.cycle[i] < 0 {
				continue
			}
		}
		out = f.emit(out, uint32(i), t0, t1)
	}
	withBg := s.bg != nil && s.chunk > int64(s.cfg.bgFromChunk)
	if withBg {
		out = s.bg.emit(out, s.cfg.bgPerChunk, t0, shift)
	}
	out = s.sortChunk(out, t0)
	if withBg {
		// Exactly one frame in a thousand is cut short inside its IP header.
		n := s.Packets
		want := false
		for i := range out {
			n++
			if n%1000 == 0 {
				want = true
			}
			if want && out[i].kind() == kindUDP4 {
				out[i].key = kindTrunc<<kindShift | out[i].id()
				s.Truncated++
				want = false
			}
		}
	}
	for i := range out {
		r := &out[i]
		h := s.hash
		for _, w := range [3]uint64{uint64(r.ts), uint64(r.key), uint64(r.size)<<16 | uint64(r.seq)} {
			h = (h ^ w) * 1099511628211
		}
		s.hash = h
	}
	s.Packets += int64(len(out))
	s.recs = out
	return out
}

// sortChunk orders recs by timestamp with a stable bucket sort: records
// scatter into 2^16 time buckets in arrival (flow-major) order, and each
// small bucket is insertion-sorted by timestamp alone, so equal timestamps
// keep flow order and a flow's own order.
func (s *source) sortChunk(recs []rec, t0 int64) []rec {
	bshift := s.cfg.chunkShift - 16
	counts := s.counts
	for i := range counts {
		counts[i] = 0
	}
	for i := range recs {
		counts[(recs[i].ts-t0)>>bshift+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	if cap(s.scratch) < len(recs) {
		s.scratch = make([]rec, len(recs))
	}
	dst := s.scratch[:len(recs)]
	for i := range recs {
		b := (recs[i].ts - t0) >> bshift
		dst[counts[b]] = recs[i]
		counts[b]++
	}
	// counts[b] is now the end of bucket b.
	lo := 0
	for b := 0; b < sortBuckets; b++ {
		hi := int(counts[b])
		for i := lo + 1; i < hi; i++ {
			r := dst[i]
			j := i
			for j > lo && dst[j-1].ts > r.ts {
				dst[j] = dst[j-1]
				j--
			}
			dst[j] = r
		}
		lo = hi
	}
	s.scratch = recs[:0]
	return dst
}

// Hash identifies the schedule built so far: equal seeds give equal hashes,
// different seeds different ones.
func (s *source) Hash() uint64 { return s.hash }

// frame materialises one record. The frame aliases a template and is valid
// until the same flow (or background kind) is materialised again.
func (s *source) frame(r *rec) []byte {
	if k := r.kind(); k <= kindUp {
		f := &s.flows[r.id()]
		ts90k := uint32((r.ts - f.start) * 90000 / int64(time.Second))
		if k == kindDown {
			return f.down.patch(int(r.size), r.seq, ts90k)
		}
		return f.up.patch(int(r.size), r.seq, ts90k)
	}
	return s.bg.frame(r)
}

// feed materialises every record of a chunk and hands it to handle with its
// capture timestamp.
func (s *source) feed(recs []rec, handle func(ts time.Time, frame []byte)) {
	for i := range recs {
		r := &recs[i]
		handle(epoch.Add(time.Duration(r.ts)), s.frame(r))
	}
}
