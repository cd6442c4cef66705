package flowdetect

import (
	"hash/maphash"
	"math"
	"slices"
	"time"

	"gamelens/internal/packet"
)

// Detector tracks flows and applies the gaming signature.
type Detector = Table[struct{}]

// New returns a detector with the given configuration.
func New(cfg Config) *Detector { return NewTable[struct{}](cfg) }

// Table is the detector: a flat, pointer-free flow table with one
// caller-owned pointer per Gaming flow.
//
// Nearly every five-tuple at a tap is not a game stream, so what a tracked
// tuple costs is a record — the 40-byte key, two instants and the signature's
// evidence counters, 96 bytes with nothing in it for the garbage collector to
// follow — in a dense chunked array, found through an open-addressed index of
// 8-byte words (32 hash bits, the record's number). A lookup is the index
// word and the record; Expire is a linear walk of the array; a removal moves
// the last record into the hole, so the array stays dense and its order
// depends on the sequence of arrivals and removals alone, never on the hash.
//
// The hash is hash/maphash under a seed drawn per table and never leaves it.
// Five-tuples are chosen by whoever sends the packets: with a fixed or
// guessable mix, one sender could pick tuples that all probe the same chain
// and make every lookup walk it. (Shard routing keeps its own fixed hash —
// it has to agree across processes; a skewed shard is visible and costs
// balance, not a quadratic lookup.)
//
// A public Flow exists only for flows judged Gaming. The verdict allocates it
// from the record's counters, and from then on the Flow is the live account
// the packet path updates and reports keep; the record only keeps the flow's
// place and its last-seen instant. Beside the Flow sits the caller's *S
// (Attach), handed back by every later ObserveSummary, so a caller that
// keeps per-flow state of its own (the pipeline's sessions) reaches it with
// the detector's lookup. The Flow never points at S, so a report that
// retains a *Flow past eviction retains nothing else.
type Table[S any] struct {
	cfg  Config
	seed maphash.Seed

	// index is the open-addressed part: a power-of-two run of words, each 0
	// (empty) or tag<<32 | record number + 1. A key's tag is the high half
	// of its hash and its home slot is tag & (len-1), so the index regrows
	// and deletes from its own words, without rehashing a key. Linear
	// probing, backward-shift deletion, never more than three quarters full.
	index []uint64
	// chunks holds records 0..n-1. Only the first chunk is ever short: it
	// doubles from firstChunk to chunkSize records, so a tap with a few
	// hundred flows does not pay for a thousand, and every later chunk is
	// whole, so growth never copies more than one chunk.
	chunks   [][]record
	n        uint32 // records in use
	capacity uint32 // records the chunks hold

	// gaming holds the Gaming flows' public halves, indexed by record.gaming;
	// gamingFree lists its vacated entries for reuse.
	gaming     []gamingFlow[S]
	gamingFree []uint32
}

// record is one tracked five-tuple. It counts until its verdict: a Rejected
// record keeps the evidence it was rejected on, a Gaming one hands its
// counters to the Flow; either way only last moves afterwards.
type record struct {
	key                        packet.Tuple
	first, last                int64 // Unix ns
	downBytes, upBytes         int64
	downPkts, upPkts, rtpValid uint32
	gaming                     uint32 // entry in Table.gaming once state is Gaming
	serverPort                 uint16
	state                      uint8
}

type gamingFlow[S any] struct {
	flow *Flow
	sess *S
}

const (
	chunkBits  = 10
	chunkSize  = 1 << chunkBits
	firstChunk = 16
	minIndex   = 32
)

// NewTable returns a detector whose Gaming entries can each carry a *S.
func NewTable[S any](cfg Config) *Table[S] {
	return &Table[S]{cfg: cfg.withDefaults(), seed: maphash.MakeSeed(), index: make([]uint64, minIndex)}
}

// Observe feeds one decoded frame with its capture timestamp and transport
// payload. It returns the flow's state after the update. Non-UDP and non-IP
// frames are ignored (state Rejected).
func (t *Table[S]) Observe(ts time.Time, dec *packet.Decoded, payload []byte) State {
	var s packet.Summary
	dec.SummaryInto(payload, &s)
	st, _, _ := t.ObserveSummary(ts, &s)
	return st
}

// ObserveSummary feeds one frame summary with its capture timestamp and
// returns the flow's state after the update — and, for a Gaming flow, its
// Flow with whatever Attach hung beside it. Non-UDP frames are ignored
// (Rejected, untracked).
//
// A flow's last-seen instant never moves backwards: a frame delivered late
// counts, but cannot age the flow toward an expiry it has not earned.
//
//gamelens:noalloc
func (t *Table[S]) ObserveSummary(ts time.Time, s *packet.Summary) (State, *Flow, *S) {
	if !s.UDP {
		return Rejected, nil, nil
	}
	now := ts.UnixNano()
	tag := t.tag(&s.Key)
	slot, r := t.find(&s.Key, tag)
	if r == nil {
		r = t.insert(&s.Key, tag, slot) //gamelens:alloc-ok chunk and index growth, amortized over the records they hold
		r.first, r.last = now, now
		r.serverPort = knownServerPort(s.SrcPort(), s.DstPort())
	}
	late := now <= r.last
	if !late {
		r.last = now
	}
	if State(r.state) == Rejected {
		return Rejected, nil, nil
	}
	down := s.SrcPort() == r.serverPort
	if State(r.state) == Gaming {
		g := &t.gaming[r.gaming]
		f := g.flow
		if !late {
			f.LastSeen = ts
		}
		if down {
			f.DownPkts++
			f.DownBytes += int64(s.PayloadLen)
			f.RTPSeen++
			if s.RTP {
				f.RTPValid++
			}
		} else {
			f.UpPkts++
			f.UpBytes += int64(s.PayloadLen)
		}
		return Gaming, f, g.sess
	}
	if !down {
		if r.upPkts < math.MaxUint32 { // a one-way flow can stay Pending for good
			r.upPkts++
		}
		r.upBytes += int64(s.PayloadLen)
		return Pending, nil, nil
	}
	r.downPkts++
	r.downBytes += int64(s.PayloadLen)
	if s.RTP {
		r.rtpValid++
	}
	if int(r.downPkts) < t.cfg.MinDownPkts {
		return Pending, nil, nil
	}
	if !t.judge(r) {
		r.state = uint8(Rejected)
		return Rejected, nil, nil
	}
	f := t.promote(r, ts, now) //gamelens:alloc-ok the verdict's Flow, once per gaming flow
	return Gaming, f, nil
}

// judge applies the signature once enough downstream evidence exists.
func (t *Table[S]) judge(r *record) bool {
	if t.cfg.RequireKnownPort && platformFor(r.serverPort) == PlatformUnknown {
		return false
	}
	return meanPayload(r.downBytes, int(r.downPkts)) >= minMeanPayload &&
		downMbps(r.downBytes, time.Duration(r.last-r.first)) >= minDownMbps &&
		float64(r.rtpValid)/float64(r.downPkts) >= minRTPValidFrac
}

// promote gives a record just judged Gaming its public Flow. The instants
// are rebuilt around the verdict frame's own timestamp, so they keep the
// capture's Location and render as the frames' own timestamps did.
func (t *Table[S]) promote(r *record, ts time.Time, now int64) *Flow {
	r.state = uint8(Gaming)
	f := new(Flow)
	*f = r.account(ts.Add(time.Duration(r.first-now)), ts.Add(time.Duration(r.last-now)))
	if n := len(t.gamingFree); n > 0 {
		r.gaming, t.gamingFree = t.gamingFree[n-1], t.gamingFree[:n-1]
		t.gaming[r.gaming].flow = f
	} else {
		r.gaming = uint32(len(t.gaming))
		t.gaming = append(t.gaming, gamingFlow[S]{flow: f})
	}
	return f
}

// account renders what the record holds as a Flow, between the given
// renderings of its two instants.
func (r *record) account(first, last time.Time) Flow {
	f := Flow{
		Key:        r.key.FlowKey(),
		State:      State(r.state),
		ServerPort: r.serverPort,
		DownPkts:   int(r.downPkts),
		UpPkts:     int(r.upPkts),
		DownBytes:  r.downBytes,
		UpBytes:    r.upBytes,
		RTPValid:   int(r.rtpValid),
		RTPSeen:    int(r.downPkts),
		FirstSeen:  first,
		LastSeen:   last,
	}
	if f.State == Gaming {
		f.Platform = platformFor(r.serverPort)
	}
	return f
}

// Attach hangs sess beside the Gaming flow tracked under key (a no-op for
// any other key); every later ObserveSummary of the flow returns it until
// the flow is removed.
func (t *Table[S]) Attach(key packet.FlowKey, sess *S) {
	k := packet.TupleOf(key)
	if _, r := t.find(&k, t.tag(&k)); r != nil && State(r.state) == Gaming {
		t.gaming[r.gaming].sess = sess
	}
}

// Lookup returns a copy of the account of the flow tracked under a (possibly
// non-canonical) key: a Gaming flow's live Flow, or what a Pending or
// Rejected record holds — the evidence so far, or the evidence it was
// rejected on.
func (t *Table[S]) Lookup(key packet.FlowKey) (Flow, bool) {
	k := packet.TupleOf(key.Canonical())
	_, r := t.find(&k, t.tag(&k))
	if r == nil {
		return Flow{}, false
	}
	if State(r.state) == Gaming {
		return *t.gaming[r.gaming].flow, true
	}
	return r.account(time.Unix(0, r.first), time.Unix(0, r.last)), true
}

// GamingFlows returns all flows currently in the Gaming state, in no
// promised order.
func (t *Table[S]) GamingFlows() []*Flow {
	var out []*Flow
	for _, g := range t.gaming {
		if g.flow != nil {
			out = append(out, g.flow)
		}
	}
	return out
}

// Remove drops the tracked flow for a (possibly non-canonical) key, if any.
// The pipeline calls it as it finalizes a gaming session — eviction or
// Finish — so the detector entry is freed with the session rather than
// waiting out the idle cutoff.
func (t *Table[S]) Remove(key packet.FlowKey) {
	k := packet.TupleOf(key.Canonical())
	if slot, r := t.find(&k, t.tag(&k)); r != nil {
		t.remove(slot)
	}
}

// Reset drops every tracked flow — gaming, pending and rejected alike — and
// everything the table had grown to hold them. The pipeline calls it from
// Finish: rejected flows are never removed individually (nothing references
// them back), so only a full reset makes end-of-input actually free the
// whole filter table.
func (t *Table[S]) Reset() {
	*t = Table[S]{cfg: t.cfg, seed: t.seed, index: make([]uint64, minIndex)}
}

// Expire drops flows idle since before cutoff and returns how many were
// removed; long-running monitors call this periodically. A table left under
// a quarter full — a scan storm has passed — is rebuilt at its survivors'
// size, so what a storm grew goes back to the allocator.
func (t *Table[S]) Expire(cutoff time.Time) int {
	c := cutoff.UnixNano()
	before := t.n
	for i := uint32(0); i < t.n; {
		r := t.at(i)
		if r.last >= c {
			i++
			continue
		}
		t.remove(t.slotOf(t.tag(&r.key), i)) // the last record lands at i: look again
	}
	if t.capacity > firstChunk && t.n < t.capacity/4 {
		t.shrink()
	}
	return int(before - t.n)
}

// NumFlows returns the number of tracked flows.
func (t *Table[S]) NumFlows() int { return int(t.n) }

func (t *Table[S]) at(i uint32) *record { return &t.chunks[i>>chunkBits][i&(chunkSize-1)] }

// tag is the half of the key's hash the index keeps.
func (t *Table[S]) tag(k *packet.Tuple) uint32 {
	return uint32(maphash.Bytes(t.seed, k[:]) >> 32)
}

func word(tag, rec uint32) uint64 { return uint64(tag)<<32 | uint64(rec+1) }

// find probes for k. It returns k's record and the slot of its index word,
// or nil and the empty slot that ended the probe.
func (t *Table[S]) find(k *packet.Tuple, tag uint32) (uint32, *record) {
	mask := uint32(len(t.index) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := t.index[i]
		if w == 0 {
			return i, nil
		}
		if uint32(w>>32) == tag {
			if r := t.at(uint32(w) - 1); r.key == *k {
				return i, r
			}
		}
	}
}

// slotOf returns the slot of record rec's index word, given its key's tag.
func (t *Table[S]) slotOf(tag, rec uint32) uint32 {
	mask := uint32(len(t.index) - 1)
	i := tag & mask
	for t.index[i] != word(tag, rec) {
		i = (i + 1) & mask
	}
	return i
}

// insert appends a record for k, whose probe ended at the empty slot.
func (t *Table[S]) insert(k *packet.Tuple, tag, slot uint32) *record {
	if int(t.n) >= len(t.index)/4*3 {
		t.reindex(2 * len(t.index))
		slot, _ = t.find(k, tag)
	}
	if t.n == t.capacity {
		t.grow()
	}
	t.index[slot] = word(tag, t.n)
	r := t.at(t.n)
	*r = record{key: *k}
	t.n++
	return r
}

// grow makes room for one more record: the first chunk doubles until it is
// whole, then whole chunks are added.
func (t *Table[S]) grow() {
	switch {
	case t.capacity == 0:
		t.chunks = append(t.chunks, make([]record, firstChunk))
		t.capacity = firstChunk
	case t.capacity < chunkSize:
		t.chunks[0] = append(make([]record, 0, 2*t.capacity), t.chunks[0]...)[:2*t.capacity]
		t.capacity *= 2
	default:
		t.chunks = append(t.chunks, make([]record, chunkSize))
		t.capacity += chunkSize
	}
}

// reindex moves the index words into a fresh index of the given size.
func (t *Table[S]) reindex(size int) {
	old := t.index
	t.index = make([]uint64, size)
	mask := uint32(size - 1)
	for _, w := range old {
		if w == 0 {
			continue
		}
		i := uint32(w>>32) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = w
	}
}

// remove drops the record whose index word sits at slot, and keeps the
// record array dense by moving the last record into its place.
func (t *Table[S]) remove(slot uint32) {
	rec := uint32(t.index[slot]) - 1
	r := t.at(rec)
	if State(r.state) == Gaming {
		t.gaming[r.gaming] = gamingFlow[S]{}
		t.gamingFree = append(t.gamingFree, r.gaming)
	}

	// Backward-shift deletion: close the hole with whichever later words of
	// the probe run may legally sit there — those whose home slot is no
	// nearer to them than the hole is — so no tombstone is ever needed.
	mask := uint32(len(t.index) - 1)
	hole := slot
	for j := (hole + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := uint32(t.index[j]>>32) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole] = 0

	t.n--
	if last := t.n; rec != last {
		moved := t.at(last)
		tag := t.tag(&moved.key)
		t.index[t.slotOf(tag, last)] = word(tag, rec)
		*r = *moved
	}
}

// shrink rebuilds chunks and index at the size the records in use need.
func (t *Table[S]) shrink() {
	keep := max(1, (int(t.n)+chunkSize-1)>>chunkBits)
	t.chunks = slices.Clone(t.chunks[:keep])
	t.capacity = uint32(keep) * chunkSize
	if keep == 1 {
		t.capacity = firstChunk
		for t.capacity < t.n {
			t.capacity *= 2
		}
		if int(t.capacity) < len(t.chunks[0]) {
			t.chunks[0] = append(make([]record, 0, t.capacity), t.chunks[0][:t.n]...)[:t.capacity]
		}
	}
	size := minIndex
	for int(t.n) >= size/4*3 {
		size *= 2
	}
	t.reindex(size)
	if len(t.gamingFree) == len(t.gaming) {
		t.gaming, t.gamingFree = nil, nil
	}
}
