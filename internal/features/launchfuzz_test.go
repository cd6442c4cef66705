package features

import (
	"encoding/binary"
	"sort"
	"testing"
	"time"

	"gamelens/internal/trace"
)

// fuzzGeoms are the window geometries a fuzz input's first byte picks from:
// the deployed one, a slot that does not divide the window, and many
// narrow slots.
var fuzzGeoms = [][2]time.Duration{{5 * time.Second, time.Second}, {5 * time.Second, 2 * time.Second}, {time.Second, 100 * time.Millisecond}}

// fuzzPkts decodes a fuzz input into a packet sequence. Each 6-byte record
// moves a running timestamp — forward or back by up to 16.7 s in
// microseconds, to an absolute millisecond offset from −2 s, or to a huge
// value of either sign — and carries a direction bit and a 16-bit size, so
// the mutator reaches negative, enormous and regressing timestamps as
// easily as plausible ones.
func fuzzPkts(data []byte) []trace.Pkt {
	var pkts []trace.Pkt
	var t time.Duration
	for ; len(data) >= 6; data = data[6:] {
		kind := data[0]
		val := time.Duration(data[1])<<16 | time.Duration(data[2])<<8 | time.Duration(data[3])
		switch kind & 3 {
		case 0:
			t += val * time.Microsecond
		case 1:
			t -= val * time.Microsecond
		case 2:
			t = val*time.Millisecond - 2*time.Second
		case 3:
			t = val << 39
			if kind&8 != 0 {
				t = -t
			}
		}
		dir := trace.Down
		if kind&4 != 0 {
			dir = trace.Up
		}
		pkts = append(pkts, trace.Pkt{T: t, Dir: dir, Size: int(binary.BigEndian.Uint16(data[4:]))})
	}
	return pkts
}

// fuzzRecord encodes one record of fuzzPkts' format.
func fuzzRecord(kind byte, val uint32, size uint16) []byte {
	return []byte{kind, byte(val >> 16), byte(val >> 8), byte(val), byte(size >> 8), byte(size)}
}

// checkLaunchAccumulator is the fuzz property. On whatever sequence the
// input decodes to, the accumulator (a) does not panic, (b) holds memory
// bounded by the number of packets it was given, never by a timestamp or
// size in them, and (c) yields exactly the batch reference's vector over
// the packets its contract says it counts, in time order: the downstream
// ones inside the slot-aligned window that arrived no later than one slot
// after their slot's successor began.
func checkLaunchAccumulator(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	g := fuzzGeoms[int(data[0])%len(fuzzGeoms)]
	window, slotT := g[0], g[1]
	pkts := fuzzPkts(data[1:])
	gcfg := DefaultGroupConfig()

	var a LaunchAccumulator
	var sc LaunchScratch
	a.Reset(window, slotT, gcfg, &sc)
	a.AddPkts(pkts)
	got := a.Finish(make([]float64, NumLaunchAttrs))
	if held, limit := cap(a.slots[0])+cap(a.slots[1])+cap(sc.idx)+cap(sc.vals), 8*len(pkts)+64; held > limit {
		t.Fatalf("%d packets left %d samples of capacity allocated (limit %d)", len(pkts), held, limit)
	}

	// The contract, modelled independently: slot s is open while no packet
	// of slot s+2 or later has been counted.
	end := (window + slotT - 1) / slotT * slotT
	newest := time.Duration(0)
	var counted []trace.Pkt
	for _, p := range pkts {
		if p.Dir != trace.Down || p.T < 0 || p.T >= end {
			continue
		}
		s := p.T / slotT
		if s < newest-1 {
			continue
		}
		if s > newest {
			newest = s
		}
		counted = append(counted, p)
	}
	sort.SliceStable(counted, func(i, j int) bool { return counted[i].T < counted[j].T })
	sameAttrs(t, "fuzz input", got, refLaunchAttributes(counted, window, slotT, gcfg))
}

// FuzzLaunchAccumulator runs checkLaunchAccumulator on arbitrary inputs.
// The launch window is fed straight from capture timestamps and payload
// lengths, so it decodes untrusted input like the frame parser does. The
// seeds: an orderly launch, one with stray negative and huge timestamps,
// one delivered backwards, and one hopping between slots.
func FuzzLaunchAccumulator(f *testing.F) {
	orderly := []byte{0}
	for i := 0; i < 400; i++ {
		orderly = append(orderly, fuzzRecord(byte(i%7/6*4), 15000, uint16(1432-i%5*233))...)
	}
	f.Add(orderly)
	stray := append([]byte{1}, fuzzRecord(2, 500, 1432)...) // absolute: −1.5 s
	stray = append(stray, orderly[1:601]...)
	stray = append(stray, fuzzRecord(3, 1<<23, 700)...)  // huge
	stray = append(stray, fuzzRecord(11, 1<<23, 700)...) // huge, negative
	stray = append(stray, fuzzRecord(2, 2100, 90)...)    // back to 100 ms: past the horizon
	stray = append(stray, orderly[601:1201]...)
	f.Add(stray)
	backwards := append([]byte{2}, fuzzRecord(2, 2999, 600)...)
	for i := 0; i < 300; i++ {
		backwards = append(backwards, fuzzRecord(1, 3000, uint16(590+i%4))...)
	}
	f.Add(backwards)
	hopping := []byte{0}
	for i := 0; i < 200; i++ {
		hopping = append(hopping, fuzzRecord(2, uint32(2000+(i*7919)%6500), uint16(40+i*37%1400))...)
	}
	f.Add(hopping)
	f.Add([]byte{1})
	f.Fuzz(checkLaunchAccumulator)
}
