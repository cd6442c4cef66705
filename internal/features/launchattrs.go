package features

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"gamelens/internal/trace"
)

// NumLaunchAttrs is the size of the launch attribute vector: 3 packet
// groups × (1 count metric + 8 payload-size statistics + 8 inter-arrival
// statistics) = 51, exactly the attribute set of Fig 7/Fig 9.
const NumLaunchAttrs = 51

// statNames are the eight statistical representation functions of Fig 7.
var statNames = [8]string{"sum", "mean", "median", "min", "max", "stddev", "kurtosis", "skew"}

// LaunchAttrNames returns the 51 attribute names in vector order, matching
// the Fig 9 x-axis ("full ct sum", "full sz sum", … "sparse it skew").
func LaunchAttrNames() []string {
	names := make([]string, 0, NumLaunchAttrs)
	for _, g := range [3]string{"full", "steady", "sparse"} {
		names = append(names, g+" ct sum")
		for _, s := range statNames {
			names = append(names, g+" sz "+s)
		}
		for _, s := range statNames {
			names = append(names, g+" it "+s)
		}
	}
	return names
}

// LaunchAttributes computes the 51-dimensional game-title attribute vector
// from the first window of a session's packets: packets are group-labeled
// per slot of width slotT (§4.2.1), per-slot statistics are computed for
// each group over payload sizes and inter-arrival times (§4.2.2, Fig 7),
// and the per-slot vectors are averaged over the ceil(window/slotT) slots of
// the window. Slots where a group is absent contribute zeros for that
// group, which is itself a signature (a launch segment without sparse
// packets is informative). pkts must be sorted by time.
func LaunchAttributes(pkts []trace.Pkt, window, slotT time.Duration, cfg GroupConfig) []float64 {
	return LaunchAttributesInto(make([]float64, NumLaunchAttrs), pkts, window, slotT, cfg)
}

// LaunchAttributesInto computes the 51-attribute vector into acc (length
// NumLaunchAttrs, overwritten) and returns acc: the batch form of
// LaunchAccumulator, which it feeds pkts in order and finishes.
func LaunchAttributesInto(acc []float64, pkts []trace.Pkt, window, slotT time.Duration, cfg GroupConfig) []float64 {
	var a LaunchAccumulator
	var sc LaunchScratch
	a.Reset(window, slotT, cfg, &sc)
	a.AddPkts(pkts)
	return a.Finish(acc)
}

// LaunchScratch is the working memory closing one slot needs — the
// neighbour vote's index list and one group's size and inter-arrival
// samples. Slots close one at a time, so every accumulator of one
// goroutine shares one (a pipeline keeps a single LaunchScratch however
// many flows are inside their launch window). The zero value is ready.
type LaunchScratch struct {
	idx  []int
	vals []float64
}

// reserve sizes the scratch for a slot of n packets, with headroom so a
// run of slightly larger slots does not regrow it every time.
func (sc *LaunchScratch) reserve(n int) {
	if cap(sc.idx) < n {
		n += n / 4
		sc.idx, sc.vals = make([]int, n), make([]float64, 2*n)
	}
}

// LaunchAccumulator computes the launch attribute vector incrementally
// (the package doc has the mechanism): Add takes the downstream packets as
// they arrive, only the two newest attribute slots hold samples, and
// Finish closes what is still open and scales by 1/slots.
//
// A packet that arrives after packets up to one slot width newer still
// finds its slot open and is inserted in time order, so the result is that
// of the sorted sequence (packets sharing a timestamp keep arrival order).
// A packet later than that, before the flow's first packet (T < 0) or past
// the window is ignored. When slotT does not divide window, packets
// between window and the end of the last slot still vote as neighbours in
// that slot but are not counted — what training on whole captures does.
//
// An accumulator is owned by one goroutine; Reset readies it (again) for
// one flow. The zero value must be Reset before use.
type LaunchAccumulator struct {
	window, slotT time.Duration
	end           time.Duration // slot-aligned end of the window
	nSlots        int
	cfg           GroupConfig
	sc            *LaunchScratch
	base          int             // oldest open slot; base and base+1 hold samples
	slots         [2][]LabeledPkt // slot s lives in slots[s&1], time-sorted
	sums          [NumLaunchAttrs]float64
}

// Reset readies the accumulator for one flow's launch window of the given
// geometry, keeping its sample buffers. It borrows sc until Finish.
func (a *LaunchAccumulator) Reset(window, slotT time.Duration, cfg GroupConfig, sc *LaunchScratch) {
	a.window, a.slotT, a.cfg, a.sc = window, slotT, cfg.withDefaults(), sc
	a.nSlots = int((window + slotT - 1) / slotT)
	if a.nSlots < 1 {
		a.nSlots = 1
	}
	a.end = time.Duration(a.nSlots) * slotT
	a.base = 0
	a.slots[0], a.slots[1] = a.slots[0][:0], a.slots[1][:0]
	a.sums = [NumLaunchAttrs]float64{}
}

// Done reports whether a packet at flow offset t is past the window by the
// reordering horizon, so nothing that could still arrive belongs to it:
// the moment a monitor finishes the accumulator and decides.
func (a *LaunchAccumulator) Done(t time.Duration) bool { return t >= a.end+a.slotT }

// Add takes one downstream packet at flow offset t.
//
//gamelens:noalloc
func (a *LaunchAccumulator) Add(t time.Duration, size int) {
	if t < 0 || t >= a.end {
		return
	}
	s := int(t / a.slotT)
	for s > a.base+1 {
		a.closeSlot()
	}
	if s < a.base {
		return // later than the reordering horizon: its slot has closed
	}
	buf := a.slots[s&1]
	//gamelens:alloc-ok slot buffer growth; recycled accumulators arrive warm
	buf = append(buf, LabeledPkt{T: t, Size: int32(size)})
	for i := len(buf) - 1; i > 0 && buf[i-1].T > t; i-- {
		buf[i-1], buf[i] = buf[i], buf[i-1]
	}
	a.slots[s&1] = buf
}

// AddPkts adds the downstream packets of pkts in order.
func (a *LaunchAccumulator) AddPkts(pkts []trace.Pkt) {
	for _, p := range pkts {
		if p.Dir == trace.Down {
			a.Add(p.T, p.Size)
		}
	}
}

// Finish closes the open slots and writes the attribute vector — the
// per-slot sums averaged over the window's slots — into dst (length
// NumLaunchAttrs), which it returns. The accumulator must be Reset before
// it is used again.
func (a *LaunchAccumulator) Finish(dst []float64) []float64 {
	for a.base < a.nSlots {
		a.closeSlot()
	}
	inv := 1 / float64(a.nSlots)
	for i, v := range a.sums {
		dst[i] = v * inv
	}
	return dst
}

// closeSlot folds the oldest open slot into the running sums and frees its
// buffer for slot base+2.
func (a *LaunchAccumulator) closeSlot() {
	buf := a.slots[a.base&1]
	a.slots[a.base&1] = buf[:0]
	a.base++
	if len(buf) == 0 {
		return
	}
	a.sc.reserve(len(buf)) //gamelens:alloc-ok scratch growth; warm after a pipeline's first few slots
	labelSlot(buf, a.sc.idx, a.cfg)
	for len(buf) > 0 && buf[len(buf)-1].T >= a.window {
		buf = buf[:len(buf)-1] // voted above, but outside the window
	}
	sizes, iats := a.sc.vals[:len(buf)], a.sc.vals[len(buf):2*len(buf)]
	for g := GroupFull; g <= GroupSparse; g++ {
		n := 0
		var prev time.Duration
		for i := range buf {
			p := &buf[i]
			if p.Group != g {
				continue
			}
			sizes[n] = float64(p.Size)
			if n > 0 {
				iats[n-1] = (p.T - prev).Seconds()
			}
			prev = p.T
			n++
		}
		if n == 0 {
			continue // an absent group contributes zeros
		}
		at := a.sums[int(g)*17:]
		at[0] += float64(n) // ct sum
		writeStats(at[1:9], sizes[:n])
		writeStats(at[9:17], iats[:n-1])
	}
}

// writeStats accumulates the eight representation functions of values into
// dst (sum, mean, median, min, max, stddev, kurtosis, skew). Empty input
// contributes nothing.
func writeStats(dst []float64, values []float64) {
	n := float64(len(values))
	if n == 0 {
		return
	}
	var sum float64
	minV, maxV := values[0], values[0]
	for _, v := range values {
		sum += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	mean := sum / n
	var m2, m3, m4 float64
	for _, v := range values {
		d := v - mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	m2 /= n
	m3 /= n
	m4 /= n
	std := math.Sqrt(m2)
	var skew, kurt float64
	if m2 > 1e-18 {
		skew = m3 / math.Pow(m2, 1.5)
		kurt = m4/(m2*m2) - 3 // excess kurtosis
	}
	med := minV // a constant sample (a slot's full packets) needs no selection
	if minV != maxV {
		med = median(values)
	}
	dst[0] += sum
	dst[1] += mean
	dst[2] += med
	dst[3] += minV
	dst[4] += maxV
	dst[5] += std
	dst[6] += kurt
	dst[7] += skew
}

// median returns the sample median by selection — only the middle order
// statistics are needed, not the sorted sample; it reorders values.
func median(values []float64) float64 {
	n := len(values)
	hi := selectNth(values, n/2)
	if n%2 == 1 {
		return hi
	}
	lo := values[0]
	for _, v := range values[1 : n/2] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// selectNth reorders v so that v[k] is its k-th smallest value, with
// nothing larger before it and nothing smaller after, and returns v[k]:
// quickselect around the middle element, finishing with a sort of what is
// left if an adversarial order exhausts the partitioning budget (so the
// worst case stays n log n).
func selectNth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for budget := 4 * bits.Len(uint(len(v))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(v[lo : hi+1])
			break
		}
		p := v[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for v[i] < p {
				i++
			}
			for v[j] > p {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k] // between the halves: equal to the pivot
		}
	}
	return v[k]
}

// NumVolumetricLaunchAttrs returns the size of the baseline flow-volumetric
// attribute vector for a given window and slot width: the paper's Table 3
// baseline uses the two standard attributes — packet rate and throughput —
// per time interval, here in both directions (4 per slot).
func NumVolumetricLaunchAttrs(window, slotT time.Duration) int {
	nSlots := int((window + slotT - 1) / slotT)
	if nSlots < 1 {
		nSlots = 1
	}
	return 4 * nSlots
}

// VolumetricLaunchAttrNames returns the baseline attribute names for the
// given geometry.
func VolumetricLaunchAttrNames(window, slotT time.Duration) []string {
	n := NumVolumetricLaunchAttrs(window, slotT) / 4
	names := make([]string, 0, 4*n)
	for s := 0; s < n; s++ {
		names = append(names,
			fmt.Sprintf("down rate[%d]", s), fmt.Sprintf("down tput[%d]", s),
			fmt.Sprintf("up rate[%d]", s), fmt.Sprintf("up tput[%d]", s))
	}
	return names
}

// VolumetricLaunchAttributes computes the standard flow-volumetric baseline
// of Table 3 from the same window: per-slot packet counts and byte volumes
// in each direction, in slot order.
func VolumetricLaunchAttributes(pkts []trace.Pkt, window, slotT time.Duration) []float64 {
	nSlots := NumVolumetricLaunchAttrs(window, slotT) / 4
	out := make([]float64, 4*nSlots)
	for _, p := range pkts {
		if p.T >= window {
			break
		}
		slot := int(p.T / slotT)
		if slot >= nSlots {
			continue
		}
		base := 4 * slot
		if p.Dir == trace.Down {
			out[base]++
			out[base+1] += float64(p.Size)
		} else {
			out[base+2]++
			out[base+3] += float64(p.Size)
		}
	}
	return out
}
