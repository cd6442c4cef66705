package features

import (
	"math"
	"sort"
	"time"

	"gamelens/internal/trace"
)

// This file keeps the batch implementation of §4.2 that LaunchAccumulator
// replaced — label the whole buffered window, bucket it per (slot, group),
// sort every sample set for its median — as the differential reference the
// accumulator tests and FuzzLaunchAccumulator compare against, attribute
// for attribute with ==. It shares no code with the accumulator.

type refPkt struct {
	T     time.Duration
	Size  int
	Group Group
}

// refLaunchAttributes is the replaced LaunchAttributesInto body. pkts must
// be time-sorted with no negative timestamps (the old body indexed slot -1
// on one and panicked).
func refLaunchAttributes(pkts []trace.Pkt, window, slotT time.Duration, cfg GroupConfig) []float64 {
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = 1432
	}
	if cfg.V <= 0 {
		cfg.V = 0.10
	}
	if cfg.Neighbors <= 0 {
		cfg.Neighbors = 3
	}
	var downs []refPkt
	for _, p := range pkts {
		if p.Dir == trace.Down {
			downs = append(downs, refPkt{T: p.T, Size: p.Size})
		}
	}
	for slotStart := 0; slotStart < len(downs); {
		slotIdx := downs[slotStart].T / slotT
		slotEnd := slotStart
		for slotEnd < len(downs) && downs[slotEnd].T/slotT == slotIdx {
			slotEnd++
		}
		refLabelSlot(downs[slotStart:slotEnd], cfg)
		slotStart = slotEnd
	}

	nSlots := int((window + slotT - 1) / slotT)
	if nSlots < 1 {
		nSlots = 1
	}
	acc := make([]float64, NumLaunchAttrs)
	bySlot := make([][3][]refPkt, nSlots)
	for _, p := range downs {
		if p.T >= window {
			break
		}
		slot := int(p.T / slotT)
		bySlot[slot][p.Group] = append(bySlot[slot][p.Group], p)
	}
	for slot := 0; slot < nSlots; slot++ {
		for gi := 0; gi < 3; gi++ {
			ps := bySlot[slot][gi]
			base := gi * 17
			if len(ps) == 0 {
				continue
			}
			acc[base] += float64(len(ps))
			var sizes, iats []float64
			for i, p := range ps {
				sizes = append(sizes, float64(p.Size))
				if i > 0 {
					iats = append(iats, (p.T - ps[i-1].T).Seconds())
				}
			}
			refWriteStats(acc[base+1:base+9], sizes)
			refWriteStats(acc[base+9:base+17], iats)
		}
	}
	inv := 1 / float64(nSlots)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}

func refLabelSlot(slot []refPkt, cfg GroupConfig) {
	var nonFull []int
	for i := range slot {
		if slot[i].Size >= cfg.MaxPayload {
			slot[i].Group = GroupFull
		} else {
			nonFull = append(nonFull, i)
		}
	}
	for pos, i := range nonFull {
		votes, agree := 0, 0
		size := float64(slot[i].Size)
		for off := 1; off <= cfg.Neighbors; off++ {
			for _, npos := range [2]int{pos - off, pos + off} {
				if npos < 0 || npos >= len(nonFull) {
					continue
				}
				votes++
				nsize := float64(slot[nonFull[npos]].Size)
				if size == 0 {
					continue
				}
				if math.Abs(nsize-size)/size <= cfg.V {
					agree++
				}
			}
		}
		if votes > 0 && agree*2 > votes {
			slot[i].Group = GroupSteady
		} else {
			slot[i].Group = GroupSparse
		}
	}
}

func refWriteStats(dst []float64, values []float64) {
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
		kurt = m4/(m2*m2) - 3
	}
	sort.Float64s(values)
	med := values[len(values)/2]
	if len(values)%2 == 0 {
		med = (values[len(values)/2-1] + values[len(values)/2]) / 2
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
