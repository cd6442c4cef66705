// Package features turns raw session traffic into the attribute vectors the
// paper's classifiers consume: the 51 packet-group launch attributes of
// §4.2 (Fig 7) and the EMA-smoothed, peak-relative bidirectional volumetric
// attributes of §4.3.
//
// The launch attributes have one implementation, LaunchAccumulator, and it
// is streaming: a monitor pushes each downstream packet of a flow's launch
// window into it as the packet arrives and never buffers the window.
// Upstream packets are not stored at all. What is held per in-window flow
// is the samples (time, size: 16 bytes) of the two newest attribute slots
// of width T plus a running 51-float sum. Slot s closes — neighbour vote,
// per-group statistics added to the sum, samples dropped — when a packet
// at or past the end of slot s+1 arrives, or when the decision is forced;
// at the end of the window the vector is the sum scaled by 1/slots. That
// makes the reordering horizon explicit: a packet up to one slot width late
// still lands, in time order, in its open slot and the result is that of
// the sorted launch; one later than that is left out. LaunchAttributes and
// LaunchAttributesInto are the batch form for training and analysis — they
// feed a time-sorted window through the same accumulator.
package features

import (
	"time"

	"gamelens/internal/trace"
)

// Group labels a downstream launch packet by its payload-size behaviour
// relative to its slot neighbours (§3.2).
type Group int8

// Packet groups.
const (
	// GroupFull packets carry the fixed maximum payload.
	GroupFull Group = iota
	// GroupSteady packets sit in a narrow size band shared with their
	// neighbours in the same time slot.
	GroupSteady
	// GroupSparse packets have sizes unrelated to their neighbours.
	GroupSparse
)

// String names the group.
func (g Group) String() string {
	switch g {
	case GroupFull:
		return "full"
	case GroupSteady:
		return "steady"
	default:
		return "sparse"
	}
}

// GroupConfig tunes the packet-group labeler.
type GroupConfig struct {
	// MaxPayload is the full-packet payload size (1432 bytes on GeForce
	// NOW; §4.2.1).
	MaxPayload int
	// V is the allowed relative payload variation between a steady packet
	// and its neighbours (the paper evaluates 1–20% and deploys 10%).
	V float64
	// Neighbors is how many packets on each side vote (default 3).
	Neighbors int
}

// DefaultGroupConfig is the deployed configuration of §4.4.1.
func DefaultGroupConfig() GroupConfig {
	return GroupConfig{MaxPayload: 1432, V: 0.10, Neighbors: 3}
}

// LabeledPkt is a downstream packet with its assigned group: 16 bytes, the
// unit of launch-window memory (payload lengths fit an int32 — IP caps them
// at 64 KB).
type LabeledPkt struct {
	T     time.Duration
	Size  int32
	Group Group
}

// withDefaults fills unset labeler parameters with the deployed ones.
func (cfg GroupConfig) withDefaults() GroupConfig {
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = 1432
	}
	if cfg.V <= 0 {
		cfg.V = 0.10
	}
	if cfg.Neighbors <= 0 {
		cfg.Neighbors = 3
	}
	return cfg
}

// LabelGroups classifies the downstream packets of a launch window into
// full, steady and sparse groups. Within each slot of width slotT, a
// non-full packet is steady when the majority of its nearest neighbours
// (same slot) have payload sizes within ±V of its own (§4.2.1's
// majority-voting rule); otherwise it is sparse. Input packets must be
// sorted by time; upstream packets are ignored. Because the input is
// time-sorted, the slot partition is a walk over contiguous ranges and the
// result is exactly the downstream subsequence in arrival order. This is
// the whole-capture form for analysis; the title decision labels slot by
// slot as packets arrive (LaunchAccumulator), through the same labelSlot.
func LabelGroups(pkts []trace.Pkt, slotT time.Duration, cfg GroupConfig) []LabeledPkt {
	cfg = cfg.withDefaults()
	var downs []LabeledPkt
	for _, p := range pkts {
		if p.Dir == trace.Down {
			downs = append(downs, LabeledPkt{T: p.T, Size: int32(p.Size)})
		}
	}
	scratch := make([]int, len(downs))
	slotStart := 0
	for slotStart < len(downs) {
		slotIdx := downs[slotStart].T / slotT
		slotEnd := slotStart
		for slotEnd < len(downs) && downs[slotEnd].T/slotT == slotIdx {
			slotEnd++
		}
		labelSlot(downs[slotStart:slotEnd], scratch, cfg)
		slotStart = slotEnd
	}
	return downs
}

// labelSlot assigns groups within one slot. scratch, at least as long as
// the slot, holds the non-full index list.
func labelSlot(slot []LabeledPkt, scratch []int, cfg GroupConfig) {
	// Full packets first.
	k := 0
	for i := range slot {
		if int(slot[i].Size) >= cfg.MaxPayload {
			slot[i].Group = GroupFull
		} else {
			scratch[k] = i
			k++
		}
	}
	nonFull := scratch[:k]
	// Majority vote among the nearest non-full neighbours by arrival order.
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
				if absf(nsize-size)/size <= cfg.V {
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

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
