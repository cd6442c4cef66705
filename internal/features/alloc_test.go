package features

import (
	"testing"
	"time"

	"gamelens/internal/race"
	"gamelens/internal/trace"
)

// TestStageFeatureExtractorPushAllocs pins the per-slot hot path at zero
// allocations: Push returns a view of extractor-owned scratch.
func TestStageFeatureExtractorPushAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are only pinned in the plain build")
	}
	e := NewStageFeatureExtractor(VolumetricConfig{})
	slot := trace.Slot{DownBytes: 5e5, DownPkts: 400, UpBytes: 2e4, UpPkts: 80}
	e.Push(slot) // warm-up: seed peaks and the EMA
	if n := testing.AllocsPerRun(500, func() { e.Push(slot) }); n != 0 {
		t.Fatalf("StageFeatureExtractor.Push allocates %.1f/op, want 0", n)
	}
}

// TestStageFeatureExtractorPushBorrow pins the documented borrow: the
// returned slice is overwritten by the next Push, and the values match a
// fresh extractor fed the same slots.
func TestStageFeatureExtractorPushBorrow(t *testing.T) {
	slots := []trace.Slot{
		{DownBytes: 6e5, DownPkts: 500, UpBytes: 3e4, UpPkts: 90},
		{DownBytes: 1e5, DownPkts: 120, UpBytes: 1e4, UpPkts: 40},
		{DownBytes: 4e5, DownPkts: 300, UpBytes: 2e4, UpPkts: 70},
	}
	a := NewStageFeatureExtractor(VolumetricConfig{})
	first := a.Push(slots[0])
	firstCopy := append([]float64(nil), first...)
	second := a.Push(slots[1])
	if &first[0] != &second[0] {
		t.Fatal("Push should return the same scratch backing array")
	}
	same := true
	for i := range first {
		if first[i] != firstCopy[i] {
			same = false
		}
	}
	if same {
		t.Fatal("second Push left the borrowed vector untouched; slots should differ")
	}
	// Values are unchanged from the pre-scratch implementation: replaying
	// the same slots into a fresh extractor reproduces each vector.
	b := NewStageFeatureExtractor(VolumetricConfig{})
	for i, s := range slots {
		v := append([]float64(nil), b.Push(s)...)
		if i == 0 {
			for j := range v {
				if v[j] != firstCopy[j] {
					t.Fatalf("slot 0 vector changed: %v vs %v", v, firstCopy)
				}
			}
		}
	}
}

// TestLaunchAttributesIntoMatches pins that the in-place form computes
// exactly what the allocating form does, call after call into the same dst.
func TestLaunchAttributesIntoMatches(t *testing.T) {
	pktsA := launchPkts(1400, 900, 0)
	pktsB := launchPkts(900, 420, 3)
	want := LaunchAttributes(pktsA, 5*time.Second, time.Second, DefaultGroupConfig())
	var acc [NumLaunchAttrs]float64
	for run := 0; run < 3; run++ {
		got := LaunchAttributesInto(acc[:], pktsA, 5*time.Second, time.Second, DefaultGroupConfig())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d attr %d: %v != %v", run, i, got[i], want[i])
			}
		}
		// Interleave a different window: nothing may carry over.
		LaunchAttributesInto(acc[:], pktsB, 5*time.Second, time.Second, DefaultGroupConfig())
	}
}

// launchPkts synthesizes a sorted bidirectional launch window mixing full,
// steady and sparse sizes.
func launchPkts(full, steady int, seed int) []trace.Pkt {
	var pkts []trace.Pkt
	for i := 0; i < 600; i++ {
		t := time.Duration(i) * 10 * time.Millisecond
		size := steady + (i%7)*3
		switch (i + seed) % 5 {
		case 0:
			size = full
		case 3:
			size = 80 + (i%13)*40 // sparse: unrelated sizes
		}
		pkts = append(pkts, trace.Pkt{T: t, Dir: trace.Down, Size: size})
		if i%4 == 0 {
			pkts = append(pkts, trace.Pkt{T: t + time.Millisecond, Dir: trace.Up, Size: 60})
		}
	}
	return pkts
}

// TestProbabilitiesIntoMatches pins the TransitionMatrix wrapper contract.
func TestProbabilitiesIntoMatches(t *testing.T) {
	var m TransitionMatrix
	seq := []trace.Stage{trace.StageIdle, trace.StageActive, trace.StageActive,
		trace.StagePassive, trace.StageActive, trace.StageIdle}
	for _, s := range seq {
		m.Push(s)
	}
	want := m.Probabilities()
	var dst [9]float64
	got := m.ProbabilitiesInto(dst[:])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: %v != %v", i, got[i], want[i])
		}
	}
	var empty TransitionMatrix
	dst = [9]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, v := range empty.ProbabilitiesInto(dst[:]) {
		if v != 0 {
			t.Fatal("empty matrix must zero dst")
		}
	}
}
