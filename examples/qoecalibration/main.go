// qoecalibration walks through the §5.3 effective-QoE story on two concrete
// sessions: a Hearthstone session whose low bitrate is inherent to the card
// game (mislabeled bad objectively, good effectively), and a Fortnite
// session on a genuinely starved path (bad under both measures — context
// calibration must never hide real network faults).
package main

import (
	"fmt"
	"time"

	"gamelens/internal/gamesim"
	"gamelens/internal/qoe"
	"gamelens/internal/trace"
)

func grade(label string, s *gamesim.Session) {
	qos := qoe.EstimateSessionQoS(s, time.Second)
	var objCounts, effCounts [qoe.NumLevels]int64
	for k, q := range qos {
		st := trace.StageAt(s.Spans, time.Duration(k)*time.Second)
		objCounts[qoe.Objective(q)]++
		effCounts[qoe.Effective(q, qoe.Context{Demand: s.Title.Demand, Stage: st})]++
	}
	fmt.Printf("%s (%s, %s, %.0f min)\n", label, s.Title.Name, s.Config, s.Duration().Minutes())
	fmt.Printf("  mean throughput: %.1f Mbps; path: RTT %v, loss %.2f%%\n",
		s.MeanDownMbps(), s.Net.RTT, s.Net.LossRate*100)
	fmt.Printf("  per-second objective levels: good=%d medium=%d bad=%d\n",
		objCounts[qoe.Good], objCounts[qoe.Medium], objCounts[qoe.Bad])
	fmt.Printf("  per-second effective levels: good=%d medium=%d bad=%d\n",
		effCounts[qoe.Good], effCounts[qoe.Medium], effCounts[qoe.Bad])
	fmt.Printf("  session grade: objective=%v effective=%v\n\n",
		qoe.SessionLevelFromCounts(objCounts), qoe.SessionLevelFromCounts(effCounts))
}

func main() {
	// Case 1: a low-demand card game on a perfectly healthy path. The
	// objective module sees <8 Mbps and <30 fps and cries wolf.
	hearthstone := gamesim.Generate(gamesim.Hearthstone,
		gamesim.ClientConfig{Device: gamesim.DevicePC, OS: gamesim.OSWindows, Resolution: gamesim.ResFHD, FPS: 60},
		gamesim.LabNetwork(), 31, gamesim.Options{SessionLength: 15 * time.Minute})
	grade("case 1 — healthy path, low-demand title", hearthstone)

	// Case 2: a high-demand shooter squeezed through a 6 Mbps bottleneck
	// with loss. Context calibration must keep this one bad.
	fortnite := gamesim.Generate(gamesim.Fortnite,
		gamesim.ClientConfig{Device: gamesim.DevicePC, OS: gamesim.OSWindows, Resolution: gamesim.ResUHD, FPS: 60},
		gamesim.NetworkConditions{RTT: 120 * time.Millisecond, LossRate: 0.03, BandwidthMbps: 6},
		32, gamesim.Options{SessionLength: 15 * time.Minute})
	grade("case 2 — impaired path, high-demand title", fortnite)

	fmt.Println("takeaway: context calibration clears the false alarm (case 1)")
	fmt.Println("without masking the real degradation (case 2) — the Fig 13 effect.")
}
