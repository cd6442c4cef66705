package engine

import (
	"time"
	"unsafe"

	"gamelens/internal/core"
	"gamelens/internal/packet"
)

// NewConsumeRig builds a worker-less shard around pipe and returns a
// function that replays one batch of summaries through shard.consume on the
// calling goroutine, cycling the batch through the lane's free ring as a
// producer and worker would — the synchronous rig an AllocsPerRun pin on
// the shard's per-batch path needs.
func NewConsumeRig(pipe *core.Pipeline) func(ts []time.Time, sums []packet.Summary) {
	s := &shard{pipe: pipe}
	pr := pair{q: newQueue(1)}
	return func(ts []time.Time, sums []packet.Summary) {
		b := pr.newBatch(len(sums))
		for i := range sums {
			b.entries = append(b.entries, entry{ts: ts[i], sum: sums[i]})
		}
		s.consume(pr.q, b)
	}
}

// RingEntrySize is what one queued packet occupies in a batch.
const RingEntrySize = unsafe.Sizeof(entry{})
