//go:build race

// Package race reports whether the binary was built with the race
// detector. The allocation-count gates (testing.AllocsPerRun pins at 0
// allocs steady-state) skip under -race: the detector instruments and
// allocates on paths the production build does not, so the pins are only
// meaningful — and only load-bearing — in the plain build that `make
// check`'s allocgate target runs. The root, core and engine test suites
// also scale their fixtures down under it (smaller captures, lighter
// forests, a subset of the shard matrix): the detector costs 10–50x on
// packet replay and forest training, the race pass is about
// synchronization, and the full sizes run in the plain pass. Everything is
// seeded, so the scaled run is deterministic.
package race

// Enabled is true when the binary was built with -race.
const Enabled = true
