//go:build race

package quorum

// raceEnabled: the race detector's instrumentation moves values the plain
// build keeps on the stack to the heap, and sync.Pool drops a quarter of
// its puts, so allocation budgets do not hold.
const raceEnabled = true
