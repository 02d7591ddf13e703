//go:build race

package sim

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so a run allocates record and occurrence pages a plain build
// recycles and the allocation budgets do not hold.
const raceEnabled = true
