//go:build race

package failstop_test

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so a simulator run allocates pages a plain build recycles and
// TestStackFaultyAllocBudget does not hold.
const raceEnabled = true
