//go:build race

package sweep

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so the allocation budget does not hold.
const raceEnabled = true
