//go:build race

package checker_test

// raceEnabled: the race detector's instrumentation moves values the plain
// build keeps on the stack to the heap, so allocation budgets do not hold.
const raceEnabled = true
