//go:build race

package byz_test

// raceEnabled: the race detector's instrumentation moves values the plain
// build keeps on the stack to the heap, so allocation budgets are looser.
const raceEnabled = true
