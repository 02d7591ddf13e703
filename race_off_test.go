//go:build !race

package failstop_test

const raceEnabled = false
