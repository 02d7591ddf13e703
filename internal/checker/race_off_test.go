//go:build !race

package checker_test

const raceEnabled = false
