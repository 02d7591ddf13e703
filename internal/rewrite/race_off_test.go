//go:build !race

package rewrite_test

const raceEnabled = false
