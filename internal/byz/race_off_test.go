//go:build !race

package byz_test

const raceEnabled = false
