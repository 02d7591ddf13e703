// Package experiments reproduces every theorem, figure, and worked example
// of the paper as a runnable experiment (the index is the README's
// Experiments section; cmd/sfs-bench runs them). Each generator returns a
// Result with a rendered table and an OK flag stating whether the paper's
// claim held in this reproduction; cmd/sfs-bench prints them, the test
// suite asserts every OK, and testdata/experiments.golden pins the output.
package experiments

import (
	"fmt"
	"sort"

	"failstop/internal/sweep"
)

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (E1..E16, A1..A3).
	ID string
	// Title names the paper artifact being reproduced.
	Title string
	// Table is the rendered measurement table.
	Table string
	// OK reports whether the paper's claim held.
	OK bool
	// Notes carries commentary: what was expected, what was measured.
	Notes []string
}

// String renders the result for terminal output.
func (r Result) String() string {
	status := "REPRODUCED"
	if !r.OK {
		status = "FAILED"
	}
	out := fmt.Sprintf("== %s: %s [%s]\n%s", r.ID, r.Title, status, r.Table)
	for _, n := range r.Notes {
		out += "   note: " + n + "\n"
	}
	return out
}

// frac renders on how many of a cell's runs a custom metric held, as "k/runs".
func frac(c *sweep.CellResult, metric string) string {
	return fmt.Sprintf("%d/%d", c.Metrics[metric], c.Runs)
}

// Runner produces a Result.
type Runner func() Result

// Registry maps experiment ids to their runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"E1":  E1,
		"E2":  E2,
		"E3":  E3,
		"E4":  E4,
		"E5":  E5,
		"E6":  E6,
		"E7":  E7,
		"E8":  E8,
		"E9":  E9,
		"E10": E10,
		"E11": E11,
		"E12": E12,
		"E13": E13,
		"E14": E14,
		"E15": E15,
		"E16": E16,
		"A1":  A1,
		"A2":  A2,
		"A3":  A3,
	}
}

// IDs returns the experiment ids in order: the paper artifacts E1..E12 and
// the post-paper measurements E13..E16 first, then the ablations A1..A3.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	rank := func(id string) (int, int) {
		class := 0
		if id[0] == 'A' {
			class = 1
		}
		num := 0
		for _, ch := range id[1:] {
			num = num*10 + int(ch-'0')
		}
		return class, num
	}
	sort.Slice(ids, func(a, b int) bool {
		ca, na := rank(ids[a])
		cb, nb := rank(ids[b])
		if ca != cb {
			return ca < cb
		}
		return na < nb
	})
	return ids
}
