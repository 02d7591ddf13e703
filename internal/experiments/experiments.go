// Package experiments reproduces every theorem, figure, and worked example
// of the paper as a runnable experiment (the index is the README's
// Experiments section; cmd/sfs-experiments runs them). Each generator
// returns a Result with a rendered table and an OK flag stating whether the
// paper's claim held in this reproduction; cmd/sfs-experiments prints them,
// the test suite asserts every OK, and testdata/experiments.golden pins the
// output.
package experiments

import (
	"fmt"

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

// experiments lists every experiment in order: the paper artifacts E1..E12
// and the post-paper measurements E13..E16 first, then the ablations A1..A3.
// An experiment's id and title are written here only: Registry stamps them on
// the Result its runner returns, on success and failure alike.
var experiments = []struct {
	id, title string
	run       Runner
}{
	{"E1", "Theorem 1: FS (a Perfect Failure Detector) is unimplementable — the timeout dilemma", E1},
	{"E2", "Figure 1: the sFS conditions hold on every §5-protocol run; FS2 (strong accuracy) does not", E2},
	{"E3", "Theorem 2: Conditions 1–3 are necessary — §5 satisfies them, the unilateral strawman breaks Condition 1", E3},
	{"E4", "Theorem 3: Conditions 1–3 are not sufficient — the 4-process counterexample", E4},
	{"E5", "Theorem 5: sFS is indistinguishable from FS — explicit witnesses for every run", E5},
	{"E6", "Theorem 6 / App. A.3: the Witness property is necessary — witness-free quorums admit failed-before cycles", E6},
	{"E7", "Theorem 7: fixed quorums must exceed n(t-1)/t — tight in both directions", E7},
	{"E8", "Corollary 8: minimum-quorum progress requires n > t²", E8},
	{"E9", "§5 protocol cost: Θ(n²) messages per failure event, one round of latency", E9},
	{"E10", "§1 election: dual leadership is transient and internally unobservable under sFS; persistent and distinguishable under unilateral detection", E10},
	{"E11", "§6 / Skeen: last-process-to-fail is misled by cyclic detection (cheap) and safe under sFS", E11},
	{"E12", "§6 trade-off: the cheap model is faster but admits failed-before cycles; sFS pays one quorum round for acyclicity", E12},
	{"E13", "Figure 1 properties under lossy links, with and without reliable channels (ack/retransmit layer)", E13},
	{"E14", "Theorem 1 as a surface: false-suspicion rate vs. drop probability vs. heartbeat timeout", E14},
	{"E15", "Figure 1 properties under crash-recovery: amnesia vs. durable state across a restart-frequency x drop ladder", E15},
	{"E16", "Byzantine demotion: accuracy under a corruption/equivocation/replay ladder, interposer off vs. on", E16},
	{"A1", "Ablation: sFS2d receive gating — precise per-sender rule vs §5's literal 'no other action'", A1},
	{"A2", "Ablation: quorum policy — fixed minimum quorum vs wait-for-all-unsuspected (§4's two implementations)", A2},
	{"A3", "Exploration (§6 future work): transitive failed-before — the §5 quorums already provide it; the cheap model does not", A3},
}

// Registry maps experiment ids to their runners.
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(experiments))
	for _, e := range experiments {
		reg[e.id] = func() Result {
			r := e.run()
			r.ID, r.Title = e.id, e.title
			return r
		}
	}
	return reg
}

// IDs returns the experiment ids in order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
