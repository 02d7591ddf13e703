package experiments

import (
	"fmt"

	"failstop/internal/adversary"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/quorum"
	"failstop/internal/sim"
	"failstop/internal/stats"
	"failstop/internal/sweep"
)

// E1 reproduces Theorem 1 operationally: no timeout implements the Perfect
// Failure Detector. Two scenarios per timeout value:
//
//   - spike: the victim is healthy but its heartbeats suffer an adversarial
//     delay spike. A finite timeout below the spike produces a false
//     detection (an FS2 violation at the FS level — the sFS machinery then
//     kills the victim to stay internally consistent).
//   - crash: the victim genuinely crashes. A detector with no timeout
//     (∞) never detects it — an FS1 violation.
func E1() Result {
	const (
		n, t      = 5, 2
		hbEvery   = 10
		spikeSize = 400
		horizon   = 6000
	)
	timeouts := []int64{20, 40, 80, 160, 320, 0} // 0 = no timeout (∞)

	run := func(timeout int64, spike bool) (falseDet, missed bool) {
		var delay sim.DelayFn
		spikeFn := adversary.HeartbeatSpike(1, fd.TagHeartbeat, 100, 2, spikeSize)
		delay = func(from, to model.ProcID, p node.Payload, at int64) int64 {
			if to == 1 && p.Tag == core.TagSusp {
				return 60 // let quorums complete before the kill lands
			}
			if spike {
				return spikeFn(from, to, p, at)
			}
			return 2
		}
		c := cluster.New(cluster.Options{
			Sim:              sim.Config{N: n, Seed: 7, Delay: delay, MaxTime: horizon},
			Det:              core.Config{N: n, T: t},
			HeartbeatEvery:   hbEvery,
			HeartbeatTimeout: timeout,
		})
		if !spike {
			c.CrashAt(100, 1)
		}
		res := c.Run()
		if spike {
			// The victim was healthy: any detection of it was false.
			for p := model.ProcID(2); int(p) <= n; p++ {
				if res.History.FailedIndex(p, 1) >= 0 {
					falseDet = true
				}
			}
		} else {
			// FS1 on the full history: every live process must have
			// detected the genuine crash by the horizon.
			missed = !checker.FS1(res.History).Holds
		}
		return falseDet, missed
	}

	tbl := stats.NewTable("timeout", "false detection (healthy victim, spike)", "missed detection (real crash)")
	ok := true
	for _, to := range timeouts {
		label := fmt.Sprintf("%d", to)
		if to == 0 {
			label = "∞ (none)"
		}
		falseDet, _ := run(to, true)
		_, missed := run(to, false)
		tbl.Row(label, falseDet, missed)
		finite := to != 0
		switch {
		case finite && to <= spikeSize && !falseDet:
			ok = false // a small timeout must be fooled by the spike
		case finite && missed:
			ok = false // a finite timeout must catch genuine crashes
		case !finite && !missed:
			ok = false // no timeout means no completeness
		case !finite && falseDet:
			ok = false
		}
	}
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			fmt.Sprintf("n=%d, heartbeat every %d ticks, adversarial spike of %d ticks on the victim's heartbeats", n, hbEvery, spikeSize),
			"every finite timeout below the spike yields a false detection (FS2 broken); no timeout yields a missed detection (FS1 broken)",
		},
	}
}

// E6 reproduces Theorem 6 / Appendix A.3: when quorums are too small to
// guarantee the Witness property, the adversarial schedule manufactures a
// k-cycle in the failed-before relation; with W restored (Theorem 7
// quorums) the same adversary produces no cycle.
func E6() Result {
	cases := []struct{ n, k int }{{5, 2}, {7, 2}, {10, 3}, {13, 3}, {17, 4}, {26, 5}}
	tbl := stats.NewTable("n", "k (cycle len)", "quorum", "witness-free", "cycle formed")
	ok := true
	for _, tc := range cases {
		for _, q := range []int{quorum.MinSize(tc.n, tc.k) - 1, quorum.MinSize(tc.n, tc.k)} {
			out := adversary.RunCycleScenario(tc.n, tc.k, q, 1)
			// Theorem 6 is about the quorum family of the would-be cycle's
			// detections: below the bound all k complete with an empty
			// intersection; at the bound they stall, so the (partial)
			// family trivially keeps a witness.
			_, hasWitness := quorum.Witness(out.RingQuorums)
			gotCycle := out.Cycle != nil
			under := q < quorum.MinSize(tc.n, tc.k)
			witnessFree := len(out.RingQuorums) == tc.k && !hasWitness
			tbl.Row(tc.n, tc.k, q, witnessFree, gotCycle)
			if under && (!gotCycle || !witnessFree) {
				ok = false
			}
			if !under && (gotCycle || witnessFree) {
				ok = false
			}
		}
	}
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"schedule: every process suspects the k ring targets in descending rotation order; 'you failed' messages parked (FIFO parks everything behind them)",
			"below the bound the quorum family has empty intersection and the k-cycle completes; at the bound every quorum stalls one short",
		},
	}
}

// E7 reproduces Theorem 7's tightness on a grid: at q = ⌊n(t-1)/t⌋ (one
// below the bound) the cycle adversary wins; at q = ⌊n(t-1)/t⌋+1 it loses.
// The (n, t) × {q-1, q} grid fans out through the sweep engine with a
// custom runner wrapping the Appendix A.3 cycle adversary.
func E7() Result {
	grid := []sweep.NT{
		{N: 4, T: 2}, {N: 5, T: 2}, {N: 6, T: 2}, {N: 9, T: 2}, {N: 10, T: 3},
		{N: 12, T: 3}, {N: 15, T: 3}, {N: 17, T: 4}, {N: 20, T: 4}, {N: 26, T: 5},
	}
	const schedName = "a3-ring"
	rep, err := sweep.Run(sweep.Spec{
		Grid:         grid,
		QuorumDeltas: []int{-1, 0},
		Schedules:    []sweep.Schedule{{Name: schedName}},
		Seeds:        sweep.SeedRange{Start: 1, Count: 1},
		Runner: func(cell sweep.Cell, seed int64) sweep.RunOutput {
			q := quorum.MinSize(cell.NT.N, cell.NT.T) + cell.QuorumDelta
			out := adversary.RunCycleScenario(cell.NT.N, cell.NT.T, q, seed)
			return sweep.RunOutput{
				Result:  out.Result,
				Metrics: map[string]bool{"cycle": out.Cycle != nil},
			}
		},
	}, sweep.Options{})
	if err != nil {
		return Result{Notes: []string{err.Error()}}
	}
	tbl := stats.NewTable("n", "t", "min quorum ⌊n(t-1)/t⌋+1", "cycle at q-1", "cycle at q")
	ok := true
	for _, g := range grid {
		cellAt := func(delta int) *sweep.CellResult {
			return rep.Cell(sweep.Cell{NT: g, Protocol: core.SimulatedFailStop, QuorumDelta: delta, Schedule: schedName})
		}
		below := cellAt(-1).MetricAll("cycle")
		at := !cellAt(0).MetricNone("cycle")
		tbl.Row(g.N, g.T, quorum.MinSize(g.N, g.T), below, at)
		if !below || at {
			ok = false
		}
	}
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{"'cycle at q-1' must be true (bound is necessary), 'cycle at q' false (bound is sufficient)"},
	}
}

// E8 reproduces Corollary 8: with minimum quorums, the protocol makes
// progress (all live processes complete all detections) iff n > t². The
// (n, t) grid fans out through the sweep engine: a declarative t-crash
// schedule plus an Observe hook that reads detector state per run.
func E8() Result {
	grid := []sweep.NT{
		{N: 3, T: 2}, {N: 4, T: 2}, {N: 5, T: 2}, {N: 8, T: 2}, {N: 9, T: 3},
		{N: 10, T: 3}, {N: 14, T: 3}, {N: 16, T: 4}, {N: 17, T: 4}, {N: 20, T: 4},
	}
	const schedName = "t-crashes"
	rep, err := sweep.Run(sweep.Spec{
		Grid: grid,
		Schedules: []sweep.Schedule{{
			Name: schedName,
			// t genuine crashes, then a survivor suspects each victim.
			Faults: func(nt sweep.NT, seed int64) []sweep.Fault {
				var fs []sweep.Fault
				for i := 0; i < nt.T; i++ {
					victim := model.ProcID(nt.N - i)
					fs = append(fs,
						sweep.Fault{Kind: sweep.FaultCrash, At: int64(1 + i), Proc: victim},
						sweep.Fault{Kind: sweep.FaultSuspect, At: int64(50 + i), Proc: 1, Target: victim})
				}
				return fs
			},
		}},
		Seeds:    sweep.SeedRange{Start: 3, Count: 1},
		MinDelay: 1, MaxDelay: 5,
		Observe: func(cell sweep.Cell, seed int64, out sweep.RunOutput) map[string]bool {
			progress := true
			for p := 1; p <= cell.NT.N-cell.NT.T; p++ {
				for i := 0; i < cell.NT.T; i++ {
					if !out.Cluster.Detector(model.ProcID(p)).Detected(model.ProcID(cell.NT.N - i)) {
						progress = false
					}
				}
			}
			return map[string]bool{"progress": progress}
		},
	}, sweep.Options{})
	if err != nil {
		return Result{Notes: []string{err.Error()}}
	}
	tbl := stats.NewTable("n", "t", "n > t²", "progress (all detections complete)")
	ok := true
	for _, g := range grid {
		c := rep.Cell(sweep.Cell{NT: g, Protocol: core.SimulatedFailStop, Schedule: schedName})
		progress := c.MetricAll("progress")
		predicted := g.N > g.T*g.T
		tbl.Row(g.N, g.T, predicted, progress)
		if progress != predicted {
			ok = false
		}
	}
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{"t genuine crashes leave n-t live processes; the quorum ⌊n(t-1)/t⌋+1 is reachable iff n > t²"},
	}
}
