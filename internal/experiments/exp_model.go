package experiments

import (
	"fmt"

	"failstop/internal/adversary"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/rewrite"
	"failstop/internal/sim"
	"failstop/internal/stats"
	"failstop/internal/sweep"
)

// scenario is one adversarial setup: genuine crashes, (possibly false)
// suspicions, and an optional set of victims whose death sentences (SUSP
// messages addressed to them) are slowed. Slowing the kill path is what
// surfaces FS2 violations: the false detection completes while its victim
// is still alive.
type scenario struct {
	name     string
	crashes  []model.ProcID
	susp     [][2]model.ProcID
	slowKill []model.ProcID
}

// faults converts the scenario into sweep faults: crashes at ticks 2, 3,
// ..., then suspicions at ticks 20, 23, ... — the single source of the
// injection times both protoRun and the E2 sweep schedules use.
func (sc scenario) faults() []sweep.Fault {
	var out []sweep.Fault
	for i, p := range sc.crashes {
		out = append(out, sweep.Fault{Kind: sweep.FaultCrash, At: int64(2 + i), Proc: p})
	}
	for i, s := range sc.susp {
		out = append(out, sweep.Fault{Kind: sweep.FaultSuspect, At: int64(20 + 3*i), Proc: s[0], Target: s[1]})
	}
	return out
}

// protoRun executes one seeded scenario of the given protocol and returns
// the full simulation result. The delay distribution is the shared
// slowed-kill adversary, so these runs are event-for-event identical to
// the same scenario fanned out through the sweep engine.
func protoRun(proto core.Protocol, n, t int, seed int64, sc scenario) *sim.Result {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: n, Seed: seed, Delay: sweep.SlowKillDelay(seed, sc.slowKill...)},
		Det: core.Config{N: n, T: t, Protocol: proto},
	})
	for _, f := range sc.faults() {
		switch f.Kind {
		case sweep.FaultCrash:
			c.CrashAt(f.At, f.Proc)
		case sweep.FaultSuspect:
			c.SuspectAt(f.At, f.Proc, f.Target)
		}
	}
	return c.Run()
}

// e2Scenarios is the standard scenario mix used by E2/E3/E5: erroneous
// suspicions (with slowed kill paths so the detections are visibly false),
// genuine crashes, and concurrent mutual suspicion.
func e2Scenarios() []scenario {
	return []scenario{
		{name: "false", susp: [][2]model.ProcID{{2, 1}}, slowKill: []model.ProcID{1}},                                     // one false suspicion
		{name: "genuine", crashes: []model.ProcID{10}, susp: [][2]model.ProcID{{1, 10}}},                                  // one genuine crash
		{name: "mutual", susp: [][2]model.ProcID{{1, 2}, {2, 1}}},                                                         // mutual suspicion
		{name: "concurrent", susp: [][2]model.ProcID{{4, 1}, {5, 2}, {6, 3}}, slowKill: []model.ProcID{1}},                // three concurrent
		{name: "mixed", crashes: []model.ProcID{9}, susp: [][2]model.ProcID{{1, 9}, {2, 8}}, slowKill: []model.ProcID{8}}, // mixed
	}
}

// schedule is the scenario as a sweep fault schedule sharing protoRun's
// injection times (scenario.faults) and delay distribution, so the engine's
// runs are event-for-event identical to protoRun's.
func (sc scenario) schedule() sweep.Schedule {
	return sweep.Schedule{
		Name:   sc.name,
		Faults: func(sweep.NT, int64) []sweep.Fault { return sc.faults() },
		Delay: func(nt sweep.NT, seed int64) sim.DelayFn {
			return sweep.SlowKillDelay(seed, sc.slowKill...)
		},
	}
}

// e2Schedules is the scenario mix as sweep fault schedules.
func e2Schedules() []sweep.Schedule {
	var out []sweep.Schedule
	for _, sc := range e2Scenarios() {
		out = append(out, sc.schedule())
	}
	return out
}

// E2 verifies Figure 1: across seeded adversarial runs of the §5 protocol,
// every sFS condition (FS1, sFS2a–d) holds in 100% of runs, while FS2 —
// the condition sFS deliberately weakens — fails whenever a false suspicion
// completes before its victim dies. The runs fan out through the sweep
// engine: one cell per scenario family, aggregated sweep-wide.
func E2() Result {
	const n, t, seeds = 10, 3, 15
	rep, err := sweep.Run(sweep.Spec{
		Grid:      []sweep.NT{{N: n, T: t}},
		Schedules: e2Schedules(),
		Seeds:     sweep.SeedRange{Count: seeds},
		Check:     true,
	}, sweep.Options{})
	if err != nil {
		return Result{Notes: []string{err.Error()}}
	}
	counts, total := rep.TotalHolds()
	tbl := stats.NewTable("property", "runs holding", "total runs", "pct")
	ok := total > 0
	for _, prop := range []string{"FS1", "sFS2a", "sFS2b", "sFS2c", "sFS2d", "W", "FS2"} {
		pct := 100 * float64(counts[prop]) / float64(total)
		tbl.Row(prop, counts[prop], total, pct)
		mustBeTotal := prop != "FS2"
		if mustBeTotal && counts[prop] != total {
			ok = false
		}
		if prop == "FS2" && counts[prop] == total {
			ok = false // with false suspicions in the mix, FS2 must fail somewhere
		}
	}
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			fmt.Sprintf("n=%d, t=%d, %d quiescent runs over 5 scenario families (false, genuine, mutual, concurrent, mixed)", n, t, total),
		},
	}
}

// E3 verifies Theorem 2: Conditions 1–3 are necessary for
// indistinguishability — they hold on every §5 run, and the unilateral
// strawman (which is distinguishable) breaks Condition 1. Both protocols
// run one false-suspicion pair through the sweep engine; an Observe hook
// judges each run's abstract history.
func E3() Result {
	const n, t, seeds = 10, 3, 10
	sc := scenario{name: "false-pair", susp: [][2]model.ProcID{{2, 1}, {4, 3}}, slowKill: []model.ProcID{1, 3}}
	protos := []core.Protocol{core.SimulatedFailStop, core.Unilateral}
	rep, err := sweep.Run(sweep.Spec{
		Grid:      []sweep.NT{{N: n, T: t}},
		Protocols: protos,
		Schedules: []sweep.Schedule{sc.schedule()},
		Seeds:     sweep.SeedRange{Count: seeds},
		Observe: func(_ sweep.Cell, _ int64, out sweep.RunOutput) map[string]bool {
			ab := out.Result.History.DropTags(core.TagSusp)
			return map[string]bool{
				"Condition1": checker.Condition1(ab).Holds,
				"Condition2": checker.Condition2(ab).Holds,
				"Condition3": checker.Condition3(ab).Holds,
				"realizable": rewrite.Realizable(ab),
			}
		},
	}, sweep.Options{})
	if err != nil {
		return Result{Notes: []string{err.Error()}}
	}
	tbl := stats.NewTable("protocol", "Condition1", "Condition2", "Condition3", "FS-realizable")
	ok := true
	for i, proto := range protos {
		c := &rep.Cells[i] // cells in protocol order: the only axis with two entries
		tbl.Row(proto.String(), frac(c, "Condition1"), frac(c, "Condition2"), frac(c, "Condition3"), frac(c, "realizable"))
		switch proto {
		case core.SimulatedFailStop:
			ok = ok && c.MetricAll("Condition1") && c.MetricAll("Condition2") &&
				c.MetricAll("Condition3") && c.MetricAll("realizable")
		case core.Unilateral:
			// every unilateral run breaks Condition 1 here
			ok = ok && c.MetricNone("Condition1") && c.MetricNone("realizable")
		default:
			// E3 states no expectation for other protocols (Cheap is E11's).
		}
	}
	return Result{Table: tbl.String(), OK: ok}
}

// E4 verifies Theorem 3: the exact counterexample history satisfies
// Conditions 1–3 yet no isomorphic FS run exists; both rewrite algorithms
// refuse it.
func E4() Result {
	h := adversary.Theorem3Run()
	tbl := stats.NewTable("check", "outcome")
	c1 := checker.Condition1(h).Holds
	c2 := checker.Condition2(h).Holds
	c3 := checker.Condition3(h).Holds
	realizable := rewrite.Realizable(h)
	_, _, gerr := rewrite.Graph(h)
	_, _, serr := rewrite.Swaps(h)
	sfs2d := checker.SFS2d(h).Holds
	tbl.Row("Condition 1 (detected ⇒ crashes)", c1)
	tbl.Row("Condition 2 (failed-before acyclic)", c2)
	tbl.Row("Condition 3 (no event after detection)", c3)
	tbl.Row("sFS2d (the condition it lacks)", sfs2d)
	tbl.Row("isomorphic FS run exists", realizable)
	tbl.Row("graph rewriter refuses", gerr != nil)
	tbl.Row("swap rewriter refuses", serr != nil)
	ok := c1 && c2 && c3 && !sfs2d && !realizable && gerr != nil && serr != nil
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{"history: failed_y(x); send_y(a); recv_a; crash_a; failed_b(a); send_b(x); recv_x; crash_x (x,a,b,y = 1,2,3,4)"},
	}
}

// E5 verifies Theorem 5 constructively: every sFS run rewrites to an
// isomorphic FS run, under both the graph and the paper's swap algorithm.
func E5() Result {
	const n, t, seeds = 10, 3, 12
	var badPairs, moves []float64
	runs, successes := 0, 0
	agree := true
	for _, sc := range e2Scenarios() {
		for seed := int64(0); seed < seeds; seed++ {
			res := protoRun(core.SimulatedFailStop, n, t, seed, sc)
			if !res.Quiescent() {
				continue
			}
			ab := res.History.DropTags(core.TagSusp)
			runs++
			gout, gst, gerr := rewrite.Graph(ab)
			sout, sst, serr := rewrite.Swaps(ab)
			if gerr != nil || serr != nil {
				continue
			}
			if rewrite.Verify(ab, gout) != nil || rewrite.Verify(ab, sout) != nil {
				continue
			}
			if v, allOK := checker.AllHold(checker.FS(gout)); !allOK {
				_ = v
				continue
			}
			successes++
			badPairs = append(badPairs, float64(gst.BadPairs))
			moves = append(moves, float64(sst.Moves))
			if gst.BadPairs != sst.BadPairs {
				agree = false
			}
		}
	}
	bp := stats.Summarize(badPairs)
	mv := stats.Summarize(moves)
	tbl := stats.NewTable("metric", "value")
	tbl.Row("sFS runs examined", runs)
	tbl.Row("isomorphic FS witness found+verified", successes)
	tbl.Row("success rate", fmt.Sprintf("%.1f%%", 100*float64(successes)/float64(runs)))
	tbl.Row("bad pairs per run (mean)", bp.Mean)
	tbl.Row("bad pairs per run (max)", bp.Max)
	tbl.Row("swap moves per run (mean)", mv.Mean)
	tbl.Row("swap moves per run (max)", mv.Max)
	tbl.Row("algorithms agree on bad pairs", agree)
	return Result{
		Table: tbl.String(),
		OK:    runs > 0 && successes == runs && agree,
		Notes: []string{"each witness is checked for validity, per-process isomorphism, FS1 and FS2"},
	}
}
