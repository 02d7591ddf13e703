package experiments

import (
	"fmt"

	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/reliable"
	"failstop/internal/stats"
	"failstop/internal/sweep"
)

// E13 measures which of Figure 1's properties survive lossy asynchrony and
// which require reliable channels. The paper's model assumes reliable FIFO
// links; E13 drops that assumption — a drop-probability ladder, a healing
// partition, and a permanent split-brain — and runs the same crash scenario
// with and without the internal/reliable ack/retransmit layer.
//
// Expected split: the safety properties (FS2, sFS2a–d) are loss-immune —
// losing messages only removes events, and none of them quantifies
// existentially over message arrivals. The liveness property FS1 (strong
// completeness: every crash is eventually detected by every correct
// process) is exactly the property lossy links break, and retransmission
// restores it wherever connectivity eventually exists: on the drop ladder
// and across the healing partition, but NOT across a permanent partition —
// no amount of retransmission outruns a cut that never heals.
func E13() Result {
	const (
		n, t  = 5, 2
		seeds = 12
	)
	type scenario struct {
		name string
		plan netadv.Generator
		// wantFS1Bare / wantFS1Rel: must FS1 hold on every seed without /
		// with reliable channels ("all"), fail on every seed ("none"), or
		// fail at least once ("some-fail")?
		wantFS1Bare, wantFS1Rel string
	}
	healing, _ := netadv.Builtin("healing-partition")
	splitBrain, _ := netadv.Builtin("split-brain")
	scenarios := []scenario{
		{"drop 0.00", dropPlan(0), "all", "all"},
		{"drop 0.15", dropPlan(0.15), "some-fail", "all"},
		{"drop 0.35", dropPlan(0.35), "some-fail", "all"},
		{"healing-partition", healing, "none", "all"},
		{"split-brain", splitBrain, "none", "none"},
	}
	plans := make([]netadv.Generator, len(scenarios))
	for i, sc := range scenarios {
		plans[i] = sc.plan
	}

	rep, err := sweep.Run(sweep.Spec{
		Grid:      []sweep.NT{{N: n, T: t}},
		Schedules: []sweep.Schedule{crashOne(5)},
		Plans:     plans,
		// Bounded stubbornness: 8 rounds with the default 40-tick interval
		// and 2x backoff span >3000 ticks, far past the healing partition's
		// tick-200 heal, while letting every run drain (an unbounded link to
		// the crashed process would retransmit forever).
		Reliable: []reliable.Options{{}, {Enabled: true, MaxRetries: 8}},
		Seeds:    sweep.SeedRange{Start: 1, Count: seeds},
		Observe: func(_ sweep.Cell, _ int64, out sweep.RunOutput) map[string]bool {
			h := out.Result.History
			complete := true
			for p := model.ProcID(2); p <= n; p++ {
				if h.FailedIndex(p, 1) < 0 {
					complete = false
				}
			}
			ab := checker.Abstract(h, core.TagSusp)
			return map[string]bool{
				"complete": complete,
				"FS1":      checker.FS1(ab).Holds,
				"safety":   safe(ab),
			}
		},
	}, sweep.Options{})
	if err != nil {
		return Result{Notes: []string{err.Error()}}
	}

	meets := func(want string, held int) bool {
		switch want {
		case "all":
			return held == seeds
		case "none":
			return held == 0
		case "some-fail":
			return held < seeds
		}
		return false
	}

	tbl := stats.NewTable("scenario", "reliable", "crash detected by all", "FS1", "FS2+sFS2a-d", "retransmits", "overhead")
	ok := true
	for i, sc := range scenarios {
		// Cells run plan-major, reliable off then on within each plan.
		bare, rel := &rep.Cells[2*i], &rep.Cells[2*i+1]
		for _, c := range []*sweep.CellResult{bare, rel} {
			mode := "off"
			if c.Cell.Reliable {
				mode = "on"
			}
			retransmits, sent := c.Obs["reliable_retransmits_total"], c.Obs["sim_sent_total"]
			overhead := "0.0%"
			if sent > 0 {
				overhead = fmt.Sprintf("%.1f%%", 100*float64(retransmits)/float64(sent))
			}
			tbl.Row(sc.name, mode, frac(c, "complete"), frac(c, "FS1"), frac(c, "safety"), retransmits, overhead)
		}
		ok = ok &&
			bare.MetricAll("safety") && rel.MetricAll("safety") && // safety is loss-immune
			meets(sc.wantFS1Bare, bare.Metrics["FS1"]) &&
			meets(sc.wantFS1Rel, rel.Metrics["FS1"]) &&
			// FS1 == completeness here: 1 crash, 0 false suspicions
			bare.Metrics["FS1"] == bare.Metrics["complete"] && rel.Metrics["FS1"] == rel.Metrics["complete"] &&
			bare.Obs["reliable_retransmits_total"] == 0 // the disabled layer must do no work
	}

	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"crash_1@15, suspicion by minority process 5@20; n=5 t=2, quorum 3; 12 seeds per cell",
			"safety (FS2, sFS2a-d) holds unconditionally: losing messages only removes events",
			"FS1 (strong completeness) requires reliable channels under loss, and heals with the partition",
			"no retransmission regime recovers a permanent split-brain: FS1 needs eventual connectivity",
			"overhead = retransmitted frames / total sends; nonzero even at drop 0 because the layer keeps re-offering frames to the crashed process until MaxRetries",
		},
	}
}

// crashOne is E13's and E15's fault script: process 1 crashes at tick 15
// and witness suspects it at tick 20.
func crashOne(witness model.ProcID) sweep.Schedule {
	return sweep.Schedule{
		Name: "crash_1@15",
		Faults: func(sweep.NT, int64) []sweep.Fault {
			return []sweep.Fault{
				{Kind: sweep.FaultCrash, At: 15, Proc: 1},
				{Kind: sweep.FaultSuspect, At: 20, Proc: witness, Target: 1},
			}
		},
	}
}

// dropPlan is the drop-ladder plan that loses every message with
// probability p. Drop 0 is the fault-free baseline: an empty plan, since a
// rule with no effect does not validate.
func dropPlan(p float64) netadv.Generator {
	name := fmt.Sprintf("drop-%.2f", p)
	return netadv.Generator{Name: name, Make: func(n, t int) netadv.Plan {
		plan := netadv.Plan{Name: name}
		if p > 0 {
			plan.Rules = []netadv.Rule{{Drop: p}}
		}
		return plan
	}}
}

// safe reports the safety conjunction FS2 ∧ sFS2a–d on an abstract history.
func safe(ab model.History) bool {
	for _, v := range []checker.Verdict{
		checker.FS2(ab), checker.SFS2a(ab), checker.SFS2b(ab), checker.SFS2c(ab), checker.SFS2d(ab),
	} {
		if !v.Holds {
			return false
		}
	}
	return true
}
