package experiments

import (
	"fmt"

	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/reliable"
	"failstop/internal/sim"
	"failstop/internal/stats"
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
		plan netadv.Plan
		// wantFS1Bare / wantFS1Rel: must FS1 hold on every seed without /
		// with reliable channels ("all"), fail on every seed ("none"), or
		// fail at least once ("some-fail")?
		wantFS1Bare, wantFS1Rel string
	}
	dropPlan := func(p float64) netadv.Plan {
		plan := netadv.Plan{Name: fmt.Sprintf("drop-%.2f", p)}
		if p > 0 {
			// Drop 0 is the fault-free baseline: an empty plan, since a rule
			// with no effect no longer validates.
			plan.Rules = []netadv.Rule{{Drop: p}}
		}
		return plan
	}
	healing, _ := netadv.Builtin("healing-partition")
	splitBrain, _ := netadv.Builtin("split-brain")
	scenarios := []scenario{
		{"drop 0.00", dropPlan(0), "all", "all"},
		{"drop 0.15", dropPlan(0.15), "some-fail", "all"},
		{"drop 0.35", dropPlan(0.35), "some-fail", "all"},
		{"healing-partition", healing.Make(n, t), "none", "all"},
		{"split-brain", splitBrain.Make(n, t), "none", "none"},
	}

	type cellStats struct {
		complete, fs1, safety int // runs on which each held
		retransmits, sent     int
	}
	run := func(plan netadv.Plan, rel bool) cellStats {
		var cs cellStats
		for seed := int64(1); seed <= seeds; seed++ {
			opts := cluster.Options{
				Sim:    sim.Config{N: n, Seed: seed},
				Det:    core.Config{N: n, T: t},
				Faults: &plan,
			}
			if rel {
				// Bounded stubbornness: 8 rounds with the default 40-tick
				// interval and 2x backoff span >3000 ticks, far past the
				// healing partition's tick-200 heal, while letting every
				// run drain (an unbounded link to the crashed process
				// would retransmit forever).
				opts.Reliable = reliable.Options{Enabled: true, MaxRetries: 8}
			}
			c := cluster.New(opts)
			c.CrashAt(15, 1)
			c.SuspectAt(20, 5, 1)
			res := c.Run()
			cs.retransmits += res.Retransmits
			cs.sent += res.Sent

			complete := true
			for p := model.ProcID(2); p <= n; p++ {
				if res.History.FailedIndex(p, 1) < 0 {
					complete = false
				}
			}
			if complete {
				cs.complete++
			}
			ab := checker.Abstract(res.History, core.TagSusp)
			if checker.FS1(ab).Holds {
				cs.fs1++
			}
			safe := checker.FS2(ab).Holds
			for _, v := range []checker.Verdict{
				checker.SFS2a(ab), checker.SFS2b(ab), checker.SFS2c(ab), checker.SFS2d(ab),
			} {
				safe = safe && v.Holds
			}
			if safe {
				cs.safety++
			}
		}
		return cs
	}

	frac := func(k int) string { return fmt.Sprintf("%d/%d", k, seeds) }
	overhead := func(cs cellStats) string {
		if cs.sent == 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(cs.retransmits)/float64(cs.sent))
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
	for _, sc := range scenarios {
		bare := run(sc.plan, false)
		rel := run(sc.plan, true)
		tbl.Row(sc.name, "off", frac(bare.complete), frac(bare.fs1), frac(bare.safety), bare.retransmits, overhead(bare))
		tbl.Row(sc.name, "on", frac(rel.complete), frac(rel.fs1), frac(rel.safety), rel.retransmits, overhead(rel))
		ok = ok &&
			bare.safety == seeds && rel.safety == seeds && // safety is loss-immune
			meets(sc.wantFS1Bare, bare.fs1) &&
			meets(sc.wantFS1Rel, rel.fs1) &&
			bare.fs1 == bare.complete && rel.fs1 == rel.complete && // FS1 == completeness here: 1 crash, 0 false suspicions
			bare.retransmits == 0 // the disabled layer must do no work
	}

	return Result{
		ID:    "E13",
		Title: "Figure 1 properties under lossy links, with and without reliable channels (ack/retransmit layer)",
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
