package experiments

import (
	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/netadv"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
	"failstop/internal/stats"
	"failstop/internal/sweep"
)

// E15 measures which of Figure 1's properties survive crash-recovery, and
// what a restarted process must remember for them to survive. The paper's
// model is fail-stop — crash_p is final — so every property is stated
// against processes that stay down. E15 deviates: the environment crashes
// and restarts the witness process mid-detection, under all three recovery
// modes (internal/recovery), across a restart-frequency x drop ladder.
//
// The scenario traps the only evidence of a crash inside the witness:
// process 1 genuinely crashes, process 2 suspects it and broadcasts SUSP —
// but a transient cut isolates 2 from everyone until after 2 itself is
// crashed by the environment. The SUSP frames sit unacked in 2's reliable
// endpoint; 2's suspicion lives only in its detector state. What happens
// next is pure recovery policy:
//
//   - off: 2 never returns; the evidence dies with it. FS1 fails.
//   - amnesia: 2 returns blank — no suspicion, no unacked frames, and the
//     stubborn link's resend path has nothing to resend. FS1 fails.
//   - durable: 2 returns with its snapshot; the restored endpoint re-arms
//     its unacked SUSP frames and the stubborn retransmission completes
//     the detection after the cut heals. FS1 holds.
//
// Safety (FS2, sFS2a-d) holds in every cell: restarts only remove or
// replay evidence, they cannot forge a detection. That split — liveness
// needs persistence, safety does not — is the YOLMT observation this
// experiment pins down.
func E15() Result {
	const (
		n, t  = 5, 2
		seeds = 10
	)
	type scenario struct {
		name string
		// storm: 0 is the one-shot crash/restart; otherwise process 2
		// crashes every storm ticks (bounded by Until) for 50 ticks.
		storm int64
		drop  float64
	}
	scenarios := []scenario{
		{"one-shot", 0, 0},
		{"one-shot drop 0.20", 0, 0.20},
		{"storm /300", 300, 0},
		{"storm /300 drop 0.20", 300, 0.20},
		{"storm /150 drop 0.20", 150, 0.20},
	}
	plans := make([]netadv.Generator, len(scenarios))
	for i, sc := range scenarios {
		// The witness trap: cut 2 -> {3,4,5} from before the suspicion
		// until after the environment crash, so the SUSP broadcast is
		// still unacked when 2 goes down at tick 30.
		pairs := []netadv.Link{{From: 2, To: 3}, {From: 2, To: 4}, {From: 2, To: 5}}
		plan := netadv.Plan{Name: sc.name, Rules: []netadv.Rule{{From: 15, Until: 60, Cut: true, Links: netadv.LinkSet{Pairs: pairs}}}}
		if sc.drop > 0 {
			plan.Rules = append(plan.Rules, netadv.Rule{Drop: sc.drop})
		}
		if sc.storm > 0 {
			plan.Procs = []netadv.ProcRule{{Proc: 2, CrashAt: 30, Period: sc.storm, ActiveFor: 50, Until: 1500}}
		} else {
			plan.Procs = []netadv.ProcRule{{Proc: 2, CrashAt: 30, RestartAt: 80}}
		}
		plans[i] = netadv.Fixed(plan)
	}
	modes := []recovery.Mode{recovery.Off, recovery.Amnesia, recovery.Durable}

	rep, err := sweep.Run(sweep.Spec{
		Grid:      []sweep.NT{{N: n, T: t}},
		Schedules: []sweep.Schedule{crashOne(2)},
		Plans:     plans,
		// Bounded stubbornness, as in E13: enough rounds to outlive the
		// tick-60 heal and every storm window, while letting runs drain.
		Reliable: []reliable.Options{{Enabled: true, MaxRetries: 8}},
		Recovery: modes,
		Seeds:    sweep.SeedRange{Start: 1, Count: seeds},
		Observe: func(_ sweep.Cell, _ int64, out sweep.RunOutput) map[string]bool {
			ab := checker.Abstract(out.Result.History, core.TagSusp)
			return map[string]bool{
				// FS1At, not FS1: under off/amnesia the bystanders {3,4,5}
				// are entirely silent, so inferring n from the history would
				// drop them and pass FS1 vacuously.
				"FS1":    checker.FS1At(ab, n).Holds,
				"safety": safe(ab),
			}
		},
	}, sweep.Options{})
	if err != nil {
		return Result{Notes: []string{err.Error()}}
	}

	tbl := stats.NewTable("scenario", "recovery", "FS1", "FS2+sFS2a-d", "restarts", "recovered")
	ok := true
	for i, sc := range scenarios {
		for j, mode := range modes {
			c := &rep.Cells[len(modes)*i+j] // plan-major, then recovery mode
			restarts, recovered := c.Obs["sim_restarts_total"], c.Obs["sim_recovered_total"]
			tbl.Row(sc.name, mode.String(), frac(c, "FS1"), frac(c, "safety"), restarts, recovered)
			// Safety survives every mode; FS1 survives exactly durable.
			ok = ok && c.MetricAll("safety")
			switch mode {
			case recovery.Durable:
				ok = ok && c.MetricAll("FS1") && recovered == restarts && restarts > 0
			case recovery.Amnesia:
				ok = ok && c.MetricNone("FS1") && recovered == 0 && restarts > 0
			case recovery.Off:
				ok = ok && c.MetricNone("FS1") && restarts == 0
			}
		}
	}

	// The registry-level claim: at least one Figure 1 property (FS1) holds
	// under durable recovery and fails under amnesia, in every cell.
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"crash_1@15; witness 2 suspects at 20 behind a 2->{3,4,5} cut (ticks 15..60); environment crashes 2 at 30; n=5 t=2; 10 seeds per cell",
			"off: the witness never returns — FS1 fails (crash_1 undetected by the live majority)",
			"amnesia: the witness returns blank; nothing resends the trapped SUSP frames — FS1 fails on every seed",
			"durable: the restored endpoint re-arms its unacked frames and the stubborn link completes the detection — FS1 holds on every seed, across every storm frequency and drop rate",
			"safety (FS2, sFS2a-d) holds in every cell: restarts remove or replay evidence, they cannot forge a detection",
		},
	}
}
