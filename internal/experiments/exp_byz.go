package experiments

import (
	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/stats"
	"failstop/internal/sweep"
)

// E16 measures the Byzantine-to-crash demotion the validation interposer
// implements: under a fault plane that corrupts, equivocates, and replays
// the traffic of a Byzantine minority, does the quorum protocol stay
// accurate — nobody innocent ever detected — and does every misbehaving
// process get demoted to an honest crash?
//
// The paper's protocols assume fail-stop processes; a Byzantine sender
// breaks them silently. E16 runs each corruption/equivocation mix twice,
// with the interposer off and on:
//
//   - off: forged SUSP subjects feed the detectors directly. The honest
//     majority adopts fabricated suspicions and completes detections of
//     processes that neither crashed nor misbehaved — accuracy fails.
//   - on: every mutated frame dies at the MAC or echo-consistency check,
//     the origin is convicted, and the §5 masking path crashes it out of
//     the membership. Accuracy holds on every seed, and each Byzantine
//     victim is detected as a crashed process by the honest majority.
//
// Accuracy (checker.Accuracy) replaces FS2 here: conviction races the
// recorded crash order, so crash-precedes-detection is unachievable even
// when every conviction is correct. What must survive is that detections
// only ever target the plan's crash victims and its Byzantine victims.
func E16() Result {
	const (
		n, t  = 5, 2
		seeds = 10
	)
	// Each mix spends the failure budget t on Byzantine victims alone:
	// every demotion removes an echo witness from the quorum of
	// (n-1)/2+1, so a ladder that also crashed an honest process would
	// leave too few live echoers to release held SUSP frames and stall
	// the detections it is trying to measure. All mutation probabilities
	// are 1: a Byzantine process that sends a well-formed lie ("I
	// suspect 3") is indistinguishable from an honest false suspicion,
	// so only always-mutated traffic is fully maskable.
	type mix struct {
		name    string
		rules   []netadv.ByzRule
		victims []model.ProcID
	}
	halves5 := [][]model.ProcID{{1, 2}, {3, 4}}
	halves4 := [][]model.ProcID{{1, 2}, {3, 5}}
	mixes := []mix{
		{
			name:    "f=1 corrupt",
			rules:   []netadv.ByzRule{{Victim: 5, From: 10, Tags: []string{core.TagSusp}, Corrupt: 1}},
			victims: []model.ProcID{5},
		},
		{
			name:    "f=1 equivocate",
			rules:   []netadv.ByzRule{{Victim: 5, From: 10, Tags: []string{core.TagSusp}, Equivocate: halves5}},
			victims: []model.ProcID{5},
		},
		{
			name: "f=1 corrupt+replay",
			rules: []netadv.ByzRule{{
				Victim: 5, From: 10, Tags: []string{core.TagSusp},
				Corrupt: 1, Replay: 1, ReplayDelay: 400,
			}},
			victims: []model.ProcID{5},
		},
		{
			name: "f=2 corrupt+equivocate",
			rules: []netadv.ByzRule{
				{Victim: 4, From: 10, Tags: []string{core.TagSusp}, Equivocate: halves4},
				{Victim: 5, From: 10, Tags: []string{core.TagSusp}, Corrupt: 1},
			},
			victims: []model.ProcID{4, 5},
		},
	}

	tbl := stats.NewTable("mix", "interposer", "accuracy", "sFS2b-d", "demoted", "byz detected", "byz masked")
	ok := true
	for _, m := range mixes {
		allowed := map[model.ProcID]bool{}
		for _, v := range m.victims {
			allowed[v] = true
		}
		rep, err := sweep.Run(sweep.Spec{
			Grid: []sweep.NT{{N: n, T: t}},
			// The Byzantine victims lie: false suspicions of honest
			// processes, mutated in flight by the plan.
			Schedules: []sweep.Schedule{{Name: "lies", Faults: func(sweep.NT, int64) []sweep.Fault {
				fs := []sweep.Fault{{Kind: sweep.FaultSuspect, At: 20, Proc: 5, Target: 3}}
				if len(m.victims) > 1 {
					fs = append(fs, sweep.Fault{Kind: sweep.FaultSuspect, At: 24, Proc: 4, Target: 2})
				}
				return fs
			}}},
			Plans:     []netadv.Generator{netadv.Fixed(netadv.Plan{Name: "e16-" + m.name, Byz: m.rules})},
			Byzantine: []byz.Options{{}, {Enabled: true}},
			Seeds:     sweep.SeedRange{Start: 1, Count: seeds},
			MaxTime:   5000,
			Observe: func(cell sweep.Cell, _ int64, out sweep.RunOutput) map[string]bool {
				// Check on the application-visible history, as the facade
				// does: the protocol's SUSP traffic and the interposer's echo
				// broadcasts are transport, not observable behavior.
				h := checker.Abstract(out.Result.History, core.TagSusp)
				// Demotion: every Byzantine victim ends up detected as a
				// crashed process by some honest survivor.
				demoted := true
				for _, v := range m.victims {
					found := false
					for honest := model.ProcID(1); honest <= n; honest++ {
						if honest != v && !allowed[honest] && h.FailedIndex(honest, v) >= 0 {
							found = true
							break
						}
					}
					demoted = demoted && found
				}
				return map[string]bool{
					"accuracy": checker.Accuracy(h, allowed).Holds,
					"safety":   checker.SFS2b(h).Holds && checker.SFS2c(h).Holds && checker.SFS2d(h).Holds,
					"demoted":  cell.Byzantine && demoted,
				}
			},
		}, sweep.Options{})
		if err != nil {
			return Result{Notes: []string{err.Error()}}
		}
		for i := range rep.Cells { // the interposer off, then on
			c := &rep.Cells[i]
			mode := "off"
			if c.Cell.Byzantine {
				mode = "on"
			}
			detected, masked := c.Obs["byz_detected_total"], c.Obs["byz_masked_total"]
			tbl.Row(m.name, mode, frac(c, "accuracy"), frac(c, "safety"), frac(c, "demoted"), detected, masked)
			if c.Cell.Byzantine {
				// Masking restores accuracy and safety on every seed,
				// convicts in every cell, and demotes every victim to a
				// detected crash.
				ok = ok && c.MetricAll("accuracy") && c.MetricAll("safety") &&
					c.MetricAll("demoted") && detected > 0
			} else {
				// Bare detectors adopt forged suspicions: accuracy is
				// violated on at least one seed of every mix, and the
				// interposer counters stay silent.
				ok = ok && !c.MetricAll("accuracy") && detected == 0 && masked == 0
			}
		}
	}

	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"n=5 t=2, 10 seeds per cell; the failure budget is spent on Byzantine victims (f=1: process 5, f=2: processes 4 and 5) whose false suspicions the plan mutates in flight",
			"off: forged SUSP subjects reach the detectors; the honest majority adopts them and detects innocent processes — accuracy fails",
			"on: every mutated frame dies at the MAC or echo-consistency check; the origin is convicted and crashed via the §5 masking path — accuracy holds on every seed",
			"demotion: with the interposer on, every Byzantine victim is eventually detected as a crashed process by an honest survivor",
			"only always-mutated traffic is maskable: a Byzantine process sending well-formed lies is indistinguishable from an honest false suspicion",
		},
	}
}
