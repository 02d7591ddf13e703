package experiments

import (
	"fmt"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/election"
	"failstop/internal/lastfail"
	"failstop/internal/membership"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/rewrite"
	"failstop/internal/sim"
	"failstop/internal/stats"
)

// E9 measures the §5 protocol's cost: total protocol messages, messages per
// detection, and detection latency as n grows — against the analytic shape
// Θ(n²) messages per failure event (every live process broadcasts once) and
// one round of latency.
func E9() Result {
	tbl := stats.NewTable("n", "t", "quorum", "SUSP msgs", "msgs per detection", "detections", "latency mean", "latency p95")
	ok := true
	for _, n := range []int{4, 8, 16, 32} {
		t := 2
		c := cluster.New(cluster.Options{
			Sim: sim.Config{N: n, Seed: 9, MinDelay: 1, MaxDelay: 10},
			Det: core.Config{N: n, T: t},
		})
		c.SuspectAt(10, 2, 1)
		res := c.Run()
		suspMsgs := 0
		for _, e := range res.History {
			if e.Kind == model.KindSend && e.Tag == core.TagSusp {
				suspMsgs++
			}
		}
		latencies := firstSuspicionLatencies(res.History)
		detections := len(latencies)
		lat := stats.Summarize(latencies)
		perDet := float64(suspMsgs) / float64(detections)
		tbl.Row(n, t, c.Detector(2).Config().QuorumSize, suspMsgs,
			fmt.Sprintf("%.1f", perDet), detections,
			fmt.Sprintf("%.1f", lat.Mean), fmt.Sprintf("%.1f", lat.P95))
		// Shape: each live process broadcasts once -> (n-1) broadcasts of
		// (n-1) messages each, within a factor accounting for the victim's
		// own echoes having been cut short by its crash.
		lo, hi := (n-2)*(n-1), n*(n-1)
		if suspMsgs < lo || suspMsgs > hi {
			ok = false
		}
		// One-round latency: bounded by ~2 max delays (suspicion broadcast +
		// echo), far below any multi-round scheme.
		if lat.Max > 4*10 {
			ok = false
		}
	}
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"one false suspicion; every live process echoes the broadcast once (SUSP ≡ ACK.SUSP merges the round's two halves)",
			"latency in ticks from the first suspicion; message delays uniform in [1,10], so one round ≤ ~2×10 ticks",
		},
	}
}

// E10 reproduces the §1 election discussion: under sFS, transient
// dual-leader global states occur but every run remains isomorphic to an
// FS run (internally unobservable); under the unilateral strawman, dual
// leadership is persistent and runs stop being FS-realizable.
func E10() Result {
	const seeds = 12
	type row struct {
		dualStates  int
		realizable  int
		staleClaims int
		undeadEnd   int // runs ending with >=2 self-believed live leaders
	}
	runProto := func(proto core.Protocol, t int) row {
		var r row
		for seed := int64(0); seed < seeds; seed++ {
			apps := make([]*election.Election, 8+1)
			c := cluster.New(cluster.Options{
				Sim: sim.Config{N: 8, Seed: seed, MinDelay: 1, MaxDelay: 10, MaxTime: 3000},
				Det: core.Config{N: 8, T: t, Protocol: proto},
				App: func(p model.ProcID) core.App {
					a := &election.Election{ClaimInterval: 25}
					apps[p] = a
					return a
				},
			})
			c.SuspectAt(50, 2, 1) // (possibly false) suspicion of the leader
			res := c.Run()
			if election.MaxSimultaneousLeaders(res.History) >= 2 {
				r.dualStates++
			}
			if rewrite.Realizable(res.History.DropTags(core.TagSusp)) {
				r.realizable++
			}
			r.staleClaims += election.StaleClaims(res.History)
			liveLeaders := 0
			for p := 1; p <= 8; p++ {
				if apps[p] != nil && apps[p].Leader() && !c.Detector(model.ProcID(p)).Crashed() {
					liveLeaders++
				}
			}
			if liveLeaders >= 2 {
				r.undeadEnd++
			}
		}
		return r
	}
	sfs := runProto(core.SimulatedFailStop, 2)
	uni := runProto(core.Unilateral, 1)
	tbl := stats.NewTable("protocol", "dual-leader states (transient)", "FS-realizable runs", "runs ending with 2 live leaders", "stale claims")
	tbl.Row("sfs", fmt.Sprintf("%d/%d", sfs.dualStates, seeds), fmt.Sprintf("%d/%d", sfs.realizable, seeds),
		fmt.Sprintf("%d/%d", sfs.undeadEnd, seeds), sfs.staleClaims)
	tbl.Row("unilateral", fmt.Sprintf("%d/%d", uni.dualStates, seeds), fmt.Sprintf("%d/%d", uni.realizable, seeds),
		fmt.Sprintf("%d/%d", uni.undeadEnd, seeds), uni.staleClaims)
	ok := sfs.realizable == seeds && sfs.undeadEnd == 0 &&
		uni.realizable == 0 && uni.undeadEnd == seeds
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"under sFS the deposed leader is guaranteed to crash (sFS2a): no run ends with two live leaders and every run has an FS witness",
			"stale claims (old leadership claims delivered late) occur under both and are FS-consistent — they are not evidence",
		},
	}
}

// E11 reproduces §6's last-process-to-fail discussion: the cheap model
// admits the two-process anomaly (recovery misled), sFS never does.
func E11() Result {
	tbl := stats.NewTable("protocol", "scenario", "candidates", "actual last", "misleading")
	// Cheap: the exact §6 story.
	apps, stores := lastfailApps(2)
	delay := func(from, to model.ProcID, p node.Payload, at int64) int64 {
		if from == 1 && to == 2 {
			return 100
		}
		return 10
	}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 2, Seed: 1, Delay: delay},
		Det: core.Config{N: 2, T: 2, Protocol: core.Cheap},
		App: apps,
	})
	c.SuspectAt(1, 1, 2)
	c.SuspectAt(5, 2, 1)
	res := c.Run()
	actual, _ := lastfail.ActualLast(res.History)
	v := lastfail.Recover(stores[1:])
	cheapMisleading := lastfail.Misleading(v, actual)
	tbl.Row("cheap", "§6 two-process anomaly", fmt.Sprintf("%v", v.Candidates), actual, cheapMisleading)

	// sFS: mutual suspicion across seeds; survivors then fail without
	// further detections (total failure) — recovery must never mislead.
	misleadingSFS := 0
	const seeds = 10
	for seed := int64(0); seed < seeds; seed++ {
		apps, stores := lastfailApps(5)
		c := cluster.New(cluster.Options{
			Sim: sim.Config{N: 5, Seed: seed, MinDelay: 1, MaxDelay: 20},
			Det: core.Config{N: 5, T: 2, Protocol: core.SimulatedFailStop},
			App: apps,
		})
		c.SuspectAt(1, 1, 2)
		c.SuspectAt(1, 2, 1)
		res := c.Run()
		// Everyone eventually goes down; the in-run victims crashed first,
		// so the actual last process to fail is one of the survivors.
		for _, s := range stores[1:] {
			s.Crashed = true
		}
		v := lastfail.Recover(stores[1:])
		for _, cand := range v.Candidates {
			if res.History.CrashIndex(cand) >= 0 {
				misleadingSFS++ // an in-run victim claims to have died last
			}
		}
	}
	tbl.Row("sfs", fmt.Sprintf("mutual suspicion × %d seeds", seeds), "victims never qualify", "-", misleadingSFS > 0)
	return Result{
		Table: tbl.String(),
		OK:    cheapMisleading && misleadingSFS == 0,
		Notes: []string{
			"cheap anomaly: both processes' stable stores qualify as 'detected everyone else' — recovering process 1 wrongly concludes it failed last",
			"under sFS the failed-before relation is acyclic, so a victim can never have detected its own detector",
		},
	}
}

func lastfailApps(n int) (func(model.ProcID) core.App, []*lastfail.Store) {
	stores := make([]*lastfail.Store, n+1)
	return func(p model.ProcID) core.App {
		s := lastfail.NewStore(p)
		stores[p] = s
		return &lastfail.Recorder{Stable: s}
	}, stores
}

// E12 quantifies §6's cost trade-off: sFS pays a quorum round and app-level
// gating for acyclicity; the cheap model detects instantly but admits
// cycles. Measured with gossiping membership traffic in the background.
func E12() Result {
	const n, seeds = 10, 8
	type row struct {
		suspMsgs   int
		detLatency []float64
		appLatency []float64
		cycles     int
		violations int
	}
	measure := func(proto core.Protocol) row {
		var r row
		for seed := int64(0); seed < seeds; seed++ {
			c := cluster.New(cluster.Options{
				Sim: sim.Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 10, MaxTime: 2500},
				Det: core.Config{N: n, T: 3, Protocol: proto},
				App: func(p model.ProcID) core.App {
					return &membership.Service{GossipInterval: 40}
				},
			})
			c.SuspectAt(100, 1, 2)
			c.SuspectAt(100, 2, 1)
			res := c.Run()
			for _, e := range res.History {
				if e.Kind == model.KindSend && e.Tag == core.TagSusp {
					r.suspMsgs++
				}
			}
			r.detLatency = append(r.detLatency, firstSuspicionLatencies(res.History)...)
			r.appLatency = append(r.appLatency, appLatencies(res.History)...)
			if !model.NewFailedBefore(res.History).Acyclic() {
				r.cycles++
			}
			r.violations += membership.ObservedViolations(res.History)
		}
		return r
	}
	tbl := stats.NewTable("protocol", "SUSP msgs/run", "detect latency mean", "app msg latency mean", "cyclic runs", "view violations")
	var rows = map[string]row{}
	for _, proto := range []core.Protocol{core.SimulatedFailStop, core.Cheap} {
		r := measure(proto)
		rows[proto.String()] = r
		tbl.Row(proto.String(),
			r.suspMsgs/seeds,
			fmt.Sprintf("%.1f", stats.Summarize(r.detLatency).Mean),
			fmt.Sprintf("%.1f", stats.Summarize(r.appLatency).Mean),
			fmt.Sprintf("%d/%d", r.cycles, seeds),
			r.violations)
	}
	sfs, cheap := rows["sfs"], rows["cheap"]
	sfsLat := stats.Summarize(sfs.detLatency).Mean
	cheapLat := stats.Summarize(cheap.detLatency).Mean
	ok := sfs.cycles == 0 && cheap.cycles > 0 &&
		cheapLat < sfsLat && // cheap detects strictly faster (no quorum wait)
		sfs.violations == 0 && cheap.violations == 0 // both keep sFS2d
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"mutual suspicion under gossip traffic; 'cyclic runs' is the §6 price — any protocol sensitive to cyclic detection (e.g. last-to-fail) is broken by it",
			"view violations stay zero for both: sFS2d survives the cheap weakening (only sFS2b is lost)",
		},
	}
}
