package experiments

import (
	"fmt"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/membership"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/sim"
	"failstop/internal/stats"
)

// A1 ablates the sFS2d gating rule: the precise per-sender rule (defer an
// application receive from s only while owing a detection s announced)
// versus §5's literal "take no other action" (defer all application
// receives while any detection is in progress). Both satisfy sFS2d; the
// ablation measures what the literal rule costs in application latency.
func A1() Result {
	const n, seeds = 10, 8
	measure := func(strict bool) (appLat []float64, violations int) {
		for seed := int64(0); seed < seeds; seed++ {
			c := cluster.New(cluster.Options{
				Sim: sim.Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 10, MaxTime: 2500},
				Det: core.Config{N: n, T: 3, StrictGating: strict},
				App: func(p model.ProcID) core.App {
					return &membership.Service{GossipInterval: 30}
				},
			})
			c.SuspectAt(100, 1, 2)
			c.SuspectAt(140, 3, 4)
			res := c.Run()
			appLat = append(appLat, appLatencies(res.History)...)
			violations += membership.ObservedViolations(res.History)
		}
		return appLat, violations
	}
	preciseLat, pv := measure(false)
	strictLat, sv := measure(true)
	p, s := stats.Summarize(preciseLat), stats.Summarize(strictLat)
	tbl := stats.NewTable("gating", "app msgs delivered", "app latency mean", "app latency p95", "sFS2d violations")
	tbl.Row("precise (per-sender)", p.N, fmt.Sprintf("%.1f", p.Mean), fmt.Sprintf("%.1f", p.P95), pv)
	tbl.Row("strict (§5 literal)", s.N, fmt.Sprintf("%.1f", s.Mean), fmt.Sprintf("%.1f", s.P95), sv)
	ok := pv == 0 && sv == 0 && p.N > 0 && s.N > 0 && s.Mean >= p.Mean
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"both rules preserve sFS2d (zero view-monotonicity violations); the literal rule only adds latency",
			"gossiping membership traffic during two overlapping detection rounds",
		},
	}
}

// A2 ablates the quorum policy (§4 describes both): FixedQuorum waits for
// ⌊n(t-1)/t⌋+1 senders and requires n > t²; AllButSuspected waits for every
// unsuspected process and requires only t < n but must hear from everyone.
func A2() Result {
	const n = 12
	type row struct {
		detections int
		latency    stats.Summary
		quorumMean float64
	}
	measure := func(policy core.QuorumPolicy, t int) row {
		var lats []float64
		var qsizes []float64
		detections := 0
		for seed := int64(0); seed < 8; seed++ {
			c := cluster.New(cluster.Options{
				Sim: sim.Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 10},
				Det: core.Config{N: n, T: t, Policy: policy},
			})
			c.SuspectAt(10, 2, 1)
			res := c.Run()
			l := firstSuspicionLatencies(res.History)
			detections += len(l)
			lats = append(lats, l...)
			for p := 1; p <= n; p++ {
				for _, q := range c.Detector(model.ProcID(p)).Quorums() {
					qsizes = append(qsizes, float64(len(q)))
				}
			}
		}
		return row{detections: detections, latency: stats.Summarize(lats), quorumMean: stats.Summarize(qsizes).Mean}
	}
	fixed := measure(core.FixedQuorum, 3)
	all := measure(core.AllButSuspected, 3)
	tbl := stats.NewTable("policy", "detections (8 runs)", "quorum size mean", "latency mean", "latency p95")
	tbl.Row("FixedQuorum  (needs n>t²)", fixed.detections, fmt.Sprintf("%.1f", fixed.quorumMean),
		fmt.Sprintf("%.1f", fixed.latency.Mean), fmt.Sprintf("%.1f", fixed.latency.P95))
	tbl.Row("AllButSuspected (needs t<n)", all.detections, fmt.Sprintf("%.1f", all.quorumMean),
		fmt.Sprintf("%.1f", all.latency.Mean), fmt.Sprintf("%.1f", all.latency.P95))
	ok := fixed.detections > 0 && all.detections > 0 &&
		all.quorumMean > fixed.quorumMean && // waits for strictly more processes
		all.latency.Mean >= fixed.latency.Mean
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"AllButSuspected buys a weaker replication requirement (t < n instead of n > t²) by waiting for more acknowledgements",
		},
	}
}

// A3 explores the §6 future work ("stronger versions of fail-stop"): the
// transitivity of the failed-before relation. The model allows intransitive
// runs, and the cheap protocol produces them; the §5 protocol's minimum
// quorums turn out to forbid them structurally (any two quorums overlap in
// more than 2q-n processes, and FIFO delivers what the overlap knew), with
// or without the explicit Piggyback ordering.
func A3() Result {
	// The scenario of TestFailedBeforeTransitivityByProtocol: round 1
	// (target 1) isolated from processes 4 and 10; round 2 (target 2)
	// initiated by 4, so only cheap's quorum-of-one lets 10 detect 2
	// without knowing of 1.
	park := func(from, to model.ProcID, p node.Payload, at int64) int64 {
		if (to == 10 || to == 4) && p.Tag == core.TagSusp && p.Subject == 1 {
			return -1
		}
		return 2
	}
	type row struct {
		transitive     bool
		outOfOrderDet  bool
		detectionsAt10 int
	}
	measure := func(proto core.Protocol, piggyback bool) row {
		c := cluster.New(cluster.Options{
			Sim: sim.Config{N: 10, Seed: 1, Delay: park},
			Det: core.Config{N: 10, T: 2, Protocol: proto, Piggyback: piggyback},
		})
		c.SuspectAt(5, 2, 1)
		c.SuspectAt(100, 4, 2)
		res := c.Run()
		d10 := c.Detector(10)
		return row{
			transitive:     model.NewFailedBefore(res.History).Transitive(),
			outOfOrderDet:  d10.Detected(2) && !d10.Detected(1),
			detectionsAt10: len(d10.DetectedSet()),
		}
	}
	cheap := measure(core.Cheap, false)
	plain := measure(core.SimulatedFailStop, false)
	pig := measure(core.SimulatedFailStop, true)
	tbl := stats.NewTable("protocol", "failed-before transitive", "out-of-order detection at 10", "detections at 10")
	tbl.Row("cheap", cheap.transitive, cheap.outOfOrderDet, cheap.detectionsAt10)
	tbl.Row("sfs (min quorums)", plain.transitive, plain.outOfOrderDet, plain.detectionsAt10)
	tbl.Row("sfs + piggyback", pig.transitive, pig.outOfOrderDet, pig.detectionsAt10)
	ok := !cheap.transitive && cheap.outOfOrderDet &&
		plain.transitive && !plain.outOfOrderDet &&
		pig.transitive && !pig.outOfOrderDet
	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			"§6 notes that a transitive relation enables immediate last-to-fail recovery and that the sFS MODEL is not transitive",
			"finding: the §5 protocol with minimum quorums never generated an intransitive relation — quorum overlap (2q > n) plus FIFO carries knowledge of earlier detections with every quorum",
			"the Piggyback option makes that ordering explicit (and provable locally) at the cost of extra blocking",
		},
	}
}
