package netadv

import (
	"sort"

	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/topo"
)

// Generator is a named built-in plan family: Make instantiates the plan for
// a concrete cluster size n and failure bound t (group membership and fault
// intensity scale with both).
type Generator struct {
	Name string
	// Make builds the plan. A nil Make (the zero Generator) means no plan.
	Make func(n, t int) Plan
}

// Builtin returns the named built-in plan generator.
func Builtin(name string) (Generator, bool) {
	for _, g := range Builtins() {
		if g.Name == name {
			return g, true
		}
	}
	return Generator{}, false
}

// BuiltinNames lists the built-in plan names, sorted.
func BuiltinNames() []string {
	var out []string
	for _, g := range Builtins() {
		out = append(out, g.Name)
	}
	sort.Strings(out)
	return out
}

// Builtins returns every built-in plan generator:
//
//   - "split-brain": from tick 10 the cluster splits into two halves that
//     never heal. The majority half can still assemble minimum quorums; the
//     minority half starves: its detections begin but cannot complete.
//   - "isolated-minority": from tick 10 the t highest-numbered processes
//     are cut off from everyone else (and remain connected to each other).
//   - "one-way-cut": from tick 10 the highest-numbered process is mute —
//     its outbound links are cut one-directionally (explicit Pairs) while
//     inbound delivery keeps working. It can follow every detection round
//     but contributes nothing to anyone else's quorum.
//   - "flaky-quorum": every link drops 35% of the quorum protocol's "j
//     failed" messages for the whole run, and adds up to 5 ticks of jitter —
//     detection liveness now depends on which SUSP copies survive.
//   - "healing-partition": the split-brain split, lossy, with a scheduled
//     heal at tick 200: cross-half messages sent during the cut are dropped
//     for good, so a protocol that broadcasts once (like §5) starves even
//     after the heal — unless a retransmission layer (internal/reliable)
//     runs underneath it.
//   - "buffering-partition": the same split and heal, but buffering instead
//     of lossy (Hold): cross-half messages are delivered just after the
//     heal, modeling links that queue until connectivity returns.
//   - "moving-partition": from tick 10 the cut rotates instead of sitting
//     still — each process in turn is isolated (lossy, both directions) for
//     MovingPartitionStride ticks, cycling through the whole cluster
//     forever. At any instant exactly one process is dark, so a quorum of
//     n-1 survives among the rest; what the dark process broadcast into its
//     window is lost for good. This is the adversarial-timing family of
//     Gafni & Losa's "Time Is Not a Healer": no single partition lasts, yet
//     some process is always unreachable.
//   - "region-cut": the correlated-failure workload (internal/topo). The
//     cluster is read as two regions (hier:2x1); from tick 10 until the
//     heal at tick 200 every link crossing region 1's boundary is cut —
//     the second region loses its uplink wholesale, the way a real
//     datacenter region does, while links inside each region stay clean.
//     Quorums spanning the cut starve until the heal; with partial quorums
//     over a hierarchical topology, detections inside each region proceed.
//   - "byzantine-minority": the Byzantine workload (internal/byz). From
//     tick 10 the t highest-numbered processes turn traitor on the quorum
//     protocol's "j failed" traffic: victims alternate between equivocators
//     — each matching broadcast shows the two halves of the victim's
//     receivers different subjects, resealed so both variants authenticate,
//     plus a stale replay of the previous matching frame ByzReplayDelay
//     ticks late — and corruptors, whose every matching frame is mutated
//     without resealing and fails its MAC check. With the internal/byz
//     interposer on, every victim is convicted and masked into a crash;
//     with it off, forged SUSP traffic feeds the detectors directly.
//   - "restart-storm": the crash-recovery workload (internal/recovery).
//     The two highest-numbered processes crash and restart on staggered
//     periodic windows forever: each is down for RestartStormDowntime ticks
//     out of every RestartStormPeriod. Under recovery mode "off" the first
//     window is terminal (the fail-stop reading of the storm); under
//     "amnesia" the processes return blank; under "durable" they return
//     with their snapshotted detector and reliable-layer state. The storm
//     is unbounded, so runs need a horizon (sim MaxTime).
func Builtins() []Generator {
	return []Generator{
		{Name: "split-brain", Make: func(n, t int) Plan {
			return Plan{Name: "split-brain", Rules: []Rule{
				{From: 10, Cut: true, Links: LinkSet{Groups: halves(n)}},
			}}
		}},
		{Name: "isolated-minority", Make: func(n, t int) Plan {
			return Plan{Name: "isolated-minority", Rules: []Rule{
				{From: 10, Cut: true, Links: LinkSet{Groups: [][]model.ProcID{minority(n, t)}}},
			}}
		}},
		{Name: "one-way-cut", Make: func(n, t int) Plan {
			mute := model.ProcID(n)
			pairs := make([]Link, 0, n-1)
			for p := 1; p < n; p++ {
				pairs = append(pairs, Link{From: mute, To: model.ProcID(p)})
			}
			return Plan{Name: "one-way-cut", Rules: []Rule{
				{From: 10, Cut: true, Links: LinkSet{Pairs: pairs}},
			}}
		}},
		{Name: "flaky-quorum", Make: func(n, t int) Plan {
			return Plan{Name: "flaky-quorum", Rules: []Rule{
				{Tags: []string{core.TagSusp}, Drop: 0.35, JitterMax: 5},
			}}
		}},
		{Name: "healing-partition", Make: func(n, t int) Plan {
			return Plan{Name: "healing-partition", Rules: []Rule{
				{From: 10, Until: 200, Cut: true, Links: LinkSet{Groups: halves(n)}},
			}}
		}},
		{Name: "buffering-partition", Make: func(n, t int) Plan {
			return Plan{Name: "buffering-partition", Rules: []Rule{
				{From: 10, Until: 200, Hold: true, Links: LinkSet{Groups: halves(n)}},
			}}
		}},
		{Name: "moving-partition", Make: func(n, t int) Plan {
			// One periodic rule per process: rule p isolates process p for
			// one stride, staggered so the cut hands off seamlessly and
			// wraps around every n strides.
			cycle := int64(n) * MovingPartitionStride
			rules := make([]Rule, 0, n)
			for p := 1; p <= n; p++ {
				rules = append(rules, Rule{
					From:      10 + int64(p-1)*MovingPartitionStride,
					Period:    cycle,
					ActiveFor: MovingPartitionStride,
					Cut:       true,
					Links:     LinkSet{Groups: [][]model.ProcID{{model.ProcID(p)}}},
				})
			}
			return Plan{Name: "moving-partition", Rules: rules}
		}},
		{Name: "region-cut", Make: func(n, t int) Plan {
			return Plan{
				Name: "region-cut",
				Topo: &topo.Spec{Kind: topo.KindHier, Regions: 2, Racks: 1},
				Rules: []Rule{
					{From: 10, Until: 200, Cut: true, Links: LinkSet{Regions: []int{1}}},
				},
			}
		}},
		{Name: "byzantine-minority", Make: func(n, t int) Plan {
			victims := minority(n, t)
			rules := make([]ByzRule, 0, len(victims))
			for i, v := range victims {
				if i%2 == 0 && n >= 3 {
					// Equivocator: split the victim's receivers in half and
					// show each half a different (validly resealed) subject;
					// replay the previous matching frame long after it.
					rules = append(rules, ByzRule{
						Victim:      v,
						From:        10,
						Tags:        []string{core.TagSusp},
						Equivocate:  receiverHalves(n, v),
						Replay:      1,
						ReplayDelay: ByzReplayDelay,
					})
				} else {
					// Corruptor: every matching frame mutated without a
					// reseal — dead on arrival at any MAC check.
					rules = append(rules, ByzRule{
						Victim:  v,
						From:    10,
						Tags:    []string{core.TagSusp},
						Corrupt: 1,
					})
				}
			}
			return Plan{Name: "byzantine-minority", Byz: rules}
		}},
		{Name: "restart-storm", Make: func(n, t int) Plan {
			procs := []ProcRule{{
				Proc:      model.ProcID(n),
				CrashAt:   100,
				Period:    RestartStormPeriod,
				ActiveFor: RestartStormDowntime,
			}}
			if n >= 3 {
				// A second storm, staggered half a period, on the
				// next-highest process: two processes cycle through
				// downtime but never at the same phase.
				procs = append(procs, ProcRule{
					Proc:      model.ProcID(n - 1),
					CrashAt:   100 + RestartStormPeriod/2,
					Period:    RestartStormPeriod,
					ActiveFor: RestartStormDowntime,
				})
			}
			return Plan{Name: "restart-storm", Procs: procs}
		}},
	}
}

// MovingPartitionStride is how long the moving-partition builtin keeps each
// process isolated before the cut rotates on, in ticks.
const MovingPartitionStride = 60

// Restart-storm builtin timing: each stormed process crashes every
// RestartStormPeriod ticks and stays down for RestartStormDowntime of them.
const (
	RestartStormPeriod   = 400
	RestartStormDowntime = 150
)

// ByzReplayDelay is how late the byzantine-minority builtin's replayed
// frames arrive beyond the base delay, in ticks: a stale replay, long after
// the original has been delivered. The byz layer discards such a ghost as a
// repeated frame, so a replay costs the victim nothing but its traffic.
const ByzReplayDelay = 400

// receiverHalves splits {1..n} \ {v} — the equivocating victim v's
// receivers — into two halves, lower-numbered half first.
func receiverHalves(n int, v model.ProcID) [][]model.ProcID {
	recv := make([]model.ProcID, 0, n-1)
	for p := 1; p <= n; p++ {
		if model.ProcID(p) != v {
			recv = append(recv, model.ProcID(p))
		}
	}
	half := (len(recv) + 1) / 2
	return [][]model.ProcID{recv[:half], recv[half:]}
}

// halves splits 1..n into a majority half [1..ceil(n/2)] and the rest.
func halves(n int) [][]model.ProcID {
	maj := (n + 1) / 2
	a := make([]model.ProcID, 0, maj)
	b := make([]model.ProcID, 0, n-maj)
	for p := 1; p <= n; p++ {
		if p <= maj {
			a = append(a, model.ProcID(p))
		} else {
			b = append(b, model.ProcID(p))
		}
	}
	return [][]model.ProcID{a, b}
}

// minority returns the t highest-numbered processes (at least one, at most
// n-1, so somebody is always left on the majority side).
func minority(n, t int) []model.ProcID {
	k := t
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	out := make([]model.ProcID, 0, k)
	for p := n - k + 1; p <= n; p++ {
		out = append(out, model.ProcID(p))
	}
	return out
}
