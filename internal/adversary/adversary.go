// Package adversary builds the adversarial schedules used in the paper's
// proofs, so that the lower bounds can be demonstrated (not just asserted)
// on the real protocol implementation:
//
//   - Theorem3Run: the exact four-process history from the proof of
//     Theorem 3 — satisfies Conditions 1–3 yet is isomorphic to no FS run.
//   - RunCycleScenario: the Appendix A.3 schedule, adapted to the §5
//     echo protocol, that manufactures a k-cycle in the failed-before
//     relation whenever quorums are smaller than Theorem 7's bound, and
//     demonstrably stalls (no cycle) at the bound.
//   - HeartbeatSpike: the Theorem 1 dilemma — a delay spike that makes any
//     finite timeout produce a false suspicion.
//
// The cycle schedule in detail. Processes 1..k form the ring: the run
// should end with failed_1(2), failed_2(3), ..., failed_k(1). Every process
// p is assigned an "exclusion" exc(p) ∈ 1..k (ring members exclude
// themselves; helpers are assigned round-robin, giving the balanced sets
// S_1..S_k of the Theorem 7 proof) and suspects all ring targets in
// descending rotation order starting at exc(p):
//
//	ord(p) = exc, exc-1, ..., 1, k, k-1, ..., exc+1   (minus p itself)
//
// All SUSP messages are delayed uniformly past the last scripted suspicion,
// and every "you failed" message is parked forever — FIFO then parks
// everything queued behind it, which is precisely how the witness argument
// (Lemma 9) is evaded. A process with exclusion e broadcasts "e failed"
// first, so its channel to e is parked from the start and it supports every
// ring detector except e. Detector i therefore hears "i+1 failed" from
// exactly n - |S_{i+1}| processes (itself included, its target excluded):
// with balanced sets that is n - ⌈n/k⌉ = MinSize(n,k) - 1. Quorums of that
// size complete and have empty intersection (no witness) — the cycle forms.
// One more — Theorem 7's minimum — and every detection stalls.
package adversary

import (
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/quorum"
	"failstop/internal/sim"
)

// Theorem3Run returns the counterexample history from the proof of
// Theorem 3, with the paper's processes x, a, b, y mapped to 1, 2, 3, 4:
//
//	failed_y(x); send_y(a,m); recv_a(y,m); crash_a;
//	failed_b(a); send_b(x,m'); recv_x(b,m'); crash_x
//
// The history satisfies Conditions 1–3 but is isomorphic to no run
// satisfying FS (rewrite.Realizable returns false).
func Theorem3Run() model.History {
	const (
		x = model.ProcID(1)
		a = model.ProcID(2)
		b = model.ProcID(3)
		y = model.ProcID(4)
	)
	return model.History{
		model.Failed(y, x),
		model.Send(y, a, 1, "m", model.None),
		model.Recv(a, y, 1, "m", model.None),
		model.Crash(a),
		model.Failed(b, a),
		model.Send(b, x, 2, "m", model.None),
		model.Recv(x, b, 2, "m", model.None),
		model.Crash(x),
	}.Normalize()
}

// CycleOutcome reports what the Appendix A.3 schedule produced.
type CycleOutcome struct {
	// Result is the full simulation result.
	Result *sim.Result
	// Cycle is a failed-before cycle found in the history, or nil.
	Cycle []model.ProcID
	// RingDetections counts how many of the k ring detections
	// failed_i(i%k+1) completed.
	RingDetections int
	// QuorumSizes are the sizes of the completed ring detections' quorums.
	QuorumSizes []int
	// RingQuorums are the completed ring detections' quorum sets — the
	// family whose (non-)intersection Theorem 6 is about.
	RingQuorums []quorum.Set
}

// RunCycleScenario executes the Appendix A.3 schedule on n processes with a
// ring of k suspicions and the given fixed quorum size (pass
// quorum.MinSize(n,k) to see the schedule fail, or one less to see the
// cycle form). It requires 2 <= k <= n.
func RunCycleScenario(n, k, quorumSize int, seed int64) CycleOutcome {
	if k < 2 || k > n {
		panic("adversary: need 2 <= k <= n")
	}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: n, Seed: seed, Delay: ParkedHeadDelay},
		Det: core.Config{N: n, T: k, Protocol: core.SimulatedFailStop, QuorumSize: quorumSize},
	})

	for p := 1; p <= n; p++ {
		exc := p
		if p > k {
			exc = (p-k-1)%k + 1
		}
		when := int64(1)
		for _, target := range descendingFrom(exc, k, model.ProcID(p)) {
			c.SuspectAt(when, model.ProcID(p), target)
			when++
		}
	}

	res := c.Run()
	out := CycleOutcome{Result: res}
	fb := model.NewFailedBefore(res.History)
	out.Cycle = fb.Cycle()
	for i := 1; i <= k; i++ {
		target := model.ProcID(i%k + 1)
		if c.Detector(model.ProcID(i)).Detected(target) {
			out.RingDetections++
			q := c.Detector(model.ProcID(i)).Quorums()[target]
			out.QuorumSizes = append(out.QuorumSizes, len(q))
			out.RingQuorums = append(out.RingQuorums, quorum.SetOf(q...))
		}
	}
	return out
}

// ParkedHeadDelay is the Appendix A.3 schedule's delay: every "you failed"
// message is parked forever (the death sentence never arrives, and FIFO then
// parks everything queued behind it), and all other messages are delayed
// uniformly past the scripted suspicions.
func ParkedHeadDelay(from, to model.ProcID, p node.Payload, at int64) int64 {
	if p.Tag == core.TagSusp && p.Subject == to {
		return -1
	}
	return 1000
}

// descendingFrom returns the ring targets 1..k in descending rotation order
// starting at exc, skipping self: exc, exc-1, ..., 1, k, ..., exc+1.
func descendingFrom(exc, k int, self model.ProcID) []model.ProcID {
	out := make([]model.ProcID, 0, k)
	for i := 0; i < k; i++ {
		t := model.ProcID((exc-1-i+2*k)%k + 1)
		if t != self {
			out = append(out, t)
		}
	}
	return out
}

// HeartbeatSpike returns a DelayFn for the Theorem 1 dilemma: heartbeats
// from victim are delayed by extra ticks when sent at or after from time
// spikeAt; all other messages get the base delay. Any timeout below
// base+extra then produces a false suspicion of a perfectly healthy
// process, while larger timeouts slow every genuine detection down — and no
// finite timeout can be correct for every run, because extra is unbounded
// in an asynchronous system.
func HeartbeatSpike(victim model.ProcID, hbTag string, spikeAt, base, extra int64) sim.DelayFn {
	return func(from, to model.ProcID, p node.Payload, at int64) int64 {
		if from == victim && p.Tag == hbTag && at >= spikeAt {
			return base + extra
		}
		return base
	}
}
