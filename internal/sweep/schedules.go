package sweep

import (
	"math/rand"
	"sort"

	"failstop/internal/adversary"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/sim"
)

// SlowKillDelay returns a schedule delay in the style of the paper's
// adversarial runs: messages get a deterministic pseudo-random delay in
// [1, 15] derived from (sender, receiver, send time, seed), except that
// death sentences ("j failed" addressed to j itself) for the listed
// victims are slowed to 150 ticks — long enough for a false detection to
// complete while its victim is still alive, which is what surfaces FS2
// violations.
func SlowKillDelay(seed int64, victims ...model.ProcID) sim.DelayFn {
	slow := make(map[model.ProcID]bool, len(victims))
	for _, p := range victims {
		slow[p] = true
	}
	return func(from, to model.ProcID, p node.Payload, at int64) int64 {
		if p.Tag == core.TagSusp && p.Subject == to && slow[to] {
			return 150
		}
		return 1 + (at*7+int64(from)*13+int64(to)*5+seed)%15
	}
}

// Builtin returns the named built-in schedule. The built-ins parameterize
// themselves by the grid cell's (n, t) and by the seed, so one name spans
// the whole grid:
//
//   - "quiet": no injected faults.
//   - "false-suspicion": one erroneous suspicion of process 1, with the
//     kill path slowed so the detection visibly completes first.
//   - "crash": t genuine crashes of the highest-numbered processes,
//     each then suspected by process 1.
//   - "mutual": processes 1 and 2 suspect each other concurrently.
//   - "mixed": a seed-derived mixture of genuine crashes and false
//     suspicions (with slowed kill paths), a distinct scenario per seed.
//   - "park-ring": ring suspicions among the first t+1 processes with
//     every death sentence parked forever — the Appendix A.3 flavor.
func Builtin(name string) (Schedule, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Schedule{}, false
}

// BuiltinNames lists the built-in schedule names.
func BuiltinNames() []string {
	var out []string
	for _, s := range Builtins() {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// Builtins returns every built-in schedule.
func Builtins() []Schedule {
	return []Schedule{
		{Name: "quiet"},
		{
			Name: "false-suspicion",
			Faults: func(nt NT, seed int64) []Fault {
				return []Fault{{Kind: FaultSuspect, At: 20, Proc: 2, Target: 1}}
			},
			Delay: func(nt NT, seed int64) sim.DelayFn {
				return SlowKillDelay(seed, 1)
			},
		},
		{
			Name: "crash",
			Faults: func(nt NT, seed int64) []Fault {
				var fs []Fault
				for i := 0; i < nt.T && i < nt.N-1; i++ {
					victim := model.ProcID(nt.N - i)
					fs = append(fs,
						Fault{Kind: FaultCrash, At: int64(2 + i), Proc: victim},
						Fault{Kind: FaultSuspect, At: int64(50 + 3*i), Proc: 1, Target: victim})
				}
				return fs
			},
		},
		{
			Name: "mutual",
			Faults: func(nt NT, seed int64) []Fault {
				return []Fault{
					{Kind: FaultSuspect, At: 20, Proc: 1, Target: 2},
					{Kind: FaultSuspect, At: 23, Proc: 2, Target: 1},
				}
			},
			Delay: func(nt NT, seed int64) sim.DelayFn {
				return SlowKillDelay(seed)
			},
		},
		{
			Name:   "mixed",
			Faults: mixedFaults,
			Delay: func(nt NT, seed int64) sim.DelayFn {
				// Slow every victim's kill path: mixedFaults picks its false
				// suspicions among 1..3.
				return SlowKillDelay(seed, 1, 2, 3)
			},
		},
		{
			Name: "park-ring",
			Faults: func(nt NT, seed int64) []Fault {
				k := nt.T + 1
				if k > nt.N {
					k = nt.N
				}
				var fs []Fault
				for i := 1; i <= k; i++ {
					target := model.ProcID(i%k + 1)
					fs = append(fs, Fault{Kind: FaultSuspect, At: int64(i), Proc: model.ProcID(i), Target: target})
				}
				return fs
			},
			Delay: func(nt NT, seed int64) sim.DelayFn {
				return adversary.ParkedHeadDelay
			},
		},
	}
}

// mixedFaults derives a per-seed mixture: up to t total faults, split
// between genuine crashes of high-numbered processes and false suspicions
// of low-numbered ones. All randomness flows from the seed, so the
// schedule is deterministic per (nt, seed).
func mixedFaults(nt NT, seed int64) []Fault {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(nt.N)*31 + int64(nt.T)))
	budget := nt.T
	if budget < 1 {
		budget = 1
	}
	crashes := rng.Intn(budget)
	susps := budget - crashes
	var fs []Fault
	for i := 0; i < crashes && i < nt.N-1; i++ {
		victim := model.ProcID(nt.N - i)
		fs = append(fs, Fault{Kind: FaultCrash, At: int64(2 + i), Proc: victim})
		// A random low-numbered survivor notices the crash.
		accuser := model.ProcID(1 + rng.Intn(3))
		if int(accuser) > nt.N {
			accuser = 1
		}
		if accuser != victim {
			fs = append(fs, Fault{Kind: FaultSuspect, At: int64(40 + 5*i), Proc: accuser, Target: victim})
		}
	}
	for i := 0; i < susps; i++ {
		victim := model.ProcID(1 + i%3)
		var accuser model.ProcID
		if nt.N >= 5 {
			accuser = model.ProcID(4 + rng.Intn(nt.N-3))
		} else {
			accuser = model.ProcID(int(victim)%nt.N + 1)
		}
		if int(victim) > nt.N || int(accuser) > nt.N || victim == accuser {
			continue
		}
		fs = append(fs, Fault{Kind: FaultSuspect, At: int64(60 + 7*i), Proc: accuser, Target: victim})
	}
	return fs
}
