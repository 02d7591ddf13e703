// Package election implements the leader-election protocol that motivates
// the paper (§1): every process keeps a local copy of the list (1, 2, ...,
// n); on failed_i(j) it removes j; the head of the list is the leader.
//
// Under fail-stop the algorithm trivially maintains "at most one leader".
// Under simulated fail-stop a global state can transiently contain two
// self-believed leaders — but, per Definition 4, no process can ever
// observe evidence of it (§3.2: "there may be more than one leader in some
// global state, but no process will be able to determine this").
//
// Making "cannot observe" precise is subtle, and instructive. A receiver
// that gets a leadership claim from a process it has already removed has
// NOT observed a contradiction: under genuine fail-stop the claim could
// have been sent before the crash and delivered late. Such stale claims are
// therefore only counted (tag StaleClaimTag), never treated as violations.
// The real checkable content of the §1 discussion is Theorem 5 itself:
// every election run under the §5 protocol is isomorphic to a fail-stop
// run (rewrite.Realizable holds on its abstract history), even when the
// omniscient trace shows two simultaneous self-believed leaders. Under the
// unilateral strawman, runs stop being FS-realizable the moment a silent
// detection occurs (Condition 1 fails: the "detected" leader never
// crashes), and dual leadership becomes permanent rather than transient —
// experiments E10 measure exactly these.
package election

import (
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
)

// Internal-event tags recorded by the election app.
const (
	// LeaderTag marks the internal event "this process became leader".
	LeaderTag = "leader"
	// StaleClaimTag marks the receipt of a leadership claim from a process
	// the receiver does not currently consider leader — informational, not
	// a violation (under FS the claim may simply predate the crash). Target
	// carries the claimant.
	StaleClaimTag = "election-stale-claim"
	// claimTimer drives periodic leadership claims.
	claimTimer = "election/claim"
)

// Election is a core.App running the §1 algorithm on one process.
type Election struct {
	// ClaimInterval is the tick interval between leadership claim
	// broadcasts. 0 disables claiming (pure list maintenance).
	ClaimInterval int64

	self       model.ProcID
	n          int
	removed    map[model.ProcID]bool
	leader     bool
	claimsSeen int
}

var _ core.App = (*Election)(nil)

// Init implements core.App.
func (e *Election) Init(ctx node.Context, d *core.Detector) {
	e.self = ctx.Self()
	e.n = ctx.N()
	e.removed = make(map[model.ProcID]bool, e.n)
	e.checkLeadership(ctx)
	if e.ClaimInterval > 0 {
		ctx.SetTimer(claimTimer, e.ClaimInterval)
	}
}

// Head returns the process this replica currently believes is the leader:
// the smallest id not removed from its list.
func (e *Election) Head() model.ProcID {
	for p := model.ProcID(1); int(p) <= e.n; p++ {
		if !e.removed[p] {
			return p
		}
	}
	return model.None
}

// Leader reports whether this process currently believes it is the leader.
func (e *Election) Leader() bool { return e.leader }

// ClaimsSeen returns the number of leadership claims received.
func (e *Election) ClaimsSeen() int { return e.claimsSeen }

func (e *Election) checkLeadership(ctx node.Context) {
	if !e.leader && e.Head() == e.self {
		e.leader = true
		ctx.EmitInternal(LeaderTag, e.self)
	}
}

// OnFailed implements core.App: remove the detected process from the list.
func (e *Election) OnFailed(ctx node.Context, d *core.Detector, j model.ProcID) {
	e.removed[j] = true
	e.checkLeadership(ctx)
}

// OnAppMessage implements core.App: a leadership claim arrives; count it,
// and note whether the claimant matches this replica's current head.
func (e *Election) OnAppMessage(ctx node.Context, d *core.Detector, from model.ProcID, data []byte) {
	if len(data) != 1 || data[0] != claimByte {
		return
	}
	e.claimsSeen++
	if e.Head() != from {
		ctx.EmitInternal(StaleClaimTag, from)
	}
}

// OnTimer implements core.App: periodic leadership claims.
func (e *Election) OnTimer(ctx node.Context, d *core.Detector, name string) {
	if name != claimTimer {
		return
	}
	if e.leader {
		for p := model.ProcID(1); int(p) <= e.n; p++ {
			if p != e.self {
				d.SendApp(ctx, p, []byte{claimByte})
			}
		}
	}
	ctx.SetTimer(claimTimer, e.ClaimInterval)
}

const claimByte = 0x4C // 'L'

// LeaderIntervals extracts, from a history, the half-open intervals
// [became-leader-index, crash-index-or-end) during which each process
// believed itself leader. Used to count transient multi-leader global
// states.
func LeaderIntervals(h model.History) map[model.ProcID][2]int {
	out := make(map[model.ProcID][2]int)
	for i, e := range h {
		if e.Kind == model.KindInternal && e.Tag == LeaderTag {
			out[e.Proc] = [2]int{i, len(h)}
		}
	}
	for p, iv := range out {
		if ci := h.CrashIndex(p); ci >= 0 && ci < iv[1] {
			iv[1] = ci
			out[p] = iv
		}
	}
	return out
}

// MaxSimultaneousLeaders returns the largest number of processes that
// simultaneously believed themselves leader at any point of the history.
func MaxSimultaneousLeaders(h model.History) int {
	ivs := LeaderIntervals(h)
	max := 0
	for i := range h {
		cur := 0
		for _, iv := range ivs {
			if iv[0] <= i && i < iv[1] {
				cur++
			}
		}
		if cur > max {
			max = cur
		}
	}
	return max
}

// StaleClaims counts stale-claim events recorded in the history.
func StaleClaims(h model.History) int {
	count := 0
	for _, e := range h {
		if e.Kind == model.KindInternal && e.Tag == StaleClaimTag {
			count++
		}
	}
	return count
}
