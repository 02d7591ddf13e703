// Package membership implements the simple view service sketched in §6:
// each process's view is P minus the failures it has detected, and views
// are stamped on every application message.
//
// The paper argues that the §5 detector "could be used as the basis of a
// failure detector ... outside of a system built using a group-membership
// protocol", providing consistent failure detection over point-to-point
// communication. The consistency this package checks is
// view-monotonicity-on-contact, the direct application-level consequence of
// sFS2d: when a message stamped with the sender's view at send time is
// received, the receiver's view is a subset of (has detected at least as
// much as) that stamp. Equivalently: information about failures always
// travels at least as fast as any message from a process that knows it.
//
// Under the §5 protocol (and the cheap §6 variant) the invariant holds by
// construction; under the unilateral strawman it breaks, because silent
// detections outrun their own announcement — there is none.
package membership

import (
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
)

// Internal-event tags recorded by the membership app.
const (
	// ViolationTag marks a view-monotonicity violation observed at receive:
	// the sender's stamped view missed a failure the receiver had not
	// detected either — i.e. receiverView ⊄ senderViewAtSend.
	ViolationTag = "membership-violation"
	gossipTimer  = "membership/gossip"
)

// Service is a core.App maintaining a view and gossiping it.
type Service struct {
	// GossipInterval is the tick interval between view broadcasts.
	// 0 disables gossip.
	GossipInterval int64

	self    model.ProcID
	n       int
	out     map[model.ProcID]bool // processes removed from the view
	gossips int
}

var _ core.App = (*Service)(nil)

// Init implements core.App.
func (s *Service) Init(ctx node.Context, d *core.Detector) {
	s.self = ctx.Self()
	s.n = ctx.N()
	s.out = make(map[model.ProcID]bool, s.n)
	if s.GossipInterval > 0 {
		ctx.SetTimer(gossipTimer, s.GossipInterval)
	}
}

// View returns the current view as a sorted slice of live process ids.
func (s *Service) View() []model.ProcID {
	view := make([]model.ProcID, 0, s.n)
	for p := model.ProcID(1); int(p) <= s.n; p++ {
		if !s.out[p] {
			view = append(view, p)
		}
	}
	return view
}

// GossipsReceived returns the number of view messages received.
func (s *Service) GossipsReceived() int { return s.gossips }

// OnFailed implements core.App.
func (s *Service) OnFailed(ctx node.Context, d *core.Detector, j model.ProcID) {
	s.out[j] = true
}

// OnAppMessage implements core.App: receive a stamped view and check
// monotonicity — every process absent from the sender's stamp must already
// be absent from the receiver's view.
func (s *Service) OnAppMessage(ctx node.Context, d *core.Detector, from model.ProcID, data []byte) {
	if len(data) != s.n {
		return
	}
	s.gossips++
	for p := model.ProcID(1); int(p) <= s.n; p++ {
		senderHas := data[int(p)-1] == 1
		if !senderHas && !s.out[p] && p != s.self {
			// The sender had removed p when it sent this message, yet we
			// still consider p alive: information traveled slower than the
			// message — impossible under sFS2d.
			ctx.EmitInternal(ViolationTag, p)
		}
	}
}

// OnTimer implements core.App: gossip the current view.
func (s *Service) OnTimer(ctx node.Context, d *core.Detector, name string) {
	if name != gossipTimer {
		return
	}
	stamp := make([]byte, s.n)
	for p := model.ProcID(1); int(p) <= s.n; p++ {
		if !s.out[p] {
			stamp[int(p)-1] = 1
		}
	}
	for p := model.ProcID(1); int(p) <= s.n; p++ {
		if p != s.self {
			d.SendApp(ctx, p, stamp)
		}
	}
	ctx.SetTimer(gossipTimer, s.GossipInterval)
}

// ObservedViolations counts monotonicity violations recorded in a history.
func ObservedViolations(h model.History) int {
	count := 0
	for _, e := range h {
		if e.Kind == model.KindInternal && e.Tag == ViolationTag {
			count++
		}
	}
	return count
}
