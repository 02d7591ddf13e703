// Package fd implements the FS1 mechanism the paper assumes "is provided by
// the underlying system": periodic heartbeats plus a timeout-based
// suspector. When process i has not heard a heartbeat from j within the
// timeout, i (perhaps erroneously) suspects j and hands the suspicion to
// the detection protocol of internal/core.
//
// Theorem 1 lives here operationally: in an asynchronous network no choice
// of timeout implements FS. A finite timeout produces false suspicions
// under adversarial delay (violating FS2 if detections were taken at face
// value); an infinite timeout never suspects and violates FS1. Experiment
// E1 sweeps exactly this trade-off.
//
// The package also provides an adaptive suspector (mean + k·stddev of
// observed inter-arrival times, a simplified accrual detector) as the kind
// of practical refinement the paper's discussion anticipates; it shifts the
// trade-off but cannot escape it.
package fd

import (
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
)

// TagHeartbeat marks heartbeat messages.
const TagHeartbeat = "HB"

const (
	timerBeat  = "fd/beat"
	timerCheck = "fd/check"
)

// Heartbeat is a core.Component implementing FS1: it broadcasts a heartbeat
// every Interval ticks and suspects any process from which no heartbeat has
// arrived for Timeout ticks.
type Heartbeat struct {
	// Interval between heartbeat broadcasts, in ticks. Required.
	Interval int64
	// Timeout after which a silent process is suspected, in ticks.
	// 0 disables suspicion (pure heartbeat sender: FS1 without the timeout,
	// which lets experiments demonstrate the FS1 violation directly).
	Timeout int64

	// lastHeard is, per monitored peer, when its last heartbeat arrived (or
	// Init ran). Heartbeats from anyone else are not recorded: no check
	// reads them.
	lastHeard node.Table[int64]
}

var _ core.Component = (*Heartbeat)(nil)

// Init implements core.Component.
func (h *Heartbeat) Init(ctx node.Context, d *core.Detector) {
	if h.Interval <= 0 {
		panic("fd: Heartbeat.Interval must be positive")
	}
	// Monitor the detector's broadcast peers — the whole cluster under the
	// complete graph, the topology neighborhood under a partial one.
	h.lastHeard = node.Table[int64]{}
	d.ForEachPeer(func(p model.ProcID) {
		last, _ := h.lastHeard.Add(p)
		*last = ctx.Now()
	})
	ctx.SetTimer(timerBeat, h.Interval)
	if h.Timeout > 0 {
		ctx.SetTimer(timerCheck, h.checkEvery())
	}
}

// checkEvery returns the silence-check period: checking only every Timeout
// ticks can miss an entire silence window (silence can start right after a
// check and end before the next), so checks run at heartbeat granularity.
func (h *Heartbeat) checkEvery() int64 {
	if h.Interval < h.Timeout {
		return h.Interval
	}
	return h.Timeout
}

// OnMessage implements core.Component: records heartbeat arrivals.
func (h *Heartbeat) OnMessage(ctx node.Context, d *core.Detector, from model.ProcID, p node.Payload) {
	if p.Tag != TagHeartbeat {
		return
	}
	if last := h.lastHeard.Get(from); last != nil {
		*last = ctx.Now()
	}
}

// OnTimer implements core.Component: broadcasts heartbeats and checks for
// silent processes.
func (h *Heartbeat) OnTimer(ctx node.Context, d *core.Detector, name string) {
	switch name {
	case timerBeat:
		d.ForEachPeer(func(p model.ProcID) {
			ctx.Send(p, node.Payload{Tag: TagHeartbeat})
		})
		ctx.SetTimer(timerBeat, h.Interval)
	case timerCheck:
		// Walk peers in PID order (ForEachPeer is ascending), not table
		// order: when several peers time out on the same check tick, the
		// order of Suspect calls orders their protocol messages.
		now := ctx.Now()
		d.ForEachPeer(func(p model.ProcID) {
			last := h.lastHeard.Get(p)
			if last == nil || d.Detected(p) || d.Suspects(p) {
				return
			}
			if now-*last >= h.Timeout {
				d.Suspect(ctx, p)
			}
		})
		ctx.SetTimer(timerCheck, h.checkEvery())
	}
}

// Adaptive is a core.Component implementing an adaptive timeout suspector:
// it tracks the mean and variance of heartbeat inter-arrival times per peer
// and suspects a process once its silence exceeds mean + Phi·stddev (with a
// floor of MinTimeout). This is a simplified accrual failure detector; it
// adapts to observed delay but, per Theorem 1, still cannot be a Perfect
// detector.
type Adaptive struct {
	// Interval between own heartbeat broadcasts. Required.
	Interval int64
	// Phi is the suspicion threshold in standard deviations. Default 4.
	Phi float64
	// MinTimeout floors the computed timeout. Default 2*Interval.
	MinTimeout int64

	// peers holds, per monitored peer, its heartbeat arrivals. Heartbeats
	// from anyone else are not recorded: no check reads them.
	peers node.Table[arrivals]
}

// arrivals is one peer's heartbeat history: when the last one arrived (or
// Init ran), and the inter-arrival times since.
type arrivals struct {
	last  int64
	stats arrivalStats
}

type arrivalStats struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations (Welford)
}

func (a *arrivalStats) add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

func (a *arrivalStats) stddev() float64 {
	if a.n < 2 {
		return 0
	}
	v := a.m2 / float64(a.n-1)
	// Newton iteration is overkill; a few rounds of bisection-free sqrt.
	if v <= 0 {
		return 0
	}
	s := v
	for i := 0; i < 24; i++ {
		s = 0.5 * (s + v/s)
	}
	return s
}

var _ core.Component = (*Adaptive)(nil)

// Init implements core.Component.
func (a *Adaptive) Init(ctx node.Context, d *core.Detector) {
	if a.Interval <= 0 {
		panic("fd: Adaptive.Interval must be positive")
	}
	if a.Phi == 0 {
		a.Phi = 4
	}
	if a.MinTimeout == 0 {
		a.MinTimeout = 2 * a.Interval
	}
	a.peers = node.Table[arrivals]{}
	d.ForEachPeer(func(p model.ProcID) {
		pa, _ := a.peers.Add(p)
		pa.last = ctx.Now()
	})
	ctx.SetTimer(timerBeat, a.Interval)
	ctx.SetTimer(timerCheck, a.Interval)
}

// OnMessage implements core.Component.
func (a *Adaptive) OnMessage(ctx node.Context, d *core.Detector, from model.ProcID, p node.Payload) {
	if p.Tag != TagHeartbeat {
		return
	}
	if pa := a.peers.Get(from); pa != nil {
		now := ctx.Now()
		pa.stats.add(float64(now - pa.last))
		pa.last = now
	}
}

// OnTimer implements core.Component.
func (a *Adaptive) OnTimer(ctx node.Context, d *core.Detector, name string) {
	switch name {
	case timerBeat:
		d.ForEachPeer(func(p model.ProcID) {
			ctx.Send(p, node.Payload{Tag: TagHeartbeat})
		})
		ctx.SetTimer(timerBeat, a.Interval)
	case timerCheck:
		// PID order, not map order — see Heartbeat.OnTimer: simultaneous
		// timeouts must suspect in a deterministic order.
		now := ctx.Now()
		d.ForEachPeer(func(p model.ProcID) {
			pa := a.peers.Get(p)
			if pa == nil || d.Detected(p) || d.Suspects(p) {
				return
			}
			last, st := pa.last, &pa.stats
			limit := float64(a.MinTimeout)
			if st.n >= 2 {
				adaptive := st.mean + a.Phi*st.stddev()
				if adaptive > limit {
					limit = adaptive
				}
			}
			if float64(now-last) >= limit {
				d.Suspect(ctx, p)
			}
		})
		ctx.SetTimer(timerCheck, a.Interval)
	}
}
