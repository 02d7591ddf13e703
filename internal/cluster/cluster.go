// Package cluster is the one place a protocol stack is assembled, for either
// host, and its configuration checked. Build wires n core.Detector instances
// — with optional fd components, applications and the byz and reliable
// interposers — onto anything that takes a handler per process. New is Build
// over a fresh simulator with the fault plan wired in: the common harness of
// tests, the experiment generators, the sweep and the public facade.
//
// Options.Validate and CheckHorizon state every rule once, and New calls
// neither. Each entry point calls them, prefixes the error with its own name
// and adds only its own rules: the facade's Options a Topology that fits N
// (NewLiveCluster skips CheckHorizon and checks its Live settings instead),
// sweep.Spec its grid (t >= 1, a quorum >= 1 under every delta), seeds,
// shard, axis names and a HeartbeatTimeout with heartbeats.
package cluster

import (
	"fmt"
	"slices"

	"failstop/internal/byz"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/reliable"
	"failstop/internal/sim"
)

// Options configures a cluster.
type Options struct {
	// Sim configures the simulator. Sim.N is set from Det.N if zero.
	Sim sim.Config
	// Det configures every process's detector identically. Det.Topology,
	// when set, is shared by reference across all detectors (a Topology is
	// immutable after construction, so one instance serves any N).
	Det core.Config
	// Faults, when non-nil, is the fault plan New instantiates with Sim.Seed,
	// registers in Sim.Metrics and takes Sim.Link and Sim.Lifetimes from.
	Faults *netadv.Plan
	// HeartbeatEvery, when positive, gives every process an fd.Heartbeat
	// every that many ticks, suspecting after HeartbeatTimeout.
	HeartbeatEvery, HeartbeatTimeout int64
	// App, when non-nil, constructs the application for each process.
	App func(p model.ProcID) core.App
	// Reliable, when Enabled, interposes a reliable-delivery endpoint
	// (ack + timed retransmission, dedup, in-order release) between every
	// detector and the simulator's faulty network. Heartbeats bypass it,
	// as they bypass every interposer (node.Layer): they go out
	// unsequenced, and none is ever resent.
	Reliable reliable.Options
	// Byzantine, when Enabled, interposes a validation endpoint (per-sender
	// MACs, echo/witness broadcast consistency, duplicate discard) between
	// every detector and the network; convictions are masked into crashes
	// by suspecting the culprit through the §5 protocol. Heartbeats bypass
	// it, as they bypass every interposer (node.Layer): they go out unsealed,
	// and only a masked sender's are discarded. When Reliable is also
	// enabled the interposer sits inside the reliable layer (the reliable
	// framing is outermost on the wire).
	Byzantine byz.Options
}

// Validate reports the first problem either host would have, naming the field
// first: N outside 2..model.MaxProcs, a T below 1, a Sim.N that is neither 0
// nor Det.N, a QuorumSize that is negative or set where no §5 FixedQuorum
// threshold over the complete graph reads it, bad delay bounds, a fault plan
// that does not fit N or comes with Sim.Link or Sim.Lifetimes, invalid
// reliable-layer options, or a negative heartbeat number, MaxTime or MaxEvents
// (each would silently read as its zero: no fd layer, never suspect, no
// horizon, the default cap).
func (o Options) Validate() error {
	if o.Det.N < 2 || o.Det.N > model.MaxProcs {
		return fmt.Errorf("N = %d; need at least 2 processes and at most %d (model.MaxProcs, the largest id a history may name)", o.Det.N, model.MaxProcs)
	}
	if o.Det.T < 1 {
		return fmt.Errorf("T = %d; the failure bound cannot be negative, and a §5 quorum needs at least 1", o.Det.T)
	}
	if o.Sim.N != 0 && o.Sim.N != o.Det.N {
		return fmt.Errorf("Sim.N = %d; it must be 0 (set from Det.N) or Det.N = %d", o.Sim.N, o.Det.N)
	}
	if q := o.Det.QuorumSize; q != 0 {
		// A fixed size is the §5 FixedQuorum threshold over all N processes:
		// cheap and unilateral never read it, and under a partial topology it
		// would override every pool's own minimum.
		switch top := o.Det.Topology; {
		case q < 0:
			return fmt.Errorf("QuorumSize = %d; a quorum needs at least 1 process (0 is the Theorem 7 minimum)", q)
		case o.Det.Protocol != 0 && o.Det.Protocol != core.SimulatedFailStop:
			return fmt.Errorf("QuorumSize = %d applies to the sfs protocol only; %v never reads it", q, o.Det.Protocol)
		case o.Det.Policy != 0 && o.Det.Policy != core.FixedQuorum:
			return fmt.Errorf("QuorumSize = %d applies to the FixedQuorum policy only", q)
		case top != nil:
			return fmt.Errorf("QuorumSize = %d applies over the complete graph only; under a partial topology each pool has its own minimum", q)
		}
	}
	if err := sim.CheckDelayBounds(o.Sim.MinDelay, o.Sim.MaxDelay); err != nil {
		return err
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(o.Det.N); err != nil {
			return fmt.Errorf("Faults: %w", err)
		}
		if o.Sim.Link != nil || o.Sim.Lifetimes != nil {
			return fmt.Errorf("Faults: plan %q sets Sim.Link and Sim.Lifetimes itself; leave them nil", o.Faults.Name)
		}
	}
	if err := o.Reliable.Validate(); err != nil {
		return fmt.Errorf("Reliable: %w", err)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{{"HeartbeatEvery", o.HeartbeatEvery}, {"HeartbeatTimeout", o.HeartbeatTimeout}, {"MaxTime", o.Sim.MaxTime}, {"MaxEvents", int64(o.Sim.MaxEvents)}} {
		if f.v < 0 {
			return fmt.Errorf("%s = %d; it cannot be negative (0 is its default)", f.name, f.v)
		}
	}
	return nil
}

// CheckHorizon reports a simulated run that re-arms forever with no MaxTime to
// end it — heartbeats, a reliable link with no MaxRetries, a restart
// storm under a recovering mode (sim.Config.CheckHorizon) — and so would never
// reach the quiescence the liveness verdicts need.
func (o Options) CheckHorizon() error {
	if o.Sim.MaxTime > 0 {
		return nil
	}
	switch {
	case o.HeartbeatEvery > 0:
		return fmt.Errorf("HeartbeatEvery = %d requires MaxTime > 0 (heartbeats re-arm forever, so the run would never drain)", o.HeartbeatEvery)
	case o.Reliable.Enabled && o.Reliable.MaxRetries == 0:
		return fmt.Errorf("Reliable retries forever (MaxRetries = 0); set MaxTime so runs with crashed peers terminate")
	case o.Faults != nil:
		cfg := o.Sim
		cfg.Lifetimes = o.Faults.Lifetimes()
		if err := cfg.CheckHorizon(); err != nil {
			return fmt.Errorf("Faults: plan %q: %w", o.Faults.Name, err)
		}
		return nil
	}
	return o.Sim.CheckHorizon()
}

// Stack is the protocol stack of every process, bottom (the network) to top:
// an optional reliable-delivery endpoint, an optional Byzantine validation
// endpoint, the detector with its optional fd component and application.
// detectors holds process p's at index p-1; layers holds each process's
// interposers in turn, outermost first, the same number for every process.
type Stack struct {
	detectors []core.Detector
	layers    []*node.Layer
}

// Detector returns process p's detector.
func (st *Stack) Detector(p model.ProcID) *core.Detector { return &st.detectors[p-1] }

// Host is what a stack is attached to: a *sim.Sim or a *runtime.Net.
type Host interface {
	SetHandler(model.ProcID, node.Handler)
}

// Build assembles the stack opts describes (opts.Sim and opts.Faults are
// New's alone) and attaches each process's outermost handler to h. The
// interposers record their spans in spans, if non-nil.
func Build(h Host, opts Options, spans *obs.SpanRecorder) Stack {
	n := opts.Det.N
	st := Stack{detectors: core.NewDetectors(opts.Det, func(p model.ProcID) (core.Component, core.App) {
		var comp core.Component
		if opts.HeartbeatEvery > 0 {
			comp = &fd.Heartbeat{Interval: opts.HeartbeatEvery, Timeout: opts.HeartbeatTimeout}
		}
		var app core.App
		if opts.App != nil {
			app = opts.App(p)
		}
		return comp, app
	})}
	if opts.Reliable.Enabled || opts.Byzantine.Enabled {
		st.layers = make([]*node.Layer, 0, 2*n)
	}
	for p := model.ProcID(1); int(p) <= n; p++ {
		d := st.Detector(p)
		var top node.Handler = d
		first := len(st.layers)
		if opts.Byzantine.Enabled {
			bz := byz.Wrap(d, opts.Byzantine)
			bz.SetSpans(spans)
			// Masking: a conviction becomes a §5 suspicion of the culprit,
			// which crashes it on its own completed detection — the
			// Byzantine process is demoted to a crashed one.
			bz.SetConvict(func(ctx node.Context, culprit model.ProcID) {
				d.Suspect(ctx, culprit)
			})
			st.layers = append(st.layers, &bz.Layer)
			top = bz
		}
		if opts.Reliable.Enabled {
			ep := reliable.Wrap(top, opts.Reliable)
			ep.SetSpans(spans)
			st.layers = slices.Insert(st.layers, first, &ep.Layer)
			top = ep
		}
		h.SetHandler(p, top)
	}
	return st
}

// Suspect makes process i begin the detection protocol for j from ctx, the
// host's own context of i. The broadcast flows down the stack the way the
// detector's other sends do: i's layers wrap ctx outermost first, so each
// one's sends flow through the layers outside it.
func (st *Stack) Suspect(ctx node.Context, i, j model.ProcID) {
	k := len(st.layers) / len(st.detectors)
	for _, l := range st.layers[int(i-1)*k : int(i)*k] {
		ctx = l.Context(ctx)
	}
	st.Detector(i).Suspect(ctx, j)
}

// Cluster is a wired simulation ready to run.
type Cluster struct {
	// Sim is the underlying simulator; use it for custom injections.
	Sim *sim.Sim
	// Plane is the instantiated Options.Faults, nil without a plan.
	Plane *netadv.Plane
	Stack
}

// New builds a cluster: a simulator, with the fault plan's plane as its link
// and process faults, and the stack attached. It does not call Validate.
func New(opts Options) *Cluster {
	if opts.Sim.N == 0 {
		opts.Sim.N = opts.Det.N
	}
	var plane *netadv.Plane
	if opts.Faults != nil {
		plane = netadv.NewPlane(*opts.Faults, opts.Sim.N, opts.Sim.Seed)
		plane.Register(opts.Sim.Metrics)
		opts.Sim.Link, opts.Sim.Lifetimes = plane.Decide, opts.Faults.Lifetimes()
	}
	s := sim.New(opts.Sim)
	return &Cluster{Sim: s, Plane: plane, Stack: Build(s, opts, opts.Sim.Spans)}
}

// N returns the number of processes.
func (c *Cluster) N() int { return len(c.detectors) }

// SuspectAt injects a spontaneous suspicion: at virtual time t, process i
// begins the detection protocol for j (the paper's "i suspects the failure
// of j, e.g. due to a timeout").
func (c *Cluster) SuspectAt(t int64, i, j model.ProcID) {
	c.Sim.At(t, i, func(ctx node.Context) { c.Suspect(ctx, i, j) })
}

// CrashAt injects a genuine crash of p at virtual time t.
func (c *Cluster) CrashAt(t int64, p model.ProcID) {
	c.Sim.CrashAt(t, p)
}

// Run executes the simulation and returns its result.
func (c *Cluster) Run() *sim.Result { return c.Sim.Run() }
