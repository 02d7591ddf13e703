// Package cluster is the one place a protocol stack is assembled, for either
// host: Build wires n core.Detector instances — with optional fd components,
// applications and the byz and reliable interposers — onto anything that
// takes a handler per process. New is Build over a fresh simulator: the
// common harness of tests, the experiment generators, and the public facade.
package cluster

import (
	"failstop/internal/byz"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/quorum"
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
	// FD, when non-nil, constructs the fd component for each process.
	FD func(p model.ProcID) core.Component
	// App, when non-nil, constructs the application for each process.
	App func(p model.ProcID) core.App
	// Reliable, when Enabled, interposes a reliable-delivery endpoint
	// (ack + timed retransmission, dedup, in-order release) between every
	// detector and the simulator's faulty network.
	Reliable reliable.Options
	// Byzantine, when Enabled, interposes a validation endpoint (per-sender
	// MACs, echo/witness broadcast consistency, replay watermark) between
	// every detector and the network; convictions are masked into crashes
	// by suspecting the culprit through the §5 protocol. When Reliable is
	// also enabled the interposer sits inside the reliable layer (the
	// reliable framing is outermost on the wire).
	Byzantine byz.Options
}

// Stack is the protocol stack of every process, bottom (the network) to top:
// an optional reliable-delivery endpoint, an optional Byzantine validation
// endpoint, the detector with its optional fd component and application.
type Stack struct {
	// Detectors holds the per-process detectors, indexed 1..N (index 0 nil).
	Detectors []*core.Detector
	endpoints []*reliable.Endpoint // nil entries when the layer is off
	byzants   []*byz.Endpoint      // nil entries when the interposer is off
}

// Host is what a stack is attached to: a *sim.Sim or a *runtime.Net.
type Host interface {
	SetHandler(model.ProcID, node.Handler)
}

// Build assembles the stack opts describes (opts.Sim is New's alone) and
// attaches each process's outermost handler to h. The interposers record
// their spans in spans, if non-nil.
func Build(h Host, opts Options, spans *obs.SpanRecorder) Stack {
	n := opts.Det.N
	st := Stack{
		Detectors: make([]*core.Detector, n+1),
		endpoints: make([]*reliable.Endpoint, n+1),
		byzants:   make([]*byz.Endpoint, n+1),
	}
	for p := model.ProcID(1); int(p) <= n; p++ {
		var fd core.Component
		if opts.FD != nil {
			fd = opts.FD(p)
		}
		var app core.App
		if opts.App != nil {
			app = opts.App(p)
		}
		d := core.NewDetector(opts.Det, fd, app)
		st.Detectors[p] = d
		var top node.Handler = d
		if opts.Byzantine.Enabled {
			bz := byz.Wrap(d, opts.Byzantine)
			bz.SetSpans(spans)
			// Masking: a conviction becomes a §5 suspicion of the culprit,
			// which crashes it on its own completed detection — the
			// Byzantine process is demoted to a crashed one.
			bz.SetConvict(func(ctx node.Context, culprit model.ProcID) {
				d.Suspect(ctx, culprit)
			})
			st.byzants[p] = bz
			top = bz
		}
		if opts.Reliable.Enabled {
			ep := reliable.Wrap(top, opts.Reliable)
			ep.SetSpans(spans)
			st.endpoints[p] = ep
			top = ep
		}
		h.SetHandler(p, top)
	}
	return st
}

// Suspect makes process i begin the detection protocol for j from ctx, the
// host's own context of i. The broadcast flows down the stack the way the
// detector's other sends do: the reliable layer is outermost, so its context
// wraps first and the interposer's sends flow through it.
func (st *Stack) Suspect(ctx node.Context, i, j model.ProcID) {
	if ep := st.endpoints[i]; ep != nil {
		ctx = ep.Context(ctx)
	}
	if bz := st.byzants[i]; bz != nil {
		ctx = bz.Context(ctx)
	}
	st.Detectors[i].Suspect(ctx, j)
}

// Cluster is a wired simulation ready to run.
type Cluster struct {
	// Sim is the underlying simulator; use it for custom injections.
	Sim *sim.Sim
	Stack
}

// New builds a cluster: a simulator with the stack attached.
func New(opts Options) *Cluster {
	if opts.Sim.N == 0 {
		opts.Sim.N = opts.Det.N
	}
	s := sim.New(opts.Sim)
	return &Cluster{Sim: s, Stack: Build(s, opts, opts.Sim.Spans)}
}

// N returns the number of processes.
func (c *Cluster) N() int { return len(c.Detectors) - 1 }

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

// QuorumSets aggregates the quorum snapshots of every completed detection
// across all processes, as sets, for Witness-property checking (§4,
// Definition 5).
func (c *Cluster) QuorumSets() []quorum.Set {
	var out []quorum.Set
	for _, d := range c.Detectors[1:] {
		for _, q := range d.Quorums() {
			out = append(out, quorum.SetOf(q...))
		}
	}
	return out
}
