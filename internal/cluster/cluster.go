// Package cluster wires n core.Detector instances into a deterministic
// simulation: one constructor call builds the simulator, the detectors, and
// optional fd components and applications per process. It is the common
// harness used by tests, the experiment generators, and the public facade.
package cluster

import (
	"failstop/internal/byz"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
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

// Cluster is a wired simulation ready to run.
type Cluster struct {
	// Sim is the underlying simulator; use it for custom injections.
	Sim *sim.Sim
	// Detectors holds the per-process detectors, indexed 1..N (index 0 nil).
	Detectors []*core.Detector
	endpoints []*reliable.Endpoint // nil entries when the layer is off
	byzants   []*byz.Endpoint      // nil entries when the interposer is off
	n         int
}

// New builds a cluster.
func New(opts Options) *Cluster {
	n := opts.Det.N
	if opts.Sim.N == 0 {
		opts.Sim.N = n
	}
	s := sim.New(opts.Sim)
	c := &Cluster{
		Sim:       s,
		Detectors: make([]*core.Detector, n+1),
		endpoints: make([]*reliable.Endpoint, n+1),
		byzants:   make([]*byz.Endpoint, n+1),
		n:         n,
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
		c.Detectors[p] = d
		var h node.Handler = d
		if opts.Byzantine.Enabled {
			bz := byz.Wrap(d, opts.Byzantine)
			bz.SetSpans(opts.Sim.Spans)
			// Masking: a conviction becomes a §5 suspicion of the culprit,
			// which crashes it on its own completed detection — the
			// Byzantine process is demoted to a crashed one.
			bz.SetConvict(func(ctx node.Context, culprit model.ProcID) {
				d.Suspect(ctx, culprit)
			})
			c.byzants[p] = bz
			h = bz
		}
		if opts.Reliable.Enabled {
			ep := reliable.Wrap(h, opts.Reliable)
			ep.SetSpans(opts.Sim.Spans)
			c.endpoints[p] = ep
			h = ep
		}
		s.SetHandler(p, h)
	}
	return c
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.n }

// SuspectAt injects a spontaneous suspicion: at virtual time t, process i
// begins the detection protocol for j (the paper's "i suspects the failure
// of j, e.g. due to a timeout"). The injected broadcast flows through i's
// reliable-delivery endpoint when the layer is enabled.
func (c *Cluster) SuspectAt(t int64, i, j model.ProcID) {
	d := c.Detectors[i]
	ep := c.endpoints[i]
	bz := c.byzants[i]
	c.Sim.At(t, i, func(ctx node.Context) {
		// Mirror the wrap order: the reliable layer is outermost, so its
		// context wraps first and the interposer's sends flow through it.
		if ep != nil {
			ctx = ep.Context(ctx)
		}
		if bz != nil {
			ctx = bz.Context(ctx)
		}
		d.Suspect(ctx, j)
	})
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
	for p := 1; p <= c.n; p++ {
		for _, q := range c.Detectors[p].Quorums() {
			out = append(out, quorum.SetOf(q...))
		}
	}
	return out
}
