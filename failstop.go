// Package failstop is a Go implementation of Sabel & Marzullo, "Simulating
// Fail-Stop in Asynchronous Distributed Systems" (TR 94-1413 / PODC 1994):
// the simulated-fail-stop (sFS) failure model, the one-round quorum
// protocol that implements it, the machinery that proves runs
// indistinguishable from fail-stop, and the lower-bound adversaries that
// show the protocol's quorum sizes are optimal.
//
// The package is a facade over the internal packages; it exposes everything
// a library user needs:
//
//   - NewCluster: a deterministic simulated cluster running the §5 protocol
//     (or the paper's baselines), with crash/suspicion injection.
//   - NewLiveCluster: the same stack on a real goroutine runtime.
//   - CheckSFS / CheckFS / CheckAll: property verdicts on recorded runs.
//   - RewriteToFS / Realizable: Theorem 5's explicit indistinguishability
//     witnesses.
//   - MinQuorum / MaxTolerable: the §4 bounds.
//
// A minimal session:
//
//	c := failstop.NewCluster(failstop.Options{N: 5, T: 2, Seed: 1})
//	c.SuspectAt(10, 2, 1) // process 2 (erroneously) suspects process 1
//	rep := c.Run()
//	fmt.Println(rep.Verdicts)       // FS1 + sFS2a-d all hold; FS2 may not
//	fs, _ := failstop.RewriteToFS(rep.Abstract) // an isomorphic FS run
package failstop

import (
	"errors"
	"fmt"
	"io"
	"time"

	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/obshttp"
	"failstop/internal/quorum"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
	"failstop/internal/rewrite"
	"failstop/internal/runtime"
	"failstop/internal/sim"
	"failstop/internal/topo"
)

// Re-exported model vocabulary. These are aliases, so values flow freely
// between the facade and the internal packages.
type (
	// ProcID identifies a process (1..n).
	ProcID = model.ProcID
	// Event is one event of a history (send/recv/crash/failed/internal).
	Event = model.Event
	// History is a finite run prefix: the unit all checkers operate on.
	History = model.History
	// Verdict is a property-check outcome.
	Verdict = checker.Verdict
	// Detector is the per-process failure-detection layer.
	Detector = core.Detector
	// App is the application interface hosted above a detector.
	App = core.App
	// Context is the capability handed to protocol and application code.
	Context = node.Context
	// Protocol selects the detection protocol.
	Protocol = core.Protocol
	// FaultPlan is a declarative, seed-deterministic network fault timeline:
	// partitions with scheduled heals, per-link loss, duplication, reorder
	// jitter, and message-class targeting (see internal/netadv).
	FaultPlan = netadv.Plan
	// FaultRule is one entry of a FaultPlan's timeline.
	FaultRule = netadv.Rule
	// LinkSet selects the directed links a FaultRule applies to.
	LinkSet = netadv.LinkSet
	// Link is one directed channel between two processes.
	Link = netadv.Link
	// ReliableOptions configures the optional reliable-delivery layer
	// (sequence numbers, cumulative acks, timed retransmission with
	// backoff, receiver dedup and in-order release) interposed between the
	// protocol and the — possibly faulty — network (see internal/reliable).
	ReliableOptions = reliable.Options
	// ByzantineOptions configures the optional Byzantine validation
	// interposer (per-sender MACs, echo/witness broadcast-consistency
	// quorums, duplicate discard) that masks misbehaving senders into
	// crashes via the §5 protocol (see internal/byz).
	ByzantineOptions = byz.Options
	// ByzFaultRule is one Byzantine entry of a FaultPlan: per-victim payload
	// corruption, equivocation, and replay.
	ByzFaultRule = netadv.ByzRule
	// RecoveryMode selects what a process restarted by a fault plan's
	// process rules remembers: RecoveryOff (restarts disabled, crashes are
	// terminal), RecoveryAmnesia (restart blank), or RecoveryDurable
	// (restart from the crash-time snapshot). See internal/recovery.
	RecoveryMode = recovery.Mode
	// RecoveryStore persists crash-time snapshots under durable recovery.
	RecoveryStore = recovery.Store
	// ProcFaultRule is one process-fault entry of a FaultPlan: a crash
	// window (one-shot or periodic) with an optional restart.
	ProcFaultRule = netadv.ProcRule
	// Metric is one named observability reading; Metrics a name-sorted
	// snapshot of them (see internal/obs).
	Metric = obs.Metric
	// Metrics is a name-sorted metric snapshot.
	Metrics = obs.Metrics
	// MetricsRegistry is a name table of the counters and gauges a run's
	// layers register (the simulator or live runtime, the fault plane);
	// pass one in Options.Metrics to observe them live rather than only in
	// the final report. They are atomic, safe to read from any goroutine;
	// the host counters refresh as of the simulator's last finished tick,
	// or a live process's last finished step.
	MetricsRegistry = obs.Registry
	// Span is one message-lifecycle trace span (send, fault fate, enqueue,
	// deliver, drop, retransmit, suspect, crash-confirm) with a causal
	// parent link.
	Span = obs.Span
	// SpanKind names a span's lifecycle stage.
	SpanKind = obs.SpanKind
	// SpanRecorder collects spans with seed-deterministic sampling: both
	// backends sample the same message IDs for a given (seed, rate), so
	// simulated and live runs of one scenario yield comparable span sets.
	SpanRecorder = obs.SpanRecorder
	// Timeline samples per-tick series (in-flight messages, link backlog,
	// suspicion count) into bounded rings.
	Timeline = obs.Timeline
	// TimelineSeries is one named series of a timeline snapshot.
	TimelineSeries = obs.TimelineSeries
	// TopoSpec describes a communication topology (see internal/topo): the
	// paper's complete graph (the zero value), a seed-deterministic gossip
	// graph, or a rack/region hierarchy. Under a partial topology each
	// process broadcasts to its neighborhood only and completes quorums
	// over that neighborhood's pool — the partial-quorum reading that makes
	// clusters of 10⁴–10⁶ processes simulable.
	TopoSpec = topo.Spec
)

// Topology kinds for TopoSpec.Kind.
const (
	// TopoFull is the paper's complete graph (also the zero TopoSpec).
	TopoFull = topo.KindFull
	// TopoGossip samples TopoSpec.Fanout peers per process, symmetrized.
	TopoGossip = topo.KindGossip
	// TopoHier is a rack/region hierarchy: full racks, leader uplinks.
	TopoHier = topo.KindHier
)

// ParseTopo parses the topology CLI grammar: "full", "gossip:F",
// "gossip:F@SEED", or "hier:RxK" (R regions of K racks each).
func ParseTopo(s string) (TopoSpec, error) { return topo.ParseSpec(s) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanRecorder returns a span recorder sampling message lifecycles at
// the given rate (0..1) as a deterministic function of (seed, message), so
// a fixed (spec, seed) always records the same spans.
func NewSpanRecorder(seed int64, rate float64) *SpanRecorder {
	return obs.NewSpanRecorder(seed, rate)
}

// NewTimeline returns a timeline sampling every `every` ticks, keeping the
// most recent `capacity` points per series (0 for the default capacity).
func NewTimeline(every int64, capacity int) *Timeline {
	return obs.NewTimeline(every, capacity)
}

// WritePrometheus renders a metric snapshot in the Prometheus text
// exposition format (what the live /metrics endpoint serves).
func WritePrometheus(w io.Writer, ms Metrics) error { return obs.WritePrometheus(w, ms) }

// Recovery modes for Options.Recovery.
const (
	// RecoveryOff disables restarts: a fault plan's process rules crash
	// their victims terminally at the first window (the fail-stop reading).
	RecoveryOff = recovery.Off
	// RecoveryAmnesia restarts processes with zero state.
	RecoveryAmnesia = recovery.Amnesia
	// RecoveryDurable restarts processes from crash-time snapshots.
	RecoveryDurable = recovery.Durable
)

// ParseRecoveryMode parses "off", "amnesia", or "durable" ("" is off).
func ParseRecoveryMode(s string) (RecoveryMode, error) { return recovery.ParseMode(s) }

// Protocol choices.
const (
	// SFS is the paper's §5 one-round quorum protocol (the default).
	SFS = core.SimulatedFailStop
	// Cheap is the §6 baseline: broadcast, then detect without waiting.
	Cheap = core.Cheap
	// Unilateral is the §4 strawman: detect with no communication.
	Unilateral = core.Unilateral
)

// Options configures a cluster, simulated or live. A live cluster takes the
// settings only it reads from Live and ignores the simulator's clock here:
// MinDelay, MaxDelay and MaxTime.
type Options struct {
	// N is the number of processes (required, >= 2). T is the maximum
	// number of failures tolerated, including erroneous detections
	// (default 1). For minimum quorums to make progress, keep N > T²
	// (Corollary 8).
	N, T int
	// Protocol selects the detection protocol. Default: SFS.
	Protocol Protocol
	// Seed makes runs reproducible.
	Seed int64
	// MinDelay/MaxDelay bound the simulated message delays (ticks).
	// Defaults: 1 and 10. A live run reads Live.MinDelay/MaxDelay instead.
	MinDelay, MaxDelay int64
	// MaxTime stops the simulation at a horizon; 0 runs to quiescence.
	// Required (>0) when heartbeats are enabled, which re-arm forever. A
	// live run has no horizon: Stop ends it.
	MaxTime int64
	// HeartbeatEvery enables the fd layer: heartbeats every given ticks.
	// 0 disables heartbeats (suspicions are injected explicitly).
	HeartbeatEvery int64
	// HeartbeatTimeout is the suspicion timeout; 0 with heartbeats enabled
	// means "never suspect" (useful to demonstrate FS1 violations).
	HeartbeatTimeout int64
	// Topology, when non-nil and not the full mesh, runs the protocol over
	// a partial communication graph: SUSP broadcasts and heartbeats go to
	// each process's neighborhood only, and quorums complete over the
	// neighborhood pool (see TopoSpec). nil means the paper's complete
	// graph.
	Topology *TopoSpec
	// Faults, when non-nil, subjects the cluster's network to the given
	// fault plan (instantiated with Seed): partitions, loss, duplication,
	// reorder. Use BuiltinFaultPlan for the named built-ins.
	Faults *FaultPlan
	// Reliable, when Enabled, masks the fault plan's loss, duplication, and
	// reorder with per-link acks, retransmission, dedup, and in-order
	// release — healed partitions then recover in-flight detections that
	// the once-only §5 broadcast would lose. Heartbeats bypass it, as they
	// bypass the Byzantine layer: a lost heartbeat stays lost.
	// Retransmission to a crashed process re-arms forever unless MaxRetries
	// bounds it, so Enabled with MaxRetries 0 requires a MaxTime horizon.
	Reliable ReliableOptions
	// Byzantine, when Enabled, interposes the validation layer under every
	// process: outgoing payloads are sealed with a deterministic per-sender
	// MAC, configured broadcast tags are released only after a witness
	// quorum corroborates a consistent payload, and senders convicted of
	// misbehavior (bad MAC, equivocation) are masked — their
	// traffic is discarded and the culprit is suspected through the §5
	// protocol, demoting the Byzantine fault to a crash. Heartbeats bypass
	// it, as they bypass the reliable layer: they go out unsealed, since a
	// heartbeat is no evidence about what the protocol decides, and a
	// masked sender's are discarded like the rest of its traffic. Pair it
	// with a FaultPlan carrying Byz rules (e.g. the byzantine-minority
	// builtin).
	Byzantine ByzantineOptions
	// Recovery selects how the fault plan's process rules (FaultPlan.Procs)
	// behave: RecoveryOff makes every plan crash terminal, RecoveryAmnesia
	// restarts the victims blank, RecoveryDurable restarts them from
	// crash-time snapshots (detector and reliable-layer state). Plans with
	// unbounded restart storms require MaxTime when restarts are enabled.
	Recovery RecoveryMode
	// NewApp, when non-nil, builds the application for each process.
	NewApp func(p ProcID) App
	// Metrics, when non-nil, additionally registers the run's counters
	// (and the fault plane's, with Faults set) in the given registry; the
	// same readings always appear in Report.Metrics.
	Metrics *MetricsRegistry
	// Spans, when non-nil, records sampled message-lifecycle spans into
	// Report.Spans. Sampling is a deterministic function of (recorder
	// seed, message), so a fixed (options, seed) records identical spans
	// on every run.
	Spans *SpanRecorder
	// Timeline, when non-nil, samples per-tick series into
	// Report.Timeline. A live run samples none and rejects it.
	Timeline *Timeline
}

// Validate reports the first problem with the options, or nil: what
// cluster.Options.Validate and CheckHorizon reject, or a Topology that does
// not fit N.
func (o Options) Validate() error {
	_, err := o.cluster()
	return err
}

// cluster translates and checks the options, horizon included.
func (o Options) cluster() (cluster.Options, error) {
	co, err := o.stack()
	if err == nil {
		err = co.CheckHorizon()
	}
	if err != nil {
		return co, fmt.Errorf("failstop: Options.%w", err)
	}
	return co, nil
}

// stack is the translation both constructors share: T defaulted, the rules
// of either host checked, then the topology resolved against N, once.
func (o Options) stack() (cluster.Options, error) {
	if o.T == 0 {
		o.T = 1
	}
	co := cluster.Options{
		Sim: sim.Config{
			N: o.N, Seed: o.Seed,
			MinDelay: o.MinDelay, MaxDelay: o.MaxDelay,
			MaxTime: o.MaxTime,
			Metrics: o.Metrics, Spans: o.Spans, Timeline: o.Timeline,
			Recovery: o.Recovery,
		},
		Det:    core.Config{N: o.N, T: o.T, Protocol: o.Protocol},
		Faults: o.Faults, HeartbeatEvery: o.HeartbeatEvery, HeartbeatTimeout: o.HeartbeatTimeout,
		App: o.NewApp, Reliable: o.Reliable, Byzantine: o.Byzantine,
	}
	if err := co.Validate(); err != nil {
		return co, err
	}
	if o.Topology != nil {
		top, err := topo.New(*o.Topology, o.N)
		if err != nil {
			return co, fmt.Errorf("Topology: %w", err)
		}
		co.Det.Topology = top
	}
	return co, nil
}

// Cluster is a deterministic simulated cluster.
type Cluster struct {
	inner *cluster.Cluster
	t     int // the failure bound the Witness verdict is checked against
	spans *SpanRecorder
}

// NewCluster builds a simulated cluster per opts. It panics with the
// Options.Validate error when the options are invalid — call Validate first
// to reject untrusted configuration gracefully.
func NewCluster(opts Options) *Cluster {
	co, err := opts.cluster()
	if err != nil {
		panic(err)
	}
	return &Cluster{inner: cluster.New(co), t: co.Det.T, spans: opts.Spans}
}

// Detector returns process p's detector (for state inspection after Run).
func (c *Cluster) Detector(p ProcID) *Detector { return c.inner.Detector(p) }

// SuspectAt injects a spontaneous suspicion: at tick t, process i starts
// the detection protocol for j.
func (c *Cluster) SuspectAt(t int64, i, j ProcID) { c.inner.SuspectAt(t, i, j) }

// CrashAt injects a genuine crash of p at tick t.
func (c *Cluster) CrashAt(t int64, p ProcID) { c.inner.CrashAt(t, p) }

// Report is the outcome of a run.
type Report struct {
	// History is the full recorded history, including protocol traffic.
	History History
	// Abstract is the model-level history: protocol SUSP messages and
	// heartbeats removed. The sFS/FS properties are defined over this.
	Abstract History
	// Verdicts holds the Figure 1 checks (FS1, sFS2a-d) plus FS2 and the
	// Witness property, all evaluated on the appropriate history.
	Verdicts []Verdict
	// Quiescent reports whether the run drained completely (liveness
	// verdicts are only meaningful if so, or at a generous MaxTime).
	Quiescent bool
	// Sent and Delivered count message events in the full history.
	Sent, Delivered int
	// Dropped and Duplicated count the messages the fault plan discarded
	// and the extra copies it delivered (0 without Options.Faults).
	Dropped, Duplicated int
	// Retransmits and AckedDuplicates count the reliable-delivery layer's
	// work: frames resent on timer, and received duplicates suppressed
	// after re-acking (both 0 unless Options.Reliable is enabled).
	Retransmits, AckedDuplicates int
	// PlanCrashes, Restarts, and Recovered count the fault plan's process
	// faults: crashes executed, restarts that followed (per
	// Options.Recovery), and restarts that restored a non-empty durable
	// snapshot. All 0 unless the plan has process rules.
	PlanCrashes, Restarts, Recovered int
	// ByzDetected and ByzMasked count the validation interposer's work:
	// misbehavior convictions across all processes, and frames discarded
	// from convicted senders (both 0 unless Options.Byzantine is enabled).
	ByzDetected, ByzMasked int
	// Corrupted, Equivocated, and Replayed count the fault plan's Byzantine
	// fates: payloads mutated, equivocation variants substituted, and ghost
	// frames re-injected (all 0 unless the plan has Byz rules).
	Corrupted, Equivocated, Replayed int
	// EndTime is the virtual time at which the run ended.
	EndTime int64
	// Metrics is the run's full observability snapshot, name-sorted:
	// simulator counters, reliable-layer counters when the layer ran, and
	// — when Options.Faults was set — the fault plane's decision tallies.
	Metrics Metrics
	// Spans holds the recorded message-lifecycle spans, in record order
	// (nil unless Options.Spans was set).
	Spans []Span
	// Timeline holds the sampled per-tick series (nil unless
	// Options.Timeline was set).
	Timeline []TimelineSeries
}

// Run executes the simulation and checks the paper's properties.
func (c *Cluster) Run() Report {
	res := c.inner.Run()
	// One reading of the run gives the abstraction and every verdict; the
	// report's are the checker's ten less Conditions 1–3, FS2 behind sFS2d.
	scan := model.NewScan(res.History, core.TagSusp, checker.TransportTags(core.TagSusp)...)
	all := checker.AllOf(scan, c.t)
	verdicts := []Verdict{all[0], all[2], all[3], all[4], all[5], all[1], all[9]}
	metrics := res.Metrics
	if plane := c.inner.Plane; plane != nil {
		metrics = obs.Merge(metrics, plane.Metrics())
	}
	var spans []Span
	if c.spans != nil {
		spans = c.spans.Spans()
	}
	return Report{
		History:         res.History,
		Abstract:        scan.Abstract,
		Verdicts:        verdicts,
		Quiescent:       res.Quiescent(),
		Sent:            res.Sent,
		Delivered:       res.Delivered,
		Dropped:         res.Dropped,
		Duplicated:      res.Duplicated,
		Retransmits:     res.Retransmits,
		AckedDuplicates: res.AckedDuplicates,
		PlanCrashes:     res.PlanCrashes,
		Restarts:        res.Restarts,
		Recovered:       res.Recovered,
		ByzDetected:     res.ByzDetected,
		ByzMasked:       res.ByzMasked,
		Corrupted:       int(metrics.Value("plane_byz_corrupted_total")),
		Equivocated:     int(metrics.Value("plane_byz_equivocated_total")),
		Replayed:        int(metrics.Value("plane_byz_replayed_total")),
		EndTime:         res.EndTime,
		Metrics:         metrics,
		Spans:           spans,
		Timeline:        res.Timeline,
	}
}

// CheckSFS evaluates the Figure 1 conditions (FS1, sFS2a-d) on a
// model-level history.
func CheckSFS(h History) []Verdict { return checker.SFS(h) }

// CheckFS evaluates the fail-stop conditions (FS1, FS2).
func CheckFS(h History) []Verdict { return checker.FS(h) }

// CheckAll evaluates every property the checker knows, using suspTag to
// reconstruct quorum sets (use DefaultSuspTag for this package's clusters)
// and t as the failure bound for the Witness property.
func CheckAll(h History, suspTag string, t int) []Verdict {
	return checker.All(h, suspTag, t)
}

// DefaultSuspTag is the payload tag of the §5 protocol's "j failed"
// messages in recorded histories.
const DefaultSuspTag = core.TagSusp

// RewriteToFS produces a fail-stop history isomorphic (with respect to
// every process) to the given model-level history — the Theorem 5 witness —
// or an error if none exists (Theorem 3 situations, or detections whose
// target never crashed). The result is verified before being returned.
func RewriteToFS(h History) (History, error) {
	out, _, err := rewrite.Graph(h)
	if err != nil {
		return nil, err
	}
	if err := rewrite.Verify(h, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Realizable reports whether an isomorphic fail-stop history exists.
func Realizable(h History) bool { return rewrite.Realizable(h) }

// MinQuorum returns the minimum quorum size for n processes and up to t
// failures: the smallest integer exceeding n(t-1)/t (Theorem 7).
func MinQuorum(n, t int) int { return quorum.MinSize(n, t) }

// MaxTolerable returns the largest t such that minimum-quorum detection
// makes progress with n processes: the largest t with n > t² (Corollary 8).
func MaxTolerable(n int) int { return quorum.MaxTolerable(n) }

// FaultPlanNames lists the built-in network fault plans: "split-brain",
// "isolated-minority", "one-way-cut", "flaky-quorum", "healing-partition",
// "buffering-partition", "moving-partition", "region-cut",
// "byzantine-minority", "restart-storm".
func FaultPlanNames() []string { return netadv.BuiltinNames() }

// BuiltinFaultPlan instantiates the named built-in fault plan for a
// cluster of n processes with failure bound t.
func BuiltinFaultPlan(name string, n, t int) (FaultPlan, error) {
	g, ok := netadv.Builtin(name)
	if !ok {
		return FaultPlan{}, fmt.Errorf("failstop: unknown fault plan %q (have %v)", name, netadv.BuiltinNames())
	}
	return g.Make(n, t), nil
}

// ReadFaultPlan parses a fault plan from JSON — the plan-file format, which
// is the exact shape trace-v2 headers embed. The decode is strict (unknown
// fields are errors); call FaultPlan.Validate(n) before use, or let
// NewCluster/NewLiveCluster validate via Options.
func ReadFaultPlan(r io.Reader) (FaultPlan, error) { return netadv.ReadPlan(r) }

// LoadFaultPlan reads a fault plan from a JSON file; a plan with no name
// takes the file's base name. See ReadFaultPlan.
func LoadFaultPlan(path string) (FaultPlan, error) { return netadv.ReadPlanFile(path) }

// WriteFaultPlan writes the plan in the plan-file format (indented JSON) —
// the canonical way to turn a builtin into an editable file.
func WriteFaultPlan(w io.Writer, p FaultPlan) error { return netadv.WritePlan(w, p) }

// Live holds the settings only a live (goroutine) cluster reads; it takes
// every other one from Options.
type Live struct {
	// Tick is the duration of one virtual tick: fault-plan times, heartbeat
	// and retransmission intervals and recorded event times are in ticks.
	// Default: 1ms.
	Tick time.Duration
	// MinDelay/MaxDelay bound real message delays. Defaults: 100µs and 2ms.
	MinDelay, MaxDelay time.Duration
	// RecoveryDir, when non-empty with Options.Recovery = RecoveryDurable,
	// persists crash-time snapshots as files under the given directory (one
	// per process) instead of the default in-memory store — state then
	// survives restarts of the host program, not just of simulated processes.
	RecoveryDir string
	// MetricsAddr, when non-empty, serves the cluster's live metrics in
	// Prometheus text form at http://<addr>/metrics from Start to Stop.
	// Use "127.0.0.1:0" to bind an ephemeral port and read the actual
	// address from LiveCluster.MetricsAddr.
	MetricsAddr string
}

// check reports the first problem with Live's own fields, or nil.
func (l Live) check() error {
	if l.Tick < 0 {
		return fmt.Errorf("Tick = %v; a tick cannot be negative (0 is its default)", l.Tick)
	}
	return sim.CheckDelayBounds(int64(l.MinDelay), int64(l.MaxDelay))
}

// LiveCluster runs the same protocol stack on real goroutines.
type LiveCluster struct {
	net   *runtime.Net
	stack cluster.Stack
	plane *netadv.Plane       // nil without Options.Faults
	spans *SpanRecorder       // Options.Spans
	addr  string              // Live.MetricsAddr
	msrv  *obshttp.Server     // nil unless MetricsAddr is set and Start ran
	files *recovery.FileStore // nil unless RecoveryDir holds the snapshots
}

// NewLiveCluster builds a live cluster from the scenario opts describes and
// the live settings. Call Start, drive it with Suspect and Crash, then Stop;
// History returns the recorded run at any point. It returns an error for
// what Options.Validate rejects but the horizon (Stop ends a live run), a
// Timeline, bad Live settings and a RecoveryDir that cannot be opened.
func NewLiveCluster(opts Options, live Live) (*LiveCluster, error) {
	co, err := opts.stack()
	switch {
	case err != nil:
		return nil, fmt.Errorf("failstop: Options.%w", err)
	case opts.Timeline != nil:
		return nil, errors.New("failstop: Options.Timeline: a live run samples no timeline; leave it nil")
	}
	if err := live.check(); err != nil {
		return nil, fmt.Errorf("failstop: Live.%w", err)
	}
	// The plan is wired as cluster.New wires it for a simulator.
	cfg := runtime.Config{
		N: opts.N, Seed: opts.Seed,
		MinDelay: live.MinDelay, MaxDelay: live.MaxDelay, Tick: live.Tick,
		Metrics: opts.Metrics, Spans: opts.Spans, Recovery: opts.Recovery,
	}
	var plane *netadv.Plane
	if co.Faults != nil {
		plane = netadv.NewPlane(*co.Faults, opts.N, opts.Seed)
		plane.Register(opts.Metrics)
		cfg.Link, cfg.Lifetimes = plane.Decide, co.Faults.Lifetimes()
	}
	var files *recovery.FileStore
	if opts.Recovery == RecoveryDurable && live.RecoveryDir != "" {
		if files, err = recovery.NewFileStore(live.RecoveryDir); err != nil {
			return nil, fmt.Errorf("failstop: Live.RecoveryDir: %w", err)
		}
		cfg.Store = files
	}
	net := runtime.New(cfg)
	stack := cluster.Build(net, co, opts.Spans)
	return &LiveCluster{net: net, stack: stack, plane: plane, spans: opts.Spans, addr: live.MetricsAddr, files: files}, nil
}

// Start launches the cluster's goroutines and, with Live.MetricsAddr set, the
// /metrics endpoint. An endpoint that cannot bind stops the goroutines again
// and is returned as the error: a misconfigured address should fail at
// startup, not silently serve nothing.
func (lc *LiveCluster) Start() error {
	lc.net.Start()
	if lc.addr != "" {
		srv, err := obshttp.Start(lc.addr, lc.Metrics)
		if err != nil {
			lc.net.Stop()
			return fmt.Errorf("failstop: Live.MetricsAddr: %w", err)
		}
		lc.msrv = srv
	}
	return nil
}

// Stop shuts the cluster down and waits for its goroutines, closing the
// /metrics endpoint first so no scrape observes a stopped cluster. With
// Live.RecoveryDir it returns the first crash-time snapshot that could not be
// written: the restart that needed it came back empty, or will in the next
// run of the host program. Otherwise the error is nil.
func (lc *LiveCluster) Stop() error {
	if lc.msrv != nil {
		_ = lc.msrv.Close()
		lc.msrv = nil
	}
	lc.net.Stop()
	if lc.files != nil {
		if err := lc.files.Err(); err != nil {
			return fmt.Errorf("failstop: Live.RecoveryDir: %w", err)
		}
	}
	return nil
}

// Suspect makes process i suspect j (serialized with i's other events).
// The injected broadcast flows through i's reliable-delivery endpoint when
// the layer is enabled.
func (lc *LiveCluster) Suspect(i, j ProcID) {
	lc.net.Do(i, func(ctx node.Context) { lc.stack.Suspect(ctx, i, j) })
}

// Crash crashes process p.
func (lc *LiveCluster) Crash(p ProcID) {
	lc.net.Do(p, func(ctx node.Context) { ctx.CrashSelf() })
}

// History returns a snapshot of the recorded history.
func (lc *LiveCluster) History() History { return lc.net.History() }

// Metrics returns a name-sorted live snapshot of the cluster's counters:
// runtime traffic, reliable-layer work, and — with Options.Faults — the
// fault plane's decision tallies. Safe to call while the cluster runs; it is
// what the /metrics endpoint serves.
func (lc *LiveCluster) Metrics() Metrics {
	ms := lc.net.Metrics()
	if lc.plane != nil {
		ms = obs.Merge(ms, lc.plane.Metrics())
	}
	return ms
}

// Spans returns a snapshot of the recorded message-lifecycle spans (nil
// unless Options.Spans was set).
func (lc *LiveCluster) Spans() []Span {
	if lc.spans == nil {
		return nil
	}
	return lc.spans.Spans()
}

// MetricsAddr returns the bound address of the live /metrics endpoint
// ("" when Live.MetricsAddr was unset or Start has not run).
func (lc *LiveCluster) MetricsAddr() string { return lc.msrv.Addr() }
