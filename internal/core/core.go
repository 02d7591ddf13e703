// Package core implements the paper's primary contribution: the one-round
// simulated-fail-stop failure-detection protocol of §5, together with the
// two reference points the paper discusses — the "cheap" model of §6
// (broadcast, then detect unilaterally: every sFS property except sFS2b)
// and the unilateral strawman of §4 (detect with no communication at all).
//
// Protocol recap (§5). When process i suspects the failure of process j
// (spontaneously, e.g. via a timeout at the fd layer):
//
//   - i sends the message "j failed" to all processes. SUSP and ACK.SUSP are
//     the same message, so one broadcast per (process, target) pair suffices;
//     every process counts distinct senders of "j failed".
//   - When i has heard "j failed" from more than n(t-1)/t processes
//     (including itself), i executes failed_i(j).
//   - When any process x receives "x failed", x executes crash_x.
//   - When a process receives "y failed" for another y, it suspects y and
//     joins the protocol (broadcasting its own "y failed").
//
// sFS2d is obtained at the receive level: a Detector implements node.Gate
// and defers the receive event of an application message from sender s
// while there exists a target x such that "x failed" has been heard from s
// but failed_self(x) has not yet executed. Because channels are FIFO, any
// message s sent after executing failed_s(x) necessarily sits behind s's
// "x failed" broadcast, so the deferral implements exactly the sFS2d
// condition. (§5 states the blunter rule "take no other action until the
// protocol completes"; Config.StrictGating selects that literal variant,
// which is also correct but can block application traffic longer.)
package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/quorum"
	"failstop/internal/topo"
)

// Message tags used by the detector layer.
const (
	// TagSusp marks "j failed" protocol messages; Subject carries j.
	// SUSP and ACK.SUSP coincide in the §5 protocol.
	TagSusp = "SUSP"
	// TagApp marks application messages routed through Detector.SendApp.
	TagApp = "APP"
)

// Protocol selects the failure-detection protocol a Detector runs.
type Protocol int

// Protocols. SimulatedFailStop is the paper's §5 protocol; Cheap and
// Unilateral are the baselines the paper compares against in §4 and §6.
const (
	// SimulatedFailStop: one-round quorum protocol satisfying FS1+sFS2a-d.
	SimulatedFailStop Protocol = iota + 1
	// Cheap (§6): broadcast "j failed", then execute failed_i(j) immediately
	// without waiting. Satisfies sFS2a, sFS2c, sFS2d but not sFS2b: cyclic
	// failure detections are possible.
	Cheap
	// Unilateral (§4 strawman): execute failed_i(j) with no communication.
	// Violates sFS2a and sFS2d; exists to demonstrate why Conditions 1-3
	// force at least a broadcast.
	Unilateral
)

// protocolNames is the one name↔value table: String renders a row's first
// name, ParseProtocol accepts any of them.
var protocolNames = []struct {
	p     Protocol
	names []string
}{
	{SimulatedFailStop, []string{"sfs", "simulated-fail-stop"}},
	{Cheap, []string{"cheap"}},
	{Unilateral, []string{"unilateral"}},
}

// String names the protocol.
func (p Protocol) String() string {
	for _, row := range protocolNames {
		if row.p == p {
			return row.names[0]
		}
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol is the inverse of String. Names are trimmed and matched
// case-insensitively.
func ParseProtocol(s string) (Protocol, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	var have []string
	for _, row := range protocolNames {
		for _, n := range row.names {
			if n == name {
				return row.p, nil
			}
		}
		have = append(have, row.names[0])
	}
	return 0, fmt.Errorf("unknown protocol %q (have %s)", s, strings.Join(have, ", "))
}

// QuorumPolicy selects how the §5 protocol decides a quorum is complete.
type QuorumPolicy int

// Quorum policies (§4 discusses both implementations of the Witness
// property).
const (
	// FixedQuorum waits for a fixed number of "j failed" senders: more than
	// n(t-1)/t of them (Theorem 7's minimum) unless Config.QuorumSize
	// overrides it.
	FixedQuorum QuorumPolicy = iota + 1
	// AllButSuspected waits for "j failed" from every process that the
	// detector does not itself suspect of having failed. Requires only
	// t < n but waits for up to n-1 messages (§4's first implementation).
	AllButSuspected
)

// Config parameterizes a Detector.
type Config struct {
	// N is the number of processes; T the maximum number of failures in any
	// run, including those caused by erroneous suspicions.
	N, T int
	// Protocol selects the detection protocol. Default: SimulatedFailStop.
	Protocol Protocol
	// Policy selects quorum completion for SimulatedFailStop.
	// Default: FixedQuorum.
	Policy QuorumPolicy
	// QuorumSize overrides the fixed quorum size (counting the detector
	// itself). 0 means quorum.MinSize(N, T). Used by the lower-bound
	// experiments to run deliberately undersized quorums.
	QuorumSize int
	// StrictGating, when true, defers application receives whenever any
	// detection is in progress (§5's literal "takes no other action"), not
	// only those from senders with outstanding detections. Both settings
	// satisfy sFS2d; the strict one blocks more.
	StrictGating bool
	// Topology, when non-nil and not the complete graph, scopes the §5
	// protocol to each process's neighborhood: SUSP broadcasts go to
	// topology peers only, and quorums complete over the process's pool
	// (its neighborhood plus itself, internal/quorum.PoolOf) rather than
	// all N processes. nil means the paper's complete graph. The same
	// *topo.Topology value must be shared by every detector in a cluster —
	// it is immutable after construction, so sharing is safe.
	Topology *topo.Topology
	// Piggyback explores the paper's §6 future work ("stronger versions of
	// fail-stop", specifically a transitive failed-before relation): SUSP
	// messages carry the sender's completed detections, and a receiver does
	// not count a "j failed" toward j's quorum until it has itself detected
	// everything the sender had detected when it sent the message. This
	// strengthens the ordering of detections — a process can then only
	// detect y after detecting what y's supporters knew — at the price of
	// additional blocking (experiment A3 measures both effects). Process
	// ids are encoded one byte each, so Piggyback requires N <= 255.
	Piggyback bool
}

func (c Config) withDefaults() Config {
	if c.Protocol == 0 {
		c.Protocol = SimulatedFailStop
	}
	if c.Policy == 0 {
		c.Policy = FixedQuorum
	}
	if c.QuorumSize == 0 && c.Protocol == SimulatedFailStop && c.Policy == FixedQuorum {
		// Under a partial topology the minimum is per-process (it depends
		// on each process's degree), so it is resolved at Init time from
		// the pool instead of being fixed here.
		if c.Topology == nil || c.Topology.IsFull() {
			c.QuorumSize = quorum.MinSize(c.N, c.T)
		}
	}
	return c
}

// Component is a protocol layer co-hosted with the detector on the same
// process (the fd heartbeat layer). It receives messages whose tags the
// detector does not own and timers prefixed "fd/".
type Component interface {
	Init(ctx node.Context, d *Detector)
	OnMessage(ctx node.Context, d *Detector, from model.ProcID, p node.Payload)
	OnTimer(ctx node.Context, d *Detector, name string)
}

// App is the application hosted above the detector. It is the paper's
// "process within the system": it sees failure notifications and
// application messages, never raw protocol traffic.
type App interface {
	Init(ctx node.Context, d *Detector)
	// OnAppMessage delivers an application payload. Under the §5 protocol
	// the receive event has already been gated per sFS2d.
	OnAppMessage(ctx node.Context, d *Detector, from model.ProcID, data []byte)
	// OnFailed notifies the app that failed_self(j) has just executed.
	OnFailed(ctx node.Context, d *Detector, j model.ProcID)
	// OnTimer fires application timers (names without the "fd/" prefix).
	OnTimer(ctx node.Context, d *Detector, name string)
}

// AppCrashListener is optionally implemented by Apps that must observe the
// crash of their own process — e.g. the §6 last-process-to-fail application,
// which models stable storage surviving the crash.
type AppCrashListener interface {
	OnCrash(ctx node.Context, d *Detector)
}

// Detector is one process's failure-detection layer: a node.Handler that
// runs the configured protocol and hosts an optional fd Component and an
// optional App.
type Detector struct {
	cfg Config
	fd  Component
	app App

	self      model.ProcID
	pool      quorum.Pool // quorum membership under cfg.Topology (set at Init)
	threshold int         // FixedQuorum completion size for this process's pool
	crashed   bool
	rounds    []round        // one per target ever suspected, ascending by target
	pending   []pendingCount // piggybacked counts awaiting dependencies
}

// round is the §5 protocol's state for one target j. senders is who has
// been heard saying "j failed" (self included); it stops growing when
// failed_self(j) executes, so from then on it is the quorum Q_{self,j} of
// Definition 5. A *round is good only until the next insertion into
// Detector.rounds, and an App.OnFailed may suspect: nothing holds one
// across a call that can reach complete.
type round struct {
	target              model.ProcID
	suspected, detected bool // broadcast sent; failed_self(target) executed
	senders             quorum.Set
}

// names reports whether p is the id of one of the N processes.
func (d *Detector) names(p model.ProcID) bool { return p >= 1 && int(p) <= d.cfg.N }

// at returns the index of j's round, or the index to insert it at.
func (d *Detector) at(j model.ProcID) (int, bool) {
	i := 0
	for i < len(d.rounds) && d.rounds[i].target < j {
		i++
	}
	return i, i < len(d.rounds) && d.rounds[i].target == j
}

// find returns j's round, or nil if j was never suspected.
func (d *Detector) find(j model.ProcID) *round {
	if i, ok := d.at(j); ok {
		return &d.rounds[i]
	}
	return nil
}

// round returns j's round, opening it if need be.
func (d *Detector) round(j model.ProcID) *round {
	i, ok := d.at(j)
	if !ok {
		d.rounds = slices.Insert(d.rounds, i, round{target: j})
	}
	return &d.rounds[i]
}

// hear adds sender to r's sender set, which is made wide enough for every
// process id so that no later sender regrows it.
func (d *Detector) hear(r *round, sender model.ProcID) {
	if r.senders == nil {
		r.senders = make(quorum.Set, quorum.Words(d.cfg.N))
	}
	r.senders.Add(sender)
}

// pendingCount is a "j failed" from sender whose piggybacked dependencies
// (the sender's detections at send time) the receiver has not yet matched.
type pendingCount struct {
	sender, target model.ProcID
	deps           []model.ProcID
}

// Interface conformance.
var (
	_ node.Handler       = (*Detector)(nil)
	_ node.Gate          = (*Detector)(nil)
	_ node.CrashListener = (*Detector)(nil)
	_ node.Restarter     = (*Detector)(nil)
)

// OnCrash implements node.CrashListener: it marks the detector dead (both
// genuine crashes injected by the environment and protocol-induced crashes
// flow through here) and forwards to the App if it listens.
func (d *Detector) OnCrash(ctx node.Context) {
	d.crashed = true
	if l, ok := d.app.(AppCrashListener); ok {
		l.OnCrash(ctx, d)
	}
}

// detectorSnapshot is the durable-state wire form of a Detector
// (internal/recovery): what the §5 layer remembers across a crash-restart
// cycle under durable recovery. Everything is in sorted-slice form so equal
// detector states encode to byte-identical snapshots. Pending piggybacked
// counts are deliberately transient and absent: they are in-flight work
// whose messages crash-time semantics say are lost, not remembered.
//
//sfs:wire
type detectorSnapshot struct {
	Suspected []model.ProcID  `json:"suspected,omitempty"`
	Detected  []model.ProcID  `json:"detected,omitempty"`
	Counts    []countSnapshot `json:"counts,omitempty"`
	Quorums   []countSnapshot `json:"quorums,omitempty"`
}

// countSnapshot is one target's sender set (for Counts) or quorum snapshot
// (for Quorums), senders sorted.
//
//sfs:wire
type countSnapshot struct {
	Target  model.ProcID   `json:"target"`
	Senders []model.ProcID `json:"senders"`
}

// Snapshot implements node.Restarter: it encodes the detector's protocol
// state (suspicions, quorum counts, completed detections with their quorum
// snapshots) at crash time. It does not mutate the detector.
func (d *Detector) Snapshot() []byte {
	var snap detectorSnapshot
	for _, r := range d.rounds {
		if r.suspected {
			snap.Suspected = append(snap.Suspected, r.target)
		}
		if r.detected {
			snap.Detected = append(snap.Detected, r.target)
		}
		if r.senders != nil {
			c := countSnapshot{Target: r.target, Senders: r.senders.Members()}
			snap.Counts = append(snap.Counts, c)
			if r.detected {
				snap.Quorums = append(snap.Quorums, c)
			}
		}
	}
	b, err := json.Marshal(snap)
	if err != nil {
		panic(fmt.Sprintf("core: encoding detector snapshot: %v", err))
	}
	return b
}

// OnRestart implements node.Restarter: the process comes back — blank under
// amnesia (nil state), or remembering its snapshot under durable recovery.
// Either way the crashed flag clears and Init re-runs the fd component and
// app, which is what plain Init cannot do for a crashed detector. Restored
// suspicions are NOT rebroadcast here: re-announcing them is the job of a
// stubborn message layer (internal/reliable with durable state), which is
// exactly the amnesia-vs-durable contrast experiment E15 measures. An
// undecodable snapshot degrades to amnesia rather than wedging the restart.
func (d *Detector) OnRestart(ctx node.Context, state []byte) {
	d.crashed = false
	d.rounds = nil
	d.pending = nil
	var snap detectorSnapshot
	if json.Unmarshal(state, &snap) != nil {
		snap = detectorSnapshot{}
	}
	// A snapshot is read back from storage: a target no round can have (self,
	// an id no process has) or a sender no process has is dropped, not trusted.
	target := func(j model.ProcID) bool { return d.names(j) && j != ctx.Self() }
	for _, j := range snap.Suspected {
		if target(j) {
			d.round(j).suspected = true
		}
	}
	for _, j := range snap.Detected {
		if target(j) {
			d.round(j).detected = true
		}
	}
	for _, c := range append(snap.Counts, snap.Quorums...) {
		for _, s := range c.Senders {
			if target(c.Target) && d.names(s) {
				d.hear(d.round(c.Target), s)
			}
		}
	}
	d.Init(ctx)
}

// NewDetector builds a detector with the given configuration, optional fd
// component, and optional application.
func NewDetector(cfg Config, fd Component, app App) *Detector {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		panic("core: need at least 2 processes")
	}
	if cfg.T < 1 {
		panic("core: T must be at least 1")
	}
	return &Detector{cfg: cfg, fd: fd, app: app}
}

// Config returns the detector's effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// Init implements node.Handler.
func (d *Detector) Init(ctx node.Context) {
	d.self = ctx.Self()
	d.pool = quorum.PoolOf(d.cfg.Topology, d.self, d.cfg.N, d.cfg.T)
	d.threshold = d.cfg.QuorumSize
	if d.threshold == 0 {
		d.threshold = d.pool.MinSize()
	}
	if d.fd != nil {
		d.fd.Init(ctx, d)
	}
	if d.app != nil {
		d.app.Init(ctx, d)
	}
}

// OnMessage implements node.Handler: protocol messages are handled here;
// application payloads go to the App; anything else goes to the fd
// Component.
func (d *Detector) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	if d.crashed {
		return
	}
	switch p.Tag {
	case TagSusp:
		d.onSusp(ctx, from, p.Subject, p.Data)
	case TagApp:
		if d.app != nil {
			d.app.OnAppMessage(ctx, d, from, p.Data)
		}
	default:
		if d.fd != nil {
			d.fd.OnMessage(ctx, d, from, p)
		}
	}
}

// OnTimer implements node.Handler: timers named "fd/..." belong to the fd
// component, the rest to the app.
func (d *Detector) OnTimer(ctx node.Context, name string) {
	if d.crashed {
		return
	}
	if len(name) >= 3 && name[:3] == "fd/" {
		if d.fd != nil {
			d.fd.OnTimer(ctx, d, name)
		}
		return
	}
	if d.app != nil {
		d.app.OnTimer(ctx, d, name)
	}
}

// Accepts implements node.Gate: the sFS2d receive deferral. Protocol and fd
// messages are always received; application messages are deferred while the
// receiver owes a detection that the sender has already announced (precise
// rule) or while any detection is in progress (StrictGating).
func (d *Detector) Accepts(from model.ProcID, p node.Payload) bool {
	if d.crashed || p.Tag != TagApp || d.cfg.Protocol == Unilateral {
		return true
	}
	if d.cfg.StrictGating {
		return !d.Detecting()
	}
	for _, r := range d.rounds {
		if !r.detected && r.senders.Has(from) {
			return false
		}
	}
	return true
}

// Suspect initiates the failure-detection protocol for target j, e.g. on a
// timeout (the paper's "process i suspects the failure of process j").
// Suspecting oneself, an id no process has, or an already-suspected or
// already-detected process is a no-op.
func (d *Detector) Suspect(ctx node.Context, j model.ProcID) {
	if d.crashed || j == d.self || !d.names(j) {
		return
	}
	r := d.round(j)
	if r.suspected || r.detected {
		return
	}
	r.suspected = true
	if d.cfg.Protocol != SimulatedFailStop {
		r.senders.Add(d.self) // a baseline counts nobody: its quorum is {self} and never grows
	}
	ctx.EmitInternal("suspect", j)
	switch d.cfg.Protocol {
	case Unilateral:
		// §4 strawman: no communication at all.
		d.complete(ctx, j)
	case Cheap:
		// §6: detect immediately after the broadcast; no quorum wait.
		d.broadcastSusp(ctx, j)
		d.complete(ctx, j)
	case SimulatedFailStop:
		d.broadcastSusp(ctx, j)
		d.countSusp(ctx, j, d.self)
		// A new suspicion shrinks the AllButSuspected requirement for every
		// in-flight detection: re-evaluate them all.
		if d.cfg.Policy == AllButSuspected {
			d.reevaluateAll(ctx)
		}
	}
}

func (d *Detector) broadcastSusp(ctx node.Context, j model.ProcID) {
	var data []byte
	if d.cfg.Piggyback {
		data = encodeProcIDs(d.DetectedSet())
	}
	d.ForEachPeer(func(q model.ProcID) {
		ctx.Send(q, node.Payload{Tag: TagSusp, Subject: j, Data: data})
	})
}

// ForEachPeer calls fn for every process this detector broadcasts to, in
// ascending id order: the topology neighborhood under a partial topology,
// everyone but self under the complete graph. Co-hosted components (the fd
// heartbeat layer) use it so their fan-out follows the topology too.
func (d *Detector) ForEachPeer(fn func(q model.ProcID)) {
	if top := d.cfg.Topology; top != nil && !top.IsFull() {
		top.ForEachPeer(d.self, fn)
		return
	}
	for q := model.ProcID(1); int(q) <= d.cfg.N; q++ {
		if q != d.self {
			fn(q)
		}
	}
}

// encodeProcIDs packs process ids one byte each (ids are <= 255).
func encodeProcIDs(ps []model.ProcID) []byte {
	if len(ps) == 0 {
		return nil
	}
	out := make([]byte, len(ps))
	for i, p := range ps {
		out[i] = byte(p)
	}
	return out
}

// decodeProcIDs unpacks encodeProcIDs.
func decodeProcIDs(data []byte) []model.ProcID {
	out := make([]model.ProcID, len(data))
	for i, b := range data {
		out[i] = model.ProcID(b)
	}
	return out
}

// onSusp processes a "x failed" message from sender.
func (d *Detector) onSusp(ctx node.Context, sender, x model.ProcID, data []byte) {
	if x == d.self {
		// "When process x receives a message of the form 'x failed', x
		// executes crash_x."
		ctx.CrashSelf()
		d.crashed = true
		return
	}
	if !d.names(x) {
		return // a message off the wire naming nobody: nothing to join or count
	}
	switch d.cfg.Protocol {
	case SimulatedFailStop:
		// "When process x receives a message of the form 'y failed', x
		// suspects the failure of y" — join the round, then count the sender.
		d.Suspect(ctx, x)
		if d.crashed {
			return
		}
		if d.cfg.Piggyback {
			if deps := d.unmetDeps(data); len(deps) > 0 {
				// The sender knew of detections we have not matched yet:
				// hold this count until we do (§6 exploration).
				d.pending = append(d.pending, pendingCount{sender: sender, target: x, deps: deps})
				return
			}
		}
		d.countSusp(ctx, x, sender)
	case Cheap:
		d.Suspect(ctx, x)
	case Unilateral:
		// Unilateral detectors send no SUSP messages, but crash-on-self-failed
		// above still applies if some other protocol's message arrives in a
		// mixed experiment; other targets are ignored.
	}
}

// countSusp records that sender has announced "j failed" and completes the
// detection if the quorum condition is met. Under a partial topology only
// pool members' testimony counts: a SUSP relayed from outside the
// neighborhood still triggers the join (Suspect) but cannot contribute to
// this process's quorum, which is what keeps the intersection guarantee
// scoped to the pool.
func (d *Detector) countSusp(ctx node.Context, j, sender model.ProcID) {
	r := d.round(j)
	if r.detected || !d.pool.Counts(sender) {
		return
	}
	d.hear(r, sender)
	d.maybeComplete(ctx, j)
}

func (d *Detector) maybeComplete(ctx node.Context, j model.ProcID) {
	r := d.find(j)
	if d.crashed || r == nil || r.detected || !r.suspected {
		return
	}
	switch d.cfg.Policy {
	case FixedQuorum:
		if r.senders.Len() < d.threshold {
			return
		}
	case AllButSuspected:
		// Wait for "j failed" from every pool member not suspected by self.
		complete := true
		d.ForEachPeer(func(q model.ProcID) {
			if complete && !d.Suspects(q) && !r.senders.Has(q) {
				complete = false
			}
		})
		if !complete {
			return
		}
	}
	d.complete(ctx, j)
}

// reevaluateAll offers every open round its completion, in ascending target
// id. A completion may open rounds (OnFailed may suspect), which moves the
// ones above them: the walk finds its place again by id.
func (d *Detector) reevaluateAll(ctx node.Context) {
	for i := 0; i < len(d.rounds) && !d.crashed; i++ {
		if r := d.rounds[i]; r.suspected && !r.detected {
			d.maybeComplete(ctx, r.target)
			i, _ = d.at(r.target)
		}
	}
}

// complete executes failed_self(j); j's sender set is its quorum from here on.
func (d *Detector) complete(ctx node.Context, j model.ProcID) {
	d.round(j).detected = true
	ctx.EmitFailed(j)
	if d.app != nil {
		d.app.OnFailed(ctx, d, j)
	}
	if d.cfg.Piggyback {
		d.drainPending(ctx)
	}
}

// unmetDeps returns the piggybacked detections (if any) that this process
// has not yet matched.
func (d *Detector) unmetDeps(data []byte) []model.ProcID {
	if len(data) == 0 {
		return nil
	}
	var out []model.ProcID
	for _, dep := range decodeProcIDs(data) {
		if !d.Detected(dep) && dep != d.self {
			out = append(out, dep)
		}
	}
	return out
}

// drainPending re-evaluates piggybacked counts whose dependencies may have
// just been satisfied. Completing one count can complete a detection that
// unblocks others, so iterate to a fixpoint.
func (d *Detector) drainPending(ctx node.Context) {
	for {
		progressed := false
		rest := d.pending[:0]
		for _, pc := range d.pending {
			if d.crashed {
				return
			}
			met := true
			for _, dep := range pc.deps {
				if !d.Detected(dep) {
					met = false
					break
				}
			}
			if met {
				d.countSusp(ctx, pc.target, pc.sender)
				progressed = true
			} else {
				rest = append(rest, pc)
			}
		}
		d.pending = rest
		if !progressed {
			return
		}
	}
}

// Detecting reports whether any detection is in progress: some target is
// suspected (broadcast sent) but failed_self(target) has not executed. It
// walks only the rounds opened, so callers can poll it per process without
// an O(N) scan over candidate targets.
func (d *Detector) Detecting() bool {
	for _, r := range d.rounds {
		if r.suspected && !r.detected {
			return true
		}
	}
	return false
}

// SendApp sends an application payload to another process through the
// detector layer.
func (d *Detector) SendApp(ctx node.Context, to model.ProcID, data []byte) {
	if d.crashed {
		return
	}
	ctx.Send(to, node.Payload{Tag: TagApp, Data: data})
}

// Detected reports whether failed_self(j) has executed.
func (d *Detector) Detected(j model.ProcID) bool { r := d.find(j); return r != nil && r.detected }

// Suspects reports whether self has suspected j (broadcast issued).
func (d *Detector) Suspects(j model.ProcID) bool { r := d.find(j); return r != nil && r.suspected }

// Crashed reports whether the process crashed.
func (d *Detector) Crashed() bool { return d.crashed }

// DetectedSet returns the sorted set of processes detected so far.
func (d *Detector) DetectedSet() []model.ProcID {
	out := make([]model.ProcID, 0, len(d.rounds))
	for _, r := range d.rounds {
		if r.detected {
			out = append(out, r.target)
		}
	}
	return out
}

// Quorums returns a copy of the quorum snapshot for each completed
// detection: the set Q_{self,j} of Definition 5 (senders of "j failed"
// heard before failed_self(j), including self).
func (d *Detector) Quorums() map[model.ProcID][]model.ProcID {
	out := make(map[model.ProcID][]model.ProcID)
	for _, r := range d.rounds {
		if r.detected {
			out[r.target] = r.senders.Members()
		}
	}
	return out
}
