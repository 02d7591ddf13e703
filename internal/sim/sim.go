// Package sim is a deterministic discrete-event simulator of the paper's
// asynchronous system model: n processes, reliable unidirectional FIFO
// channels, unbounded message delay, no global clock visible to processes.
//
// Determinism: given the same Config (including Seed), handlers, and
// injected actions, Run produces the identical history every time. The
// scheduler orders occurrences by (virtual time, insertion sequence), and
// all randomness flows from the seeded generator.
//
// Adversaries: message delays are chosen per message by Config.Delay
// (default: uniform in [MinDelay, MaxDelay]). A negative delay parks the
// message — and, because channels are FIFO, everything behind it — for the
// rest of the run; this is how the Theorem 6 / Appendix A.3 schedules
// "delay messages indefinitely".
//
// Network faults: Config.Link generalizes the delay choice into a full
// link decision (node.LinkDecision): each send may additionally be dropped,
// duplicated, parked, or reordered past the channel tail. Send events are
// recorded unconditionally; dropped messages are simply never received, and
// each delivered copy records its own receive event. Histories from runs
// with loss remain model-valid (lost messages are sent-but-unreceived);
// duplication and reorder genuinely leave the reliable-FIFO-channel model
// and are flagged by model.History.Validate — which is the point of the
// lossy-links experiment family.
//
// Process faults: Config.Lifetimes schedules plan-driven crashes (and,
// under Config.Recovery, restarts) of whole processes. A down process
// loses every message that arrives during its downtime — links are
// datagrams to a dead socket, not buffers — and its timers die with it.
// A restart re-initializes the handler: blank under amnesia, from the
// crash-time snapshot (node.Restarter) under durable recovery. Under
// recovery mode Off every lifetime is terminal at its first crash, which
// is the fail-stop reading of the same plan. What a send, a receive, a loss,
// a crash and a restart record and count is internal/host's, as on the live
// runtime: this package decides when each runs, and where a copy waits.
//
// Receive gating: handlers implementing node.Gate can refuse the message at
// the head of a channel; the channel blocks until a later event of the
// receiver changes the gate's answer. This is the mechanism by which the
// §5 protocol defers receive events to satisfy sFS2d. A run that ends with
// gated channels still holding messages is reported as blocked, which is
// itself a measurable outcome (Corollary 8 experiments).
//
// Data layout: nothing on the per-message path hashes, sorts through
// reflection, or reallocates, and each structure keeps one ordering
// contract that the recorded history depends on. Each part is a file whose
// comment states its layout and the reasons for it:
//   - queue.go: the event queue, a calendar of occurrences;
//   - transport.go: links, the message slab and due batches;
//   - proc.go: the per-process context and its timers;
//   - record.go: the history as it is written;
//   - recycle.go: what one run hands the next;
//   - rng.go: the delay stream.
package sim

import (
	"fmt"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// DelayFn chooses the delivery delay in ticks for a message sent at time at
// from from to to. Returning a negative value parks the message (and the
// channel behind it) for the remainder of the run.
type DelayFn func(from, to model.ProcID, p node.Payload, at int64) int64

// CheckDelayBounds rejects a MinDelay or MaxDelay that is negative or above
// host.MaxDelay (2⁴⁰). A DelayFn may park one message with a negative delay;
// a negative bound would have the default distribution park every message of
// the run. A bound near MaxInt64 overflows the width the distribution draws
// from, or carries the clock past MaxInt64 to a negative time, which reads as
// "parked". It is the one check behind New and cluster.Options.Validate (and
// so the facade's Options and sweep.Spec), and behind the live delays of the
// facade's Live; each entry point puts the name of its own struct and a dot
// before the error.
func CheckDelayBounds(min, max int64) error {
	if min < 0 || max < 0 {
		return fmt.Errorf("MinDelay = %d, MaxDelay = %d: a delay bound cannot be negative (no message arrives before it is sent)", min, max)
	}
	if min > host.MaxDelay || max > host.MaxDelay {
		return fmt.Errorf("MinDelay = %d, MaxDelay = %d: a delay bound cannot exceed %d (2^40: the clock is a sum of delays and must not overflow)", min, max, int64(host.MaxDelay))
	}
	return nil
}

// Config parameterizes a simulation.
type Config struct {
	// N is the number of processes (ids 1..N). Required.
	N int
	// Seed seeds the delay generator. Runs with equal seeds are identical.
	Seed int64
	// MinDelay and MaxDelay bound the default uniform message delay.
	// Defaults: 1 and 10.
	MinDelay, MaxDelay int64
	// Delay overrides the default delay distribution when non-nil.
	Delay DelayFn
	// Link, when non-nil, is consulted once per send and may drop, park,
	// delay, duplicate, or reorder the message (see node.LinkDecision).
	// Delay (or the default distribution) still chooses the base delay of
	// each delivered copy.
	Link node.LinkFn
	// MaxTime stops the simulation once the next occurrence would be later
	// than this horizon. 0 means no horizon (run to quiescence).
	MaxTime int64
	// MaxEvents stops a runaway protocol: before each occurrence after the
	// Inits, Run stops if the history already holds MaxEvents events. It is
	// not a cap on the history's length: the Inits and the occurrence that
	// crosses it record every event they emit. Default: 1 << 20.
	MaxEvents int
	// Metrics, when non-nil, exposes the simulator's counters (and those of
	// attached layers) through a shared registry for live snapshots. A
	// snapshot taken while Run goes on reads the host counters as of the
	// last finished tick: Run publishes them each time its clock advances.
	// The final readings always appear in Result.Metrics, registry or not.
	Metrics *obs.Registry
	// Spans, when non-nil, records message-lifecycle spans
	// (send → fate → enqueue → deliver/drop, plus suspect and crash-confirm)
	// with causal parents and the recorder's seed-deterministic sampling.
	Spans *obs.SpanRecorder
	// Timeline, when non-nil, is sampled at its cadence with the in-flight
	// message count, the largest link backlog, and the cumulative suspicion
	// count as virtual time advances.
	Timeline *obs.Timeline
	// Lifetimes schedules plan-driven process crashes and restarts
	// (typically netadv.Plan.Lifetimes()). Each lifetime crashes its
	// process at Crash — and, when Period > 0, every Period ticks after
	// that, with Until bounding the crash times — and restarts it
	// Restart-Crash ticks after each crash when Recovery is not Off.
	// A lifetime with Restart == 0, or any lifetime under Recovery Off,
	// is terminal at its first crash. Unbounded lifetimes (Period > 0,
	// Until == 0) require a MaxTime horizon; New panics otherwise.
	Lifetimes []recovery.Lifetime
	// Recovery selects what a restarted process remembers: Off disables
	// restarts entirely, Amnesia restarts handlers blank (Init, or
	// OnRestart with nil state), Durable restores the snapshot taken at
	// crash time from an in-memory store private to this run.
	Recovery recovery.Mode
}

// CheckHorizon rejects an unbounded lifetime under a recovering mode without
// a MaxTime: it restarts its process forever. New panics on it; it is the
// simulator's part of cluster.Options.CheckHorizon.
func (cfg Config) CheckHorizon() error {
	for i, l := range cfg.Lifetimes {
		if l.Unbounded() && cfg.Recovery != recovery.Off && cfg.MaxTime <= 0 {
			return fmt.Errorf("Lifetimes[%d] restarts process %d forever (period %d, no until); set MaxTime so the run terminates", i, l.Proc, l.Period)
		}
	}
	return nil
}

// StopReason states why a run ended. The zero value, StopDrained, means the
// event queue emptied; the horizon reasons distinguish a run truncated by
// the MaxTime clock from one truncated by the MaxEvents runaway-protocol
// cap — aggregation over large scenario sweeps needs to tell a genuinely
// bounded run from a runaway one.
type StopReason int

const (
	// StopDrained: the event queue emptied (messages may still sit in
	// gated or parked channels; see Result.Blocked and Result.Quiescent).
	StopDrained StopReason = iota
	// StopMaxTime: the next occurrence would have been later than
	// Config.MaxTime.
	StopMaxTime
	// StopMaxEvents: an occurrence was due when the history held
	// Config.MaxEvents events or more — possibly many more, as one
	// occurrence records all it emits (see Config.MaxEvents).
	StopMaxEvents
)

// stopReasonNames is the one reason↔name table: String, MarshalText and
// UnmarshalText all read it.
var stopReasonNames = []struct {
	r    StopReason
	name string
}{
	{StopDrained, "drained"},
	{StopMaxTime, "max-time"},
	{StopMaxEvents, "max-events"},
}

// name returns the reason's row of stopReasonNames, if it has one.
func (r StopReason) name() (string, bool) {
	for _, row := range stopReasonNames {
		if row.r == r {
			return row.name, true
		}
	}
	return "", false
}

// String renders the reason ("drained", "max-time", "max-events"), or
// "StopReason(n)" for a value that names none.
func (r StopReason) String() string {
	if name, ok := r.name(); ok {
		return name
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// MarshalText renders the reason name, so StopReason-keyed maps serialize
// as readable JSON objects in machine-readable sweep reports. A value that
// names no reason is refused, since UnmarshalText could not read it back.
func (r StopReason) MarshalText() ([]byte, error) {
	name, ok := r.name()
	if !ok {
		return nil, fmt.Errorf("sim: cannot marshal unknown stop reason %d", int(r))
	}
	return []byte(name), nil
}

// UnmarshalText parses a reason name produced by MarshalText.
func (r *StopReason) UnmarshalText(text []byte) error {
	for _, row := range stopReasonNames {
		if row.name == string(text) {
			*r = row.r
			return nil
		}
	}
	return fmt.Errorf("sim: unknown stop reason %q", text)
}

// Reasons for BlockedChannel.Reason.
const (
	// ReasonGated: the receiver's gate refused the channel head.
	ReasonGated = "gated"
	// ReasonParked: the adversary held the channel head forever.
	ReasonParked = "parked"
	// ReasonReceiverCrashed: the receiver crashed; leftovers are expected.
	ReasonReceiverCrashed = "receiver-crashed"
)

// BlockedChannel describes a channel that still held undelivered messages
// when the run ended, and why.
type BlockedChannel struct {
	From, To model.ProcID
	Queued   int
	// Reason is ReasonGated, ReasonParked, or ReasonReceiverCrashed.
	Reason string
}

// Result is the outcome of a run.
type Result struct {
	// History is the recorded event history, validated by construction.
	History model.History
	// EndTime is the virtual time of the last executed occurrence.
	EndTime int64
	// Sent and Delivered count send and receive events.
	Sent, Delivered int
	// Dropped counts messages discarded by Config.Link; Duplicated counts
	// extra copies it injected.
	Dropped, Duplicated int
	// Retransmits and AckedDuplicates aggregate the reliable-delivery layer
	// across all processes, when handlers carry one (frames retransmitted,
	// and received duplicates suppressed after re-acking). Both are 0 when
	// the layer is disabled.
	Retransmits, AckedDuplicates int
	// PlanCrashes counts crashes executed from Config.Lifetimes; Restarts
	// counts the restarts that followed; Recovered counts restarts that
	// restored a non-empty durable snapshot. All are 0 without lifetimes.
	PlanCrashes, Restarts, Recovered int
	// ByzDetected and ByzMasked aggregate the Byzantine validation layer
	// across all processes, when handlers carry one (misbehavior convictions,
	// and frames discarded from convicted senders). Both are 0 when the
	// layer is disabled.
	ByzDetected, ByzMasked int
	// Blocked lists channels holding undelivered messages to live processes
	// at the end of the run (gated or parked) plus channels into crashed
	// processes. A run with gated entries did not reach protocol quiescence.
	Blocked []BlockedChannel
	// Stop states why the run ended: drained, max-time, or max-events.
	Stop StopReason
	// Metrics is the name-sorted snapshot of the run's instruments
	// (sim_* counters plus reliable_* when the layer is attached). It is
	// always populated, independent of Config.Metrics.
	Metrics obs.Metrics
	// Timeline holds the sampled per-tick series when Config.Timeline was
	// set; nil otherwise.
	Timeline []obs.TimelineSeries

	released bool // in results, or drawn from it by a Run that has not returned
}

// HitHorizon reports that the run stopped at MaxTime or MaxEvents rather
// than by draining the event queue.
func (r *Result) HitHorizon() bool { return r.Stop != StopDrained }

// BlockedLive reports whether the run ended with messages stuck in gated
// or parked channels to live processes (messages to crashed processes are
// expected leftovers and do not count).
func (r *Result) BlockedLive() bool {
	for _, b := range r.Blocked {
		if b.Reason != ReasonReceiverCrashed {
			return true
		}
	}
	return false
}

// Quiescent reports whether the run drained completely: no horizon hit and
// nothing stuck in gated or parked channels.
func (r *Result) Quiescent() bool {
	return !r.HitHorizon() && !r.BlockedLive()
}

// Sim is a single-use simulator instance: configure, attach handlers,
// inject actions, then call Run exactly once.
type Sim struct {
	cfg   Config
	bulk  // drawn by New, retired by Run; zero from then on
	queue calendar
	now   int64
	seq   int64
	ran   bool

	linkArena []channel // the chunk the next new link is carved from
	chunks    int       // arenas carved from so far, linkArena the last
	slots     int32     // slab slots handed out so far
	free      int32     // head of the slab's free list
	spanOf    []int64   // per slot this run took: its message's enqueue span id; nil without Config.Spans

	// The recording: nrec events in pages, the last of them page. pages and
	// injects start out in the arrays below: a sweep-cell-sized run
	// allocates neither.
	pages     []*recPage
	page      *recPage
	nrec      int
	injects   []func(node.Context)
	pageBuf   [8]*recPage
	injectBuf [8]func(node.Context)

	// core is what this host shares with the live runtime: the rules of a
	// message's and a process's life, the host counters and their snapshot.
	// Steps count into tally, which Run publishes into core's counters as the
	// clock advances and once more at the end.
	core   host.Core
	tally  host.Tally
	gLinks obs.Gauge // live (materialized) channel count

	curSpan    int64 // span framing the handler callback now running, or 0
	inflight   int   // enqueued-but-undelivered message copies
	suspects   int64 // cumulative suspect internal events
	lastSample int64 // last timeline boundary sampled

	copies  []host.Copy  // what Route returns a send's copies in: copyBuf, or its growth
	copyBuf [2]host.Copy // the copies of a send that is neither duplicated nor replayed
}

// New creates a simulator for cfg.N processes. Handlers must be attached
// with SetHandler before Run.
func New(cfg Config) *Sim {
	if err := CheckDelayBounds(cfg.MinDelay, cfg.MaxDelay); err != nil {
		panic("sim: Config." + err.Error())
	}
	if cfg.MinDelay == 0 && cfg.MaxDelay == 0 {
		cfg.MinDelay, cfg.MaxDelay = 1, 10
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 1 << 20
	}
	if err := cfg.CheckHorizon(); err != nil {
		panic("sim: Config." + err.Error())
	}
	s := &Sim{cfg: cfg, free: noSlot, core: host.Core{
		Names: metricNames, Link: cfg.Link, Spans: cfg.Spans,
		Lifetimes: cfg.Lifetimes, Recovery: cfg.Recovery,
	}}
	s.core.Init("sim", cfg.N, cfg.Metrics) // it checks N, which nothing is sized by yet
	if s.bulk = drawBulk(); s.rng == nil {
		s.rng = new(delayRand)
	}
	s.rng.reseed(cfg.Seed) // notes the seed; the first draw fills the register
	// Retirement left handlers nil; every other inherited entry is written
	// before it is read. A ctxs too short is dropped, not grown: a procCtx
	// points into itself and must not be copied.
	if cap(s.handlers) <= cfg.N {
		s.handlers = make([]node.Handler, cfg.N+1)
	}
	if cap(s.ctxs) <= cfg.N {
		s.ctxs = make([]procCtx, cfg.N+1)
	}
	if s.ring == nil {
		s.ring = new([calLen]bucket)
	}
	s.handlers, s.ctxs, s.queue.ring, s.queue.far = s.handlers[:cfg.N+1], s.ctxs[:cfg.N+1], s.ring, s.far[:0]
	s.pages, s.injects, s.copies = s.pageBuf[:0], s.injectBuf[:0], s.copyBuf[:0]
	for p := range s.ctxs {
		c := &s.ctxs[p]
		c.s, c.p, c.crashed, c.down = s, model.ProcID(p), false, false
		c.gated, c.row, c.open, c.timers, c.failed = c.gated[:0], c.row[:0], c.openBuf[:0], c.timers[:0], c.failed[:0]
		if c.timers == nil {
			c.timers = c.timerBuf[:0]
		}
	}
	cfg.Metrics.RegisterGauge("sim_links_live", &s.gLinks)
	return s
}

// metricNames are the host counters' names on this backend.
var metricNames = host.MetricNames("sim_")

// SetHandler attaches the handler for process p (1..N); any other p panics.
func (s *Sim) SetHandler(p model.ProcID, h node.Handler) {
	s.live("SetHandler")
	s.core.CheckProc("SetHandler", p)
	s.handlers[p] = h
}

// live panics once Run has retired the bulk: what the call would write to is
// another run's by now.
func (s *Sim) live(call string) {
	if s.ctxs == nil {
		panic("sim: " + call + " after Run")
	}
}

// At schedules fn to run in the context of process p at virtual time t.
// If p has crashed by then, fn is skipped. Injections at equal times run in
// the order they were registered. A p that is not one of 1..N panics here,
// at the call, as Send does for such a receiver.
func (s *Sim) At(t int64, p model.ProcID, fn func(node.Context)) {
	s.live("At")
	s.core.CheckProc("At", p)
	s.push(occ(t, occInject, p, len(s.injects)))
	s.injects = append(s.injects, fn)
}

// CrashAt injects a genuine (spontaneous) crash of p at time t.
func (s *Sim) CrashAt(t int64, p model.ProcID) {
	s.live("CrashAt")
	s.At(t, p, func(ctx node.Context) { ctx.CrashSelf() })
}

func (s *Sim) push(o occurrence) {
	o.seq = s.seq
	s.seq++
	s.queue.push(o)
}

// Run executes the simulation to quiescence or horizon and returns the
// result. Run may be called only once.
func (s *Sim) Run() *Result {
	if s.ran {
		panic("sim: Run called twice")
	}
	s.ran = true
	for p := 1; p <= s.cfg.N; p++ {
		c := &s.ctxs[p]
		if c.h = s.handlers[p]; c.h == nil {
			panic(fmt.Sprintf("sim: no handler for process %d", p))
		}
		c.gate, _ = c.h.(node.Gate)
	}

	res, _ := results.Get().(*Result)
	if res == nil {
		res = &Result{}
	}
	res.released = false
	for i, l := range s.cfg.Lifetimes {
		s.push(occ(l.Crash, occPlanCrash, l.Proc, i))
	}
	for p := 1; p <= s.cfg.N; p++ {
		c := &s.ctxs[p]
		c.h.Init(c)
		s.afterEvent(c)
	}

	for s.queue.len() > 0 {
		if s.nrec >= s.cfg.MaxEvents {
			res.Stop = StopMaxEvents
			break
		}
		o := s.queue.pop()
		if s.cfg.MaxTime > 0 && o.time > s.cfg.MaxTime {
			res.Stop = StopMaxTime
			break
		}
		if o.time > s.now {
			s.core.Publish(&s.tally)
			if s.cfg.Timeline != nil {
				s.sampleTimeline(o.time)
			}
			s.now = o.time
		}
		c := &s.ctxs[o.proc]
		switch o.kind() {
		case occDeliver:
			s.deliverBatch(c)
		case occTimer:
			s.fireTimer(c, o)
		case occInject:
			if !c.gone() {
				s.injects[o.ref()](c)
				s.afterEvent(c)
			}
		case occPlanCrash:
			s.planCrash(c, o)
		case occRestart:
			s.restart(c)
		}
	}
	s.queue.release()
	s.core.Publish(&s.tally)

	res.History = s.materialize(res.History)
	res.EndTime = s.now
	res.Sent = int(s.core.Sent.Value())
	res.Delivered = int(s.core.Delivered.Value())
	res.Dropped = int(s.core.Dropped.Value())
	res.Duplicated = int(s.core.Duplicated.Value())
	res.PlanCrashes = int(s.core.PlanCrashes.Value())
	res.Restarts = int(s.core.Restarts.Value())
	res.Recovered = int(s.core.Recovered.Value())
	res.Blocked = s.blockedChannels(res.Blocked)
	layers := host.LayerStats(s.handlers)
	res.Retransmits, res.AckedDuplicates = layers.Retransmits, layers.AckedDuplicates
	res.ByzDetected, res.ByzMasked = layers.ByzDetected, layers.ByzMasked
	res.Metrics = s.core.Snapshot(res.Metrics, layers,
		obs.Metric{Name: "sim_links_live", Kind: obs.KindGauge, Value: s.gLinks.Value()})
	if s.cfg.Timeline != nil {
		res.Timeline = s.cfg.Timeline.Snapshot()
	}
	s.retire()
	return res
}

// sampleTimeline emits one point per series at every sampling boundary
// crossed by the jump from s.now to next.
func (s *Sim) sampleTimeline(next int64) {
	tl := s.cfg.Timeline
	every := tl.Every()
	for t := s.lastSample + every; t <= next; t += every {
		tl.Observe("inflight", t, float64(s.inflight))
		tl.Observe("link_backlog_max", t, float64(s.maxBacklog()))
		tl.Observe("suspects_total", t, float64(s.suspects))
		s.lastSample = t
	}
}

// maxBacklog returns the deepest link queue.
func (s *Sim) maxBacklog() int {
	mx := int32(0)
	for p := range s.ctxs {
		for _, c := range s.ctxs[p].row {
			mx = max(mx, c.n)
		}
	}
	return int(mx)
}
