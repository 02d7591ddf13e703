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
// is the fail-stop reading of the same plan.
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
// contract that the recorded history depends on.
//   - Processes. What the simulator keeps per process — whether it is up,
//     its handler and the gate asked for once at Run, the links its gate
//     refused, its open batches (the first twelve inline) and its row of links
//     — is one procCtx, the node.Context its handler is given: a delivery
//     reads one or two adjacent cache lines of its receiver, and a receiver's
//     list of open batches allocates nothing at the default delay range.
//   - Rows. A link is a *channel that knows its endpoints. A sender's links
//     sit in its row, ascending by receiver and materialized on first
//     traffic; Send finds the link by binary search and every later step
//     (due batches, gate lists, delivery) carries the pointer. Walking the
//     rows visits links in (from, to) order, which is the order of
//     Result.Blocked.
//   - Slab. In-flight messages live in one per-Sim slab of 64-byte slots —
//     payload, ready time, a 32-bit id, the next slot — grown a page at a time
//     so a slot never moves; a channel is a singly linked list of slots (head,
//     tail, count) and popped slots are cleared onto a free list. List order
//     is FIFO order; LinkDecision.Reorder swaps the contents of a channel's
//     last two slots. Span ids sit in a slice beside the slab that exists only
//     with Config.Spans.
//   - Open batches. Channel heads due at the same (tick, receiver) share one
//     event-queue occurrence: a 16-byte (time, first link) entry in the
//     receiver's list, the links chained through the channels themselves. A
//     receiver's open batches are kept sorted by time; a batch is pushed when
//     it opens, detached before it drains — a head rescheduled to the same
//     tick opens a fresh batch behind it — and drained in ascending sender
//     order, whatever order it was chained in. Gated links are re-evaluated in
//     ascending sender order too.
//   - Event queue. Virtual time is integer ticks and nearly every occurrence
//     lands a few ticks ahead, so the queue is a calendar: a ring of 256
//     buckets, one per tick, each a FIFO of 32-byte, pointer-free occurrences
//     in pooled pages that are never cleared. Insertion sequence only grows,
//     so appending to a bucket keeps (time, sequence) order with no
//     comparison. An occurrence 256 ticks ahead or more waits in a binary heap
//     — the only use a heap still has — and moves into the ring when its tick
//     enters the window, before anything of that tick runs and before anything
//     can be pushed to that tick directly. An occurrence pushed for a tick
//     already passed belongs to the current one, behind what it already holds.
//     What an occurrence would point at — a timer's name, an injected
//     function, a lifetime — sits in a table and the occurrence carries its
//     index.
//   - Timers. A process's named timers are slots of a small per-process
//     table, found by scanning the names on set and cancel and by index on
//     fire. A slot remembers the insertion sequence of the occurrence that
//     is to fire it, and sequence numbers are never reused: an occurrence
//     that was replaced, cancelled, or armed by an incarnation that has
//     since crashed matches no slot, whatever the name is used for later.
//   - History. Each event is written once, as a 32-byte pointer-free record
//     (its Seq is its index, its Tag an index into a per-run tag table), into
//     fixed-size pages that runs hand to one another through a pool and never
//     clear: nothing is outgrown, re-copied or zeroed while the run records,
//     and nothing recorded is scanned. Run builds Result.History from the
//     pages once, at its exact length. That one run-sized allocation is the
//     recording's main cost: the runtime clears it before it is filled, and
//     the two passes are ≈ 9 % of a run at N=10,000 (46 MB) and ≈ 15 % at
//     n=10 (253 KiB) — unless a released Result left an array long enough,
//     which is then filled in place.
//   - Recycling. A Sim is single-use, but what it built is not: the process
//     table with each row's and gate list's capacity, the handler table, the
//     slab's pages, the link arena's chunks, the overflow heap's array, the
//     failed set and the generator are one bulk, which Run retires as its last
//     step and New draws. One retired bulk is held by a plain pointer and any
//     retired while that is taken go to a pool, which New asks first: runs one
//     after another hand the same bulk on whenever the collector runs and
//     whichever P they are on, so what they allocate is the same every time,
//     and concurrent runs find their own in the pool. The price is that a
//     process keeps one bulk (≈ 38 MB after a run at N=10,000) until another
//     run draws it.
//     New resets what it draws as if it were garbage — each process's flags,
//     lists and tables emptied (its handler and gate are set by Run), the
//     failed set cleared, the generator told its seed, the arena re-carved from
//     its first chunk, every slot and link written before it is read — and relies
//     on retirement for one thing, a nil handler table; retirement also drops
//     what would pin another run's objects (each process's handler and Sim,
//     payloads still queued). A run that panics retires nothing. The *Sim is never pooled:
//     its counters are what a Config.Metrics registry reads, and a span
//     recorder or a timeline belongs to the caller in the same way. Once Run
//     has returned, At, CrashAt and SetHandler panic, and a node.Context — the
//     procCtx — is some other run's: it was already valid only for the callback
//     it was handed to. A Result is its caller's for good unless the caller
//     gives it back with Release.
//     The generator's stream is rand.New(rand.NewSource(Seed))'s, draw for
//     draw — every pinned history was recorded from it, so it is reproduced
//     (rng.go), not replaced — but its 607-word register is filled at the
//     first draw, not by New: a run whose delays all come from Config.Delay
//     never pays for it, and one that draws pays a fifth of what math/rand's
//     seeding costs.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

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

// maxDelayBound is the largest MinDelay or MaxDelay accepted. The clock is a
// sum of delays, one an event at most: at the default MaxEvents (2²⁰) no run
// under this bound carries it past 2⁶⁰.
const maxDelayBound = 1 << 40

// CheckDelayBounds rejects a MinDelay or MaxDelay that is negative or above
// 2⁴⁰. A DelayFn may park one message with a negative delay; a negative bound
// would have the default distribution park every message of the run. A bound
// near MaxInt64 overflows the width the distribution draws from, or carries
// the clock past MaxInt64 to a negative time, which reads as "parked". It is
// the one check behind New and cluster.Options.Validate (and so the facade's
// Options and LiveOptions and sweep.Spec); each entry point puts the name of
// its own struct and a dot before the error.
func CheckDelayBounds(min, max int64) error {
	if min < 0 || max < 0 {
		return fmt.Errorf("MinDelay = %d, MaxDelay = %d: a delay bound cannot be negative (no message arrives before it is sent)", min, max)
	}
	if min > maxDelayBound || max > maxDelayBound {
		return fmt.Errorf("MinDelay = %d, MaxDelay = %d: a delay bound cannot exceed %d (2^40: the clock is a sum of delays and must not overflow)", min, max, int64(maxDelayBound))
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
	// MaxEvents caps the history length as a runaway-protocol safeguard.
	// Default: 1 << 20.
	MaxEvents int
	// Metrics, when non-nil, exposes the simulator's counters (and those of
	// attached layers) through a shared registry for live snapshots. The
	// same readings always appear in Result.Metrics, registry or not.
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

// pendingMsg is one in-flight message copy: a slot of the per-Sim slab,
// exactly one cache line, linked to the message behind it on the same channel
// (or, on the free list, to the next free slot). The enqueue span of a sampled
// message sits beside the slab, in Sim.spanOf.
type pendingMsg struct {
	payload node.Payload
	readyAt int64  // delivery-ready time; -1 if parked forever
	id      uint32 // the model.MsgID; Send refuses to count past what fits
	next    int32  // slab index of the next slot; noSlot at the end of the list
}

// noSlot terminates a channel's message list and the slab's free list.
const noSlot int32 = -1

// The slab grows a page at a time and never moves a slot: one flat array
// regrown by append re-copies every in-flight message at each step, which
// at N=10,000 allocates 135 MB to end with a 24 MB slab.
const (
	slabPageBits = 8
	slabPageLen  = 1 << slabPageBits
)

type slabPage [slabPageLen]pendingMsg

// channel is the link C_{from,to}: a FIFO of slab slots. It is found by
// (from, to) once, at Send time, and carried by pointer from then on.
type channel struct {
	from, to   model.ProcID
	due        *channel // the next link of the due batch this one waits in
	head, tail int32    // slab indices; noSlot when the channel is empty
	n          int32    // messages queued
	scheduled  bool     // a head-delivery occurrence is in the event queue
	gated      bool     // head was refused by the receiver's gate
}

type occKind uint8

const (
	occDeliver occKind = iota + 1
	occTimer
	occInject
	occPlanCrash
	occRestart
)

// occurrence is one event-queue entry: 32 bytes, no pointers, and the four
// fields the compiler will still keep in registers — with a fifth, every copy
// goes through memory in pieces (TestQueueAndRecordLayout holds all three).
type occurrence struct {
	time int64
	seq  int64  // insertion order; total tie-break
	proc int32  // the batch receiver of an occDeliver; the process of any other
	what uint32 // the occKind in the low occKindBits, the ref above them
}

const occKindBits = 3

// occ builds an occurrence; push numbers it. ref is an occTimer's slot in the
// process's timer table, an occInject's index in Sim.injects, an occPlanCrash's
// or occRestart's in Config.Lifetimes: memory holds fewer than 2²⁹ of any.
func occ(time int64, kind occKind, proc model.ProcID, ref int) occurrence {
	return occurrence{time: time, proc: int32(proc), what: uint32(kind) | uint32(ref)<<occKindBits}
}

func (o occurrence) kind() occKind { return occKind(o.what & (1<<occKindBits - 1)) }
func (o occurrence) ref() int      { return int(o.what >> occKindBits) }

// dueBatch is one batched-delivery occurrence: every channel head due at
// the same (time, receiver) coalesces into a single event-queue entry, so the
// queue holds O(active receivers) delivery occurrences per tick instead of
// O(in-flight messages). The batch is the chain of its links through
// channel.due, in no particular order.
type dueBatch struct {
	at   int64
	head *channel
}

// occHeap is a binary min-heap of occurrences ordered by (time, seq): the
// calendar's overflow, for occurrences beyond its window. It stores values,
// not pointers, and implements push/pop directly instead of through
// container/heap, whose interface-based API boxes every occurrence into an
// allocation per push.
type occHeap []occurrence

func (h occHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *occHeap) pushOcc(o occurrence) {
	q := append(*h, o)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *occHeap) popOcc() occurrence {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(r, l) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return top
}

const (
	calLen     = 256 // ticks the calendar's ring looks ahead
	occPageLen = 63  // with its header a page is 2 KiB
)

// occPage is a page of one tick's occurrences. Like the record pages, occPages
// pass from run to run through a pool, never cleared: no entry at or above n
// is read.
type occPage struct {
	next *occPage // first, so it is the only word of a page the collector reads
	n    int      // entries written
	occ  [occPageLen]occurrence
}

var occPages = sync.Pool{New: func() any { return new(occPage) }}

// calendar is the event queue (see the package comment). Every occurrence in
// far is at least calLen ticks ahead of now, so the earliest one is in the
// ring whenever the ring holds any.
type calendar struct {
	now   int64 // the tick being drained; its bucket is ring[now&(calLen-1)]
	rd    int   // entries already popped from that bucket's head page
	held  int   // occurrences in the ring
	ring  [calLen]struct{ head, tail *occPage }
	far   occHeap
	spare *occPage // the page released last: a sparse tick goes round no pool
}

func (q *calendar) len() int { return q.held + len(q.far) }

// push queues o, a time already passed counting as the current tick.
func (q *calendar) push(o occurrence) {
	if o.time < q.now {
		o.time = q.now
	}
	if o.time-q.now >= calLen {
		q.far.pushOcc(o)
		return
	}
	b := &q.ring[o.time&(calLen-1)]
	pg := b.tail
	if pg == nil || pg.n == occPageLen {
		np := q.spare
		if q.spare = nil; np == nil {
			np = occPages.Get().(*occPage)
		}
		np.next, np.n = nil, 0
		if pg == nil {
			b.head = np
		} else {
			pg.next = np
		}
		b.tail, pg = np, np
	}
	pg.occ[pg.n] = o
	pg.n++
	q.held++
}

// pop removes and returns the earliest occurrence of a queue that holds one,
// moving now to its tick. When that leaves the current tick, the far
// occurrences whose ticks enter the window move into the ring first, in the
// heap's order: nothing could be pushed to those ticks directly before.
func (q *calendar) pop() occurrence {
	b := &q.ring[q.now&(calLen-1)]
	if b.head == nil {
		if q.held > 0 {
			for q.now++; q.ring[q.now&(calLen-1)].head == nil; q.now++ {
			}
		} else {
			q.now = q.far[0].time
		}
		for len(q.far) > 0 && q.far[0].time-q.now < calLen {
			q.push(q.far.popOcc())
		}
		b = &q.ring[q.now&(calLen-1)]
	}
	pg := b.head
	o := pg.occ[q.rd]
	q.held--
	if q.rd++; q.rd == pg.n { // read out: a later push to this tick starts a new page
		if b.head = pg.next; b.head == nil {
			b.tail = nil
		}
		q.rd = 0
		if q.spare == nil {
			q.spare = pg
		} else {
			occPages.Put(pg)
		}
	}
	return o
}

// release hands every page still held to the next run.
func (q *calendar) release() {
	for i := range q.ring {
		for pg := q.ring[i].head; pg != nil; {
			next := pg.next
			occPages.Put(pg)
			pg = next
		}
	}
	if q.spare != nil {
		occPages.Put(q.spare)
	}
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
	// StopMaxEvents: the history reached Config.MaxEvents.
	StopMaxEvents
)

// String renders the reason ("drained", "max-time", "max-events").
func (r StopReason) String() string {
	switch r {
	case StopDrained:
		return "drained"
	case StopMaxTime:
		return "max-time"
	case StopMaxEvents:
		return "max-events"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// MarshalText renders the reason name, so StopReason-keyed maps serialize
// as readable JSON objects in machine-readable sweep reports.
func (r StopReason) MarshalText() ([]byte, error) {
	return []byte(r.String()), nil
}

// UnmarshalText parses a reason name produced by MarshalText.
func (r *StopReason) UnmarshalText(text []byte) error {
	switch string(text) {
	case "drained":
		*r = StopDrained
	case "max-time":
		*r = StopMaxTime
	case "max-events":
		*r = StopMaxEvents
	default:
		return fmt.Errorf("sim: unknown stop reason %q", text)
	}
	return nil
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

var results sync.Pool // of *Result, each released by its sole owner

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

// bulk is everything run-sized that is dead when Run returns. Run retires it as
// its last step and New draws one, so a run inherits the capacity of the one
// before it (see Recycling in the package comment).
type bulk struct {
	rng      *delayRand
	handlers []node.Handler // index 1..N; Run copies each into its procCtx
	ctxs     []procCtx      // index 1..N
	failed   map[[2]model.ProcID]bool
	arenas   [][]channel // every chunk links are carved from, in carving order
	slab     []*slabPage // every in-flight message copy, linked per channel
	drain    []*channel  // deliverBatch's scratch: the batch being drained, sorted
	far      occHeap     // the calendar's overflow array, while no run holds it
}

// A retired bulk waits in lastBulk when that is empty and in bulks otherwise.
// The pool drops what it holds at a collection and hides it from a goroutine
// that has changed Ps; lastBulk does neither, so runs one after another always
// hand their bulk on and what they allocate does not depend on the collector
// or the scheduler. Concurrent runs fill lastBulk once and from then on find
// their own bulks, warm, in the pool, which New asks first.
var (
	lastBulk atomic.Pointer[bulk]
	bulks    sync.Pool // of *bulk
)

// drawBulk returns a retired bulk, or nil when there is none.
func drawBulk() *bulk {
	if b, _ := bulks.Get().(*bulk); b != nil {
		return b
	}
	return lastBulk.Swap(nil)
}

// Release gives the result's memory — the arrays of History, Blocked and
// Metrics — to a later Run. Only the sole owner of the result may call it, and
// the caller must not read the result, its History included, afterwards: any
// Run on any goroutine may be rewriting it. Nothing requires the call; a
// result that is not released is the garbage collector's, as ever. Releasing a
// zero Result is harmless; releasing one twice panics.
func (r *Result) Release() {
	if r.released {
		panic("sim: Result released twice")
	}
	*r = Result{History: r.History[:0], Blocked: r.Blocked[:0], Metrics: r.Metrics[:0], released: true}
	results.Put(r)
}

// Sim is a single-use simulator instance: configure, attach handlers,
// inject actions, then call Run exactly once.
type Sim struct {
	cfg     Config
	bulk    // drawn by New, retired by Run; zero from then on
	queue   calendar
	now     int64
	seq     int64
	nextMsg model.MsgID
	ran     bool

	linkArena []channel // the chunk the next new link is carved from
	chunks    int       // arenas carved from so far, linkArena the last
	slots     int32     // slab slots handed out so far
	free      int32     // head of the slab's free list
	spanOf    []int64   // per slab slot: its message's enqueue span id; nil without Config.Spans

	// The recording: nrec records in pages, the last of them page. pages,
	// tags and injects start out in the arrays below: a sweep-cell-sized
	// run allocates none of the three.
	pages     []*recPage
	page      *recPage
	nrec      int
	tags      []string          // tag table; tags[0] is the empty tag
	tagIdx    map[string]uint32 // index into tags, once a scan of it would be long
	wide      []model.ProcID    // event targets too wide for a record
	injects   []func(node.Context)
	pageBuf   [8]*recPage
	tagBuf    [16]string
	injectBuf [8]func(node.Context)

	// core is what this host shares with the live runtime: fate application,
	// process lifetimes, the host counters and their snapshot.
	core   host.Core
	gLinks obs.Gauge // live (materialized) channel count

	curSpan    int64 // span framing the handler callback now running, or 0
	inflight   int   // enqueued-but-undelivered message copies
	suspects   int64 // cumulative suspect internal events
	lastSample int64 // last timeline boundary sampled
}

// New creates a simulator for cfg.N processes. Handlers must be attached
// with SetHandler before Run.
func New(cfg Config) *Sim {
	if cfg.N <= 0 {
		panic("sim: Config.N must be positive")
	}
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
	s := &Sim{
		cfg: cfg,
		core: host.Core{
			Names: metricNames, Link: cfg.Link, Spans: cfg.Spans,
			Lifetimes: cfg.Lifetimes, Recovery: cfg.Recovery,
		},
		free: noSlot,
	}
	if b := drawBulk(); b != nil {
		s.bulk = *b
		clear(s.failed)
	} else {
		s.rng, s.failed = new(delayRand), make(map[[2]model.ProcID]bool)
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
	s.handlers, s.ctxs, s.queue.far = s.handlers[:cfg.N+1], s.ctxs[:cfg.N+1], s.far[:0]
	if cfg.Spans != nil {
		s.spanOf = make([]int64, len(s.slab)*slabPageLen)
	}
	s.pages, s.tags, s.injects = s.pageBuf[:0], s.tagBuf[:1], s.injectBuf[:0]
	for p := range s.ctxs {
		c := &s.ctxs[p]
		c.s, c.p, c.crashed, c.down = s, model.ProcID(p), false, false
		c.gated, c.row, c.open, c.timers = c.gated[:0], c.row[:0], c.openBuf[:0], c.timerBuf[:0]
	}
	s.core.Init("sim", cfg.N, cfg.Metrics)
	cfg.Metrics.RegisterGauge("sim_links_live", &s.gLinks)
	return s
}

// metricNames are the host counters' names on this backend.
var metricNames = host.MetricNames("sim_")

// SetHandler attaches the handler for process p (1..N); any other p panics.
func (s *Sim) SetHandler(p model.ProcID, h node.Handler) {
	s.live("SetHandler")
	s.checkProc("SetHandler", p)
	s.handlers[p] = h
}

// live panics once Run has retired the bulk: what the call would write to is
// another run's by now.
func (s *Sim) live(call string) {
	if s.ctxs == nil {
		panic("sim: " + call + " after Run")
	}
}

// checkProc panics unless p is one of the processes 1..N.
func (s *Sim) checkProc(call string, p model.ProcID) {
	if p < 1 || int(p) > s.cfg.N {
		panic(fmt.Sprintf("sim: %s for invalid process %d (have 1..%d)", call, p, s.cfg.N))
	}
}

// At schedules fn to run in the context of process p at virtual time t.
// If p has crashed by then, fn is skipped. Injections at equal times run in
// the order they were registered. A p that is not one of 1..N panics here,
// at the call, as Send does for such a receiver.
func (s *Sim) At(t int64, p model.ProcID, fn func(node.Context)) {
	s.live("At")
	s.checkProc("At", p)
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

// retire hands the bulk to the next run. It is Run's last step and no
// deferred one: a run that panicked retires nothing. blockedChannels has
// already let go of the handlers' contexts and the queued payloads; with the
// handlers cleared the bulk points at nothing outside itself, and with its
// fields nil on s a late At, SetHandler or CrashAt panics.
func (s *Sim) retire() {
	clear(s.handlers)
	s.far, s.queue.far = s.queue.far, nil
	b := s.bulk
	s.bulk = bulk{}
	if !lastBulk.CompareAndSwap(nil, &b) {
		bulks.Put(&b)
	}
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

// blockedChannels reports every link still holding messages, in (from, to)
// order — the order the rows are kept in — into out's array when that is long
// enough, nil when there are none. It is the last walk over the processes and
// their links, so it is also where they let go of what a retired bulk must not
// pin: the handler and the Sim of each process, the payloads still queued.
func (s *Sim) blockedChannels(out []BlockedChannel) []BlockedChannel {
	n := 0
	for p := range s.ctxs {
		for _, c := range s.ctxs[p].row {
			if c.n != 0 {
				n++
			}
		}
	}
	if n == 0 {
		out = nil
	} else {
		out = slices.Grow(out[:0], n)
	}
	for p := range s.ctxs {
		pc := &s.ctxs[p]
		pc.s, pc.h, pc.gate = nil, nil, nil
		for _, c := range pc.row {
			if c.n == 0 {
				continue
			}
			reason := ReasonGated
			switch {
			// A process that is down at the end of the run is as gone as a
			// crashed one: its leftovers are expected, not a liveness failure.
			case s.ctxs[c.to].gone():
				reason = ReasonReceiverCrashed
			case s.slot(c.head).readyAt < 0:
				reason = ReasonParked
			}
			out = append(out, BlockedChannel{From: c.from, To: c.to, Queued: int(c.n), Reason: reason})
			for idx := c.head; idx != noSlot; {
				slot := s.slot(idx)
				idx, *slot = slot.next, pendingMsg{}
			}
		}
	}
	return out
}

// link returns the channel c.p→to, materializing it on first use: per-link
// state is lazy, so a sparse topology over a large N allocates O(active
// links), not the O(N²) of a full mesh. A sender's row stays sorted by
// receiver, so the lookup is a binary search and end-of-run walks see links
// in (from, to) order without sorting.
func (c *procCtx) link(to model.ProcID) *channel {
	// The two searches on the per-message path are written out: through
	// slices.BinarySearchFunc (a call per comparison) flood-mesh-n10 ran 6 %
	// fewer runs per second.
	s, row := c.s, c.row
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo].to == to {
		return row[lo]
	}
	// Links are carved from arena chunks that are never regrown, so a
	// *channel stays valid for the run; a run pays one allocation per chunk
	// instead of one per link.
	if len(s.linkArena) == cap(s.linkArena) {
		if s.chunks == len(s.arenas) {
			s.arenas = append(s.arenas, make([]channel, 0, min(max(2*cap(s.linkArena), 16), 1024)))
		}
		s.linkArena = s.arenas[s.chunks][:0]
		s.chunks++
	}
	s.linkArena = append(s.linkArena, channel{from: c.p, to: to, head: noSlot, tail: noSlot})
	ch := &s.linkArena[len(s.linkArena)-1]
	c.row = slices.Insert(row, lo, ch)
	s.gLinks.Add(1)
	return ch
}

// slot returns the slab slot with index idx.
func (s *Sim) slot(idx int32) *pendingMsg {
	return &s.slab[idx>>slabPageBits][idx&(slabPageLen-1)]
}

// enqueue appends msg, whose enqueue span is span, to c's FIFO, taking a slot
// from the slab's free list or growing the slab. With overtake set (and at
// least two messages already queued) the new message lands immediately before
// the current tail: the last two slots swap contents, a pairwise FIFO
// violation.
func (s *Sim) enqueue(c *channel, msg pendingMsg, span int64, overtake bool) {
	idx := s.free
	if idx != noSlot {
		s.free = s.slot(idx).next
	} else {
		idx = s.slots
		if int(idx>>slabPageBits) == len(s.slab) {
			s.slab = append(s.slab, new(slabPage))
			if s.cfg.Spans != nil {
				s.spanOf = append(s.spanOf, make([]int64, slabPageLen)...)
			}
		}
		s.slots++
	}
	msg.next = noSlot
	if c.n == 0 {
		c.head = idx
	} else {
		tail := s.slot(c.tail)
		tail.next = idx
		if overtake && c.n > 1 {
			msg, *tail = *tail, msg
			tail.next, msg.next = idx, noSlot
			if s.spanOf != nil {
				span, s.spanOf[c.tail] = s.spanOf[c.tail], span
			}
		}
	}
	*s.slot(idx) = msg
	if s.spanOf != nil {
		s.spanOf[idx] = span
	}
	c.tail = idx
	c.n++
}

// dequeue removes and returns c's head message and its enqueue span. The
// vacated slot is cleared before it joins the free list, so a delivered
// payload is not pinned.
func (s *Sim) dequeue(c *channel) (msg pendingMsg, span int64) {
	idx := c.head
	slot := s.slot(idx)
	msg = *slot
	*slot = pendingMsg{next: s.free}
	s.free = idx
	c.head = msg.next
	if c.n--; c.n == 0 {
		c.tail = noSlot
	}
	if s.spanOf != nil {
		span = s.spanOf[idx]
	}
	return msg, span
}

// scheduleDelivery enqueues channel c's head delivery at time at, not
// earlier than now. Deliveries sharing a (time, receiver) coalesce into one
// occurrence and drain in ascending sender order — deterministic, and
// independent of the order the batch was assembled in. A receiver's open
// batches are kept latest-first, so finding (or placing) the batch for at is
// a binary search however many distinct due times the receiver holds, and
// the batch that fires next is always the last one.
func (s *Sim) scheduleDelivery(c *channel, at int64) {
	rc := &s.ctxs[c.to]
	open := rc.open
	lo, hi := 0, len(open)
	for lo < hi { // latest-first: search for the first batch not later than at
		mid := int(uint(lo+hi) >> 1)
		if open[mid].at > at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(open) && open[lo].at == at {
		c.due, open[lo].head = open[lo].head, c
		return
	}
	c.due = nil
	rc.open = slices.Insert(open, lo, dueBatch{at: at, head: c})
	s.push(occ(at, occDeliver, c.to, 0))
}

// deliverBatch drains every channel head due for receiver rc at the current
// time. Occurrences fire in time order and every open batch has one, so the
// batch due now is the receiver's earliest — the last in its list. It is
// detached before it drains: a head rescheduled to the same tick during the
// drain (the next message of a channel whose head just delivered, or a
// channel un-gated by one of these deliveries) opens a fresh batch behind
// this one.
func (s *Sim) deliverBatch(rc *procCtx) {
	last := len(rc.open) - 1
	c := rc.open[last].head
	rc.open = rc.open[:last]
	if c.due == nil {
		s.deliver(rc, c)
		return
	}
	// Sorted descending: that is how senders acting in id order chain up, so
	// a link then costs one append. Nothing re-enters deliverBatch as it drains.
	links := s.drain[:0]
	for ; c != nil; c = c.due {
		i := len(links)
		links = append(links, c)
		for ; i > 0 && links[i-1].from < c.from; i-- {
			links[i] = links[i-1]
		}
		links[i] = c
	}
	s.drain = links
	for i := len(links) - 1; i >= 0; i-- {
		s.deliver(rc, links[i])
	}
}

// deliver attempts to deliver the head of channel c to its receiver rc.
func (s *Sim) deliver(rc *procCtx, c *channel) {
	c.scheduled = false
	if c.n == 0 || rc.crashed {
		return
	}
	// A reordered enqueue can put a not-yet-ready (or parked) message in
	// front of the one this occurrence was scheduled for: re-anchor on the
	// current head's ready time instead of delivering early.
	slot := s.slot(c.head)
	if slot.readyAt < 0 {
		return // parked head; channel blocks
	}
	if slot.readyAt > s.now {
		c.scheduled = true
		s.scheduleDelivery(c, slot.readyAt)
		return
	}
	if rc.down {
		// The message arrives while the receiver is down: it is lost, the
		// way a datagram to a dead socket is. Messages still in flight may
		// yet land after a restart, so loss is decided per arrival, here.
		head, span := s.dequeue(c)
		s.inflight--
		if span != 0 {
			s.cfg.Spans.Record(obs.Span{
				Parent: span, Time: s.now, Kind: obs.SpanDrop,
				Proc: c.to, Peer: c.from, Msg: model.MsgID(head.id), Note: "receiver down",
			})
		}
		s.scheduleHead(c)
		return
	}
	if rc.gate != nil && !rc.gate.Accepts(c.from, slot.payload) {
		c.gated = true
		rc.gated = append(rc.gated, c)
		return
	}
	c.gated = false
	head, span := s.dequeue(c)
	s.record(model.Recv(c.to, c.from, model.MsgID(head.id), head.payload.Tag, head.payload.Subject))
	s.core.Delivered.Inc()
	s.inflight--
	prevSpan := s.curSpan
	if span != 0 {
		s.curSpan = s.cfg.Spans.Record(obs.Span{
			Parent: span, Time: s.now, Kind: obs.SpanDeliver,
			Proc: c.to, Peer: c.from, Msg: model.MsgID(head.id), Tag: head.payload.Tag,
		})
	} else {
		s.curSpan = 0
	}
	s.scheduleHead(c)
	rc.h.OnMessage(rc, c.from, head.payload)
	s.afterEvent(rc)
	s.curSpan = prevSpan
}

// afterEvent re-evaluates gated channels into c after any event of c: the
// gate's answer may have changed (e.g. a detection completed). Gated
// channels are tracked per receiver, in ascending sender order, so the pass
// costs O(channels gated into c), not a scan of every live link in the run.
func (s *Sim) afterEvent(c *procCtx) {
	if len(c.gated) == 0 || c.gone() {
		return
	}
	slices.SortFunc(c.gated, func(a, b *channel) int { return cmp.Compare(a.from, b.from) })
	still := c.gated[:0]
	for _, ch := range c.gated {
		if !ch.gated || ch.n == 0 {
			continue // stale entry; the channel was un-gated or drained
		}
		if !c.gate.Accepts(ch.from, s.slot(ch.head).payload) {
			still = append(still, ch)
			continue
		}
		ch.gated = false
		if !ch.scheduled {
			ch.scheduled = true
			s.scheduleDelivery(ch, s.now)
		}
	}
	c.gated = still
}

// scheduleHead queues a delivery occurrence for the head of channel c, if
// any and not parked.
func (s *Sim) scheduleHead(c *channel) {
	if c.scheduled || c.gated || c.n == 0 || s.ctxs[c.to].crashed {
		return
	}
	at := s.slot(c.head).readyAt
	if at < 0 {
		return // parked forever
	}
	c.scheduled = true
	s.scheduleDelivery(c, max(at, s.now))
}

func (s *Sim) fireTimer(c *procCtx, o occurrence) {
	if c.gone() {
		return
	}
	t := &c.timers[o.ref()]
	if t.armed != o.seq {
		return // cancelled, replaced, or armed before a crash
	}
	t.armed = unarmed
	s.core.TimersFired.Inc()
	c.h.OnTimer(c, t.name)
	s.afterEvent(c)
}

// planCrash executes one crash window of a lifetime: take the process down
// and kill its timers, then run the shared crash step, which schedules the
// next window and the restart as occurrences. A process that already crashed
// terminally (CrashSelf) or is still down from an earlier window skips the
// whole window, restart included.
func (s *Sim) planCrash(c *procCtx, o occurrence) {
	if c.gone() {
		return
	}
	c.down = true
	for i := range c.timers {
		c.timers[i].armed = unarmed
	}
	s.core.Crash(o.ref(), o.time, s.now, c.h, c, func(at int64, restart bool) {
		kind := occPlanCrash
		if restart {
			kind = occRestart
		}
		s.push(occ(at, kind, c.p, o.ref()))
	}, s.record)
}

// restart brings a down process back.
func (s *Sim) restart(c *procCtx) {
	if c.crashed || !c.down {
		return
	}
	c.down = false
	s.core.Restart(c.p, s.now, c.h, c, s.record)
	s.afterEvent(c)
}

// rec is one recorded event (see the package comment). A Target that does
// not fit — no process id does that, a handler may still name one — is kept
// in Sim.wide, and target is its index there.
type rec struct {
	time               int64
	msg                model.MsgID
	proc, peer, target int32
	kindTag            uint32 // model.Kind in the low recKindBits, recWide, then the tag index
}

const (
	recKindBits = 3
	recWide     = 1 << recKindBits
	recTagShift = recKindBits + 1

	recPageBits = 10
	recPageLen  = 1 << recPageBits
)

// recPage is a page of the recording. Pages are handed from run to run
// through recPages and never zeroed: a run writes every record below nrec
// before materialize reads it, and reads none above.
type recPage [recPageLen]rec

var recPages = sync.Pool{New: func() any { return new(recPage) }}

// record appends e to the recording at the current time.
func (s *Sim) record(e model.Event) {
	i := s.nrec & (recPageLen - 1)
	if i == 0 {
		s.page = recPages.Get().(*recPage)
		s.pages = append(s.pages, s.page)
	}
	r := rec{
		time: s.now, msg: e.Msg, proc: int32(e.Proc), peer: int32(e.Peer), target: int32(e.Target),
		kindTag: uint32(e.Kind) | s.tagID(e.Tag)<<recTagShift,
	}
	if model.ProcID(r.target) != e.Target {
		r.target, r.kindTag = int32(len(s.wide)), r.kindTag|recWide
		s.wide = append(s.wide, e.Target)
	}
	s.page[i] = r
	s.nrec++
	if e.Kind == model.KindInternal && e.Tag == "suspect" {
		s.suspects++
	}
	if s.cfg.Spans != nil { // checked here too: it keeps the call off the per-event path
		s.core.Detection(s.now, s.curSpan, e)
	}
}

// tagID returns tag's index in the tag table, adding it if it is new. A run
// uses a handful of tags and finds one by scanning them (equal tags are
// nearly always the same constant, so a comparison is a pointer check); a
// run that outgrows the table's first array gets a map to look them up in.
func (s *Sim) tagID(tag string) uint32 {
	if s.tagIdx == nil {
		for id, t := range s.tags {
			if t == tag {
				return uint32(id)
			}
		}
	} else if id, ok := s.tagIdx[tag]; ok {
		return id
	}
	id := uint32(len(s.tags))
	if id >= 1<<(32-recTagShift) {
		panic("sim: more distinct tags than a record can index")
	}
	s.tags = append(s.tags, tag)
	if s.tagIdx == nil && len(s.tags) > len(s.tagBuf) {
		s.tagIdx = make(map[string]uint32, 2*len(s.tags))
		for id, t := range s.tags {
			s.tagIdx[t] = uint32(id)
		}
	} else if s.tagIdx != nil {
		s.tagIdx[tag] = id
	}
	return id
}

// materialize builds the history from the recording, once and at its exact
// length — in h's array when a released Result left one long enough — and
// hands the pages on to the next run.
func (s *Sim) materialize(h model.History) model.History {
	if h == nil || cap(h) < s.nrec {
		h = make(model.History, s.nrec)
	}
	h = h[:s.nrec]
	for pi, pg := range s.pages {
		out := h[pi<<recPageBits:]
		for i := range out[:min(len(out), recPageLen)] {
			r := &pg[i]
			target := model.ProcID(r.target)
			if r.kindTag&recWide != 0 {
				target = s.wide[r.target]
			}
			out[i] = model.Event{
				Seq: pi<<recPageBits + i, Proc: model.ProcID(r.proc), Kind: model.Kind(r.kindTag & (recWide - 1)),
				Peer: model.ProcID(r.peer), Target: target, Msg: r.msg,
				Tag: s.tags[r.kindTag>>recTagShift], Time: r.time,
			}
		}
		recPages.Put(pg)
	}
	s.pages, s.page = nil, nil
	return h
}

// procCtx is one process: its node.Context and everything the simulator
// keeps per process, the fields a delivery reads first and next to each other.
type procCtx struct {
	s *Sim
	p model.ProcID

	crashed bool // CrashSelf: terminal
	down    bool // plan-crashed, restart possibly pending (crash-recovery)
	h       node.Handler
	gate    node.Gate    // h, when it gates its receives; nil otherwise
	gated   []*channel   // the links whose head the gate refused
	open    []dueBatch   // open due batches, latest first
	openBuf [12]dueBatch // where open starts out: more due times than the default delay range spreads a receiver's mail over
	row     []*channel   // materialized outgoing links, ascending by receiver

	// timers is the process's timer table. An unarmed slot is taken over by
	// the next new name, so the table is as long as the most timers the
	// process had armed at once and the scan that finds a name stays short.
	timers   []timerSlot
	timerBuf [2]timerSlot // where timers starts out: most processes never arm a third
}

// timerSlot is one named timer: armed is the insertion sequence of the
// occurrence that fires it, unarmed when it has fired, was cancelled, or died
// in a plan crash.
type timerSlot struct {
	name  string
	armed int64
}

const unarmed int64 = -1

// gone reports that the process takes no step now: crashed, or down.
func (c *procCtx) gone() bool { return c.crashed || c.down }

// timer returns the index of the named timer's slot, or -1.
func (c *procCtx) timer(name string) int {
	for i := range c.timers {
		if c.timers[i].name == name {
			return i
		}
	}
	return -1
}

var _ node.Context = (*procCtx)(nil)

func (c *procCtx) Self() model.ProcID { return c.p }
func (c *procCtx) N() int             { return c.s.cfg.N }
func (c *procCtx) Now() int64         { return c.s.now }

func (c *procCtx) Send(to model.ProcID, p node.Payload) {
	s := c.s
	if c.gone() {
		return
	}
	if to == c.p {
		panic("sim: send to self not supported (count self-quorum locally)")
	}
	if to < 1 || int(to) > s.cfg.N {
		panic(fmt.Sprintf("sim: send to invalid process %d", to))
	}
	if s.nextMsg >= math.MaxUint32 {
		panic("sim: more messages than a message slot's id can number")
	}
	s.nextMsg++
	id := s.nextMsg
	s.record(model.Send(c.p, to, id, p.Tag, p.Subject))

	// The link materializes with the first copy, not before: a dropped send
	// creates no channel.
	var ch *channel
	var wasEmpty bool
	s.core.Route(s.now, s.curSpan, c.p, to, id, p, func(wire node.Payload, span int64, park, reorder bool, extra int64) {
		if ch == nil {
			ch = c.link(to)
			wasEmpty = ch.n == 0
		}
		var delay int64
		if s.cfg.Delay != nil {
			delay = s.cfg.Delay(c.p, to, p, s.now)
		} else {
			delay = s.cfg.MinDelay + s.rng.int63n(s.cfg.MaxDelay-s.cfg.MinDelay+1)
		}
		msg := pendingMsg{id: uint32(id), payload: wire, readyAt: -1}
		if delay >= 0 && !park {
			msg.readyAt = s.now + delay + extra
		}
		s.inflight++
		s.enqueue(ch, msg, span, reorder)
	})
	if wasEmpty {
		s.scheduleHead(ch)
	}
}

func (c *procCtx) SetTimer(name string, delay int64) {
	s := c.s
	if c.gone() {
		return
	}
	i := c.timer(name)
	if i < 0 { // a new name takes over an unarmed slot, or a new one
		i = slices.IndexFunc(c.timers, func(t timerSlot) bool { return t.armed == unarmed })
	}
	if i < 0 {
		i = len(c.timers)
		c.timers = append(c.timers, timerSlot{})
	}
	c.timers[i] = timerSlot{name: name, armed: s.seq} // the sequence number push gives the occurrence
	s.push(occ(s.now+delay, occTimer, c.p, i))
}

func (c *procCtx) CancelTimer(name string) {
	if i := c.timer(name); i >= 0 {
		c.timers[i].armed = unarmed
	}
}

func (c *procCtx) EmitFailed(j model.ProcID) {
	s := c.s
	if c.gone() {
		return
	}
	key := [2]model.ProcID{c.p, j}
	if s.failed[key] {
		return // failed_i(j) is single-shot
	}
	s.failed[key] = true
	s.record(model.Failed(c.p, j))
}

func (c *procCtx) CrashSelf() {
	s := c.s
	if c.gone() {
		return
	}
	s.record(model.Crash(c.p))
	c.crashed = true
	if l, ok := c.h.(node.CrashListener); ok {
		l.OnCrash(c)
	}
}

func (c *procCtx) EmitInternal(tag string, subject model.ProcID) {
	s := c.s
	if c.gone() {
		return
	}
	s.record(model.Internal(c.p, tag, subject))
}
