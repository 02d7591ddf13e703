// Package host is what the two hosts of a protocol stack — the deterministic
// simulator (internal/sim) and the live goroutine runtime (internal/runtime)
// — share: every rule both apply to a message or a process. A send's checks,
// id and fate (Route returns the fates of the copies to queue; a payload is
// written once, by the host, into the place it is delivered from), a receive,
// a loss at a down receiver, a crash, a restart, the id and size checks, the
// counters and what the interposers report are each one piece of code here,
// clock-free and lock-free: the tick is an argument, a host records a
// message's send and receive events itself and every other event goes to the
// recorder it passes in, and a host owns only when each step runs (clock,
// queues, wake-ups, locks).
package host

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// Counter names one of the instruments every host keeps: an index into its
// Counters and its Tally. A new counter is one constant, one name in
// counterNames and its increment.
type Counter int

// The host counters, in the order they are published and reported. Those from
// PlanCrashes on count process faults and are reported only for runs that have
// lifetimes, so fault-free snapshots never grow.
const (
	Sent Counter = iota
	Delivered
	Dropped
	Duplicated
	TimersFired
	PlanCrashes
	Restarts
	Recovered
	numCounters
)

// counterNames are the counters' metric names, after the host's prefix.
var counterNames = [numCounters]string{"sent_total", "delivered_total", "dropped_total",
	"duplicated_total", "timers_fired_total", "plan_crashes_total", "restarts_total", "recovered_total"}

// Counters are the instruments every host keeps. They are values: zero-cost
// without a registry, registered by pointer with one. They are atomic, so a
// registry or Snapshot reads them while the run goes on, and no step writes
// them: a step counts into its Tally with plain adds, and the host publishes
// its tallies — the simulator as its clock advances, a live worker after each
// step — so a reading is as fresh as the last tick or step finished.
type Counters [numCounters]obs.Counter

// Tally is what the steps of one writer — the simulator, a live worker — have
// counted since it last published: the Counters, as plain integers.
type Tally [numCounters]int64

// Publish adds t into the Counters and zeroes it. Sent goes first, so what one
// writer has published never shows more receives than sends.
func (c *Core) Publish(t *Tally) {
	for i, v := range t {
		if v != 0 {
			c.Counters[i].Add(v)
		}
	}
	*t = Tally{}
}

// Names holds a host's metric names in Counter order. A backend builds its
// table once, at package level, so no run pays for the concatenations.
type Names [numCounters]string

// MetricNames returns the counter names under prefix ("sim_", "net_").
func MetricNames(prefix string) *Names {
	var names Names
	for i, name := range counterNames {
		names[i] = prefix + name
	}
	return &names
}

// Core is what a host holds of the shared machinery. A backend fills the
// exported fields from its own Config, then calls Init.
type Core struct {
	Names     *Names
	Link      node.LinkFn
	Spans     *obs.SpanRecorder
	Lifetimes []recovery.Lifetime
	Recovery  recovery.Mode
	Store     recovery.Store
	// LastID is the last id Number handed out. It is a plain integer: a host
	// serializes its sends' numbering (the simulator runs on one goroutine, a
	// live host numbers under its recorder lock). A test presets it to send
	// near the last id.
	LastID model.MsgID
	Counters
	who string // the host's name, which prefixes its panics
	n   int    // the processes are 1..n
}

// each calls f with every counter this run reports, in Names order.
func (c *Core) each(f func(name string, ctr *obs.Counter)) {
	n := numCounters
	if len(c.Lifetimes) == 0 {
		n = PlanCrashes
	}
	for i := range n {
		f(c.Names[i], &c.Counters[i])
	}
}

// Init checks the process count n, before the host sizes anything by it, and
// the lifetimes against it and 0..MaxDelay (who, the host, prefixes every panic
// of the core), gives durable recovery its default store, and registers the
// counters in reg.
func (c *Core) Init(who string, n int, reg *obs.Registry) {
	if n <= 0 || n > model.MaxProcs {
		panic(who + ": Config.N must be in 1..model.MaxProcs")
	}
	c.who, c.n = who, n
	for i, l := range c.Lifetimes {
		if l.Proc < 1 || int(l.Proc) > n {
			panic(fmt.Sprintf("%s: lifetime %d names process %d of %d", who, i, l.Proc, n))
		}
		// A crash window's next start is a sum of these ticks: above MaxDelay
		// it can wrap negative, and a storm's skipped window is due again at
		// once, forever. A negative Crash makes a terminal crash (Restart 0)
		// restart Restart - Crash ticks later.
		if err := cmp.Or(CheckTick("Crash", l.Crash), CheckTick("Restart", l.Restart), CheckTick("Period", l.Period), CheckTick("Until", l.Until)); err != nil {
			panic(fmt.Sprintf("%s: lifetime %d: %v", who, i, err))
		}
	}
	if c.Recovery == recovery.Durable && c.Store == nil {
		c.Store = recovery.NewMemStore()
	}
	c.each(reg.RegisterCounter)
}

// CheckProc panics unless p, handed to the host's method call, is in 1..n.
func (c *Core) CheckProc(call string, p model.ProcID) {
	if p < 1 || int(p) > c.n {
		panic(fmt.Sprintf("%s: %s for invalid process %d (have 1..%d)", c.who, call, p, c.n))
	}
}

// CheckSend panics on a send to oneself or to no process. A live host calls it
// before it takes its recorder lock, so a recovered panic cannot leave that
// held.
func (c *Core) CheckSend(from, to model.ProcID) {
	switch {
	case to == from:
		panic(c.who + ": send to self not supported (count self-quorum locally)")
	case to < 1 || int(to) > c.n:
		panic(fmt.Sprintf("%s: send to invalid process %d", c.who, to))
	}
}

// MaxDelay is the longest delay in ticks a host accepts: a bound of the
// message delay distribution (sim.CheckDelayBounds) or a timer's delay
// (CheckTimer). The clock is a sum of delays, one an event at most: at the
// simulator's default MaxEvents (2²⁰) no run under this bound carries it past
// 2⁶⁰.
const MaxDelay = 1 << 40

// CheckTick refuses a tick of a fault plan or a lifetime, named name in the
// error, that is negative or above MaxDelay. Every such tick is a summand of
// some message's ready time or of a crash window's next start: above MaxDelay
// the sum can wrap past the last tick, and a held message would read as parked
// or a storm as always due. Plan validation and Init both check with it, so
// they cannot disagree about what a valid tick is.
func CheckTick(name string, v int64) error {
	switch {
	case v < 0:
		return fmt.Errorf("negative %s %d", name, v)
	case v > MaxDelay:
		return fmt.Errorf("%s %d exceeds %d ticks (2^40: the clock must not overflow)", name, v, int64(MaxDelay))
	}
	return nil
}

// CheckTimer panics on a timer delay above MaxDelay: its deadline would wrap
// past the last tick a clock holds and read as already due.
func (c *Core) CheckTimer(delay int64) {
	if delay > MaxDelay {
		panic(fmt.Sprintf("%s: SetTimer delay %d exceeds %d ticks (2^40: the clock must not overflow)", c.who, delay, int64(MaxDelay)))
	}
}

// Number counts a checked send into t and returns its id, the send's ordinal.
// A live host calls it under its recorder lock, so id order is history order
// and two senders racing for the last id a model.MsgID holds cannot both have
// it. Once that id is taken Number counts nothing and returns 0: the host lets
// go of its lock, then calls OutOfIDs.
func (c *Core) Number(t *Tally) model.MsgID {
	if c.LastID == math.MaxInt32 {
		return 0
	}
	c.LastID++
	t[Sent]++
	return c.LastID
}

// OutOfIDs panics for a send Number found no id for.
func (c *Core) OutOfIDs() {
	panic(c.who + ": more messages than a model.MsgID can number")
}

// Layers is what the interposers of a run report, summed over its processes.
type Layers struct {
	Reliable, Byz                bool // some handler carries the layer
	Retransmits, AckedDuplicates int
	ByzDetected, ByzMasked       int
}

// LayerStats reads the layers of handlers (nil entries are skipped). They are
// discovered structurally, so no host imports one: ReliableStats on the
// outermost handler, ByzStats anywhere down its Inner() chain.
func LayerStats(handlers []node.Handler) Layers {
	var l Layers
	for _, h := range handlers {
		if rs, ok := h.(interface{ ReliableStats() (int, int) }); ok {
			l.Reliable = true
			r, d := rs.ReliableStats()
			l.Retransmits += r
			l.AckedDuplicates += d
		}
		for h != nil {
			if bs, ok := h.(interface{ ByzStats() (int, int) }); ok {
				l.Byz = true
				d, m := bs.ByzStats()
				l.ByzDetected += d
				l.ByzMasked += m
				break
			}
			w, ok := h.(interface{ Inner() node.Handler })
			if !ok {
				break
			}
			h = w.Inner()
		}
	}
	return l
}

// Snapshot returns the name-sorted readings of the counters, of the layers
// that are present, and of extra (a backend's own instruments), in into's
// array when that is long enough.
func (c *Core) Snapshot(into obs.Metrics, l Layers, extra ...obs.Metric) obs.Metrics {
	ms := slices.Grow(into[:0], len(c.Names)+4+len(extra))
	counter := func(name string, v int64) {
		ms = append(ms, obs.Metric{Name: name, Kind: obs.KindCounter, Value: v})
	}
	c.each(func(name string, ctr *obs.Counter) { counter(name, ctr.Value()) })
	if l.Reliable {
		counter("reliable_acked_duplicates_total", int64(l.AckedDuplicates))
		counter("reliable_retransmits_total", int64(l.Retransmits))
	}
	if l.Byz {
		counter("byz_detected_total", int64(l.ByzDetected))
		counter("byz_masked_total", int64(l.ByzMasked))
	}
	ms = append(ms, extra...)
	slices.SortFunc(ms, func(a, b obs.Metric) int { return strings.Compare(a.Name, b.Name) })
	return ms
}

// Copy is the fate of one copy of a routed message the network delivers. It
// carries no payload: Wire is nil for the payload the sender passed in, and
// points at the one a Byzantine network substitutes (LinkDecision.Replace) or
// replays (LinkDecision.Replay) otherwise — which the link function allocates
// for its decision, so nothing is copied to say so.
type Copy struct {
	Wire          *node.Payload // what the channel carries; nil: the sent payload
	Span          int64         // its enqueue span; 0 when unsampled
	Extra         int64         // ticks the link adds to the host's base delay
	Park, Reorder bool          // it parks its channel; it overtakes the tail
}

// Route is a numbered send after the host has recorded its send event: it
// asks the link for the message's fate, counts a drop or duplicates into t,
// records the send → fate → drop or enqueue spans of a sampled message (cur is
// the span of the callback doing the send), and returns in into's array the
// copies the network delivers — Copies() of the (possibly replaced) wire
// payload, then the replay ghost.
// The host writes each copy's payload (p unless Wire says otherwise) into the
// place it is delivered from, in order, each after its base delay plus Extra,
// at the tail or under Reorder one before it. The decision stays a value: a
// pointer would make every send allocate. Live hosts hold no process lock here.
func (c *Core) Route(t *Tally, now, cur int64, from, to model.ProcID, id model.MsgID, p node.Payload, into []Copy) []Copy {
	into = into[:0]
	var dec node.LinkDecision
	if c.Link != nil {
		dec = c.Link(from, to, p, now)
	}
	var parent int64
	if c.Spans != nil && c.Spans.Sampled(id) {
		parent = c.Spans.Record(obs.Span{
			Parent: cur, Time: now, Kind: obs.SpanSend,
			Proc: from, Peer: to, Msg: id, Tag: p.Tag, Target: p.Subject,
		})
		if note := dec.Note(); note != "" {
			parent = c.Spans.Record(obs.Span{Parent: parent, Time: now, Kind: obs.SpanFate, Proc: from, Peer: to, Msg: id, Note: note})
		}
	}
	// follow records what ends the chain so far: the drop, or a copy's enqueue.
	follow := func(kind obs.SpanKind) int64 {
		if parent == 0 {
			return 0
		}
		return c.Spans.Record(obs.Span{Parent: parent, Time: now, Kind: kind, Proc: from, Peer: to, Msg: id})
	}
	if dec.Drop {
		t[Dropped]++
		follow(obs.SpanDrop)
		return into
	}
	t[Duplicated] += int64(dec.Duplicates)
	// A Byzantine network may substitute what the channel carries; the send
	// event still records the payload the sender actually passed in.
	var wire *node.Payload
	if dec.Replace != nil {
		wire = &dec.Replace.Payload
	}
	// Each copy is written field by field where it lands: built whole and
	// then appended, it is stored in 8-byte pieces and read back in 16-byte
	// ones, which the store buffer cannot forward.
	queue := func(wire *node.Payload, extra int64) {
		into = append(into, Copy{})
		cp := &into[len(into)-1]
		cp.Wire, cp.Span, cp.Extra, cp.Park, cp.Reorder = wire, follow(obs.SpanEnqueue), extra, dec.Park, dec.Reorder
	}
	for n := dec.Copies(); n > 0; n-- {
		queue(wire, dec.ExtraDelay)
	}
	if dec.Replay != nil {
		// A ghost of an earlier wire payload, further delayed so it lands stale.
		queue(&dec.Replay.Payload, dec.ExtraDelay+dec.Replay.Delay)
	}
	return into
}

// Receive takes message id, p, enqueued under span, from the head of channel
// from → to at tick now, after the host has recorded its receive event (at
// that tick): it records the deliver span and counts the receive into t. It
// returns the span that frames OnMessage, 0 for an unsampled message.
func (c *Core) Receive(t *Tally, now int64, from, to model.ProcID, id model.MsgID, p *node.Payload, span int64) int64 {
	t[Delivered]++
	if span == 0 {
		return 0
	}
	return c.Spans.Record(obs.Span{Parent: span, Time: now, Kind: obs.SpanDeliver, Proc: to, Peer: from, Msg: id, Tag: p.Tag})
}

// Lose drops message id, enqueued under span, at the head of channel from →
// to at a down receiver, the way a datagram to a dead socket is lost.
func (c *Core) Lose(now int64, from, to model.ProcID, id model.MsgID, span int64) {
	if span != 0 {
		c.Spans.Record(obs.Span{Parent: span, Time: now, Kind: obs.SpanDrop, Proc: to, Peer: from, Msg: id, Note: "receiver down"})
	}
}

// Crash executes the crash window of lifetime i due at tick at, at tick now,
// on a process the host has already taken down (ctx is dead, its timers
// stale). It asks schedule for the next window of a periodic lifetime (as
// Skip does), saves the durable snapshot before OnCrash can perturb it, asks
// for the restart (downtime counts from now, so a late crash keeps its full
// window), then counts the crash into t and takes the CrashSelf step. The next
// window comes before the restart: on the simulator that order is the event
// queue's tie-break.
func (c *Core) Crash(t *Tally, i int, at, now int64, h node.Handler, ctx node.Context,
	schedule func(at int64, restart bool), record func(model.Event)) {
	c.Skip(i, at, schedule)
	l := c.Lifetimes[i]
	if r, ok := h.(node.Restarter); ok && c.Recovery == recovery.Durable {
		c.Store.Save(l.Proc, r.Snapshot())
	}
	if downFor := l.Restart - l.Crash; c.Recovery != recovery.Off && downFor > 0 {
		schedule(now+downFor, true)
	}
	t[PlanCrashes]++
	c.CrashSelf(l.Proc, h, ctx, record)
}

// CrashSelf records the crash of p, which the host has taken down, and
// announces it to a node.CrashListener: all of a crash_self, and a plan
// crash's last step.
func (c *Core) CrashSelf(p model.ProcID, h node.Handler, ctx node.Context, record func(model.Event)) {
	record(model.Crash(p))
	node.Crashed(h, ctx)
}

// Skip passes over the crash window of lifetime i due at tick at when it
// finds its process still down from an earlier window, which only a host
// stalled past a whole uptime sees: a late crash restarts after its
// successor is due. The window is lost, the lifetime is not — Skip asks
// schedule for the next window of a periodic lifetime, as if this one had
// run, and nothing is counted or recorded.
func (c *Core) Skip(i int, at int64, schedule func(at int64, restart bool)) {
	if l := c.Lifetimes[i]; l.Period > 0 && c.Recovery != recovery.Off {
		if next := at + l.Period; l.Until == 0 || next <= l.Until {
			schedule(next, false)
		}
	}
}

// Restart brings p back once the host has marked it up: it records the
// restart and counts it into t, then hands the handler its crash-time
// snapshot (node.Restarter; nil state unless recovery is durable) or
// re-initializes a handler with no restart support.
func (c *Core) Restart(t *Tally, p model.ProcID, now int64, h node.Handler, ctx node.Context, record func(model.Event)) {
	var st []byte
	if c.Recovery == recovery.Durable {
		st, _ = c.Store.Load(p)
	}
	record(model.Restart(p))
	t[Restarts]++
	if len(st) > 0 {
		t[Recovered]++
	}
	// Like detection spans, restart spans are never sampled out: they are
	// rare, and exactly what recovery experiments grep for.
	if c.Spans != nil {
		note := "recovery=" + c.Recovery.String()
		if c.Recovery == recovery.Durable {
			note = fmt.Sprintf("%s snapshot=%dB", note, len(st))
		}
		c.Spans.Record(obs.Span{Time: now, Kind: obs.SpanRestart, Proc: p, Note: note})
	}
	node.Restart(h, ctx, st)
}

// Detection records the span of a just-recorded suspicion or failed_i(j) under
// cur, the span of the callback that executed it. These are never sampled
// out: they are the events the paper's properties are about.
func (c *Core) Detection(now, cur int64, e model.Event) {
	switch {
	case c.Spans == nil:
	case e.Kind == model.KindInternal && e.Tag == model.TagSuspect:
		c.Spans.Record(obs.Span{Parent: cur, Time: now, Kind: obs.SpanSuspect, Proc: e.Proc, Target: e.Target, Tag: e.Tag})
	case e.Kind == model.KindFailed:
		c.Spans.Record(obs.Span{Parent: cur, Time: now, Kind: obs.SpanCrashConfirm, Proc: e.Proc, Target: e.Target})
	}
}
