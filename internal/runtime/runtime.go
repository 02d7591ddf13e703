// Package runtime is the live counterpart of internal/sim: the same
// node.Handler/node.Context contract, executed by real goroutines over
// mutex-guarded FIFO queues with randomized real-time delays, instead of a
// deterministic virtual-time scheduler. What a send, a receive, a loss, a
// crash and a restart record and count is internal/host's, as there.
//
// It exists to show that the protocol stack is a real implementation, not a
// simulator artifact: the §5 detector, fd layer, and applications run here
// unchanged. Runs are nondeterministic, so tests against the runtime assert
// only schedule-independent properties (the sFS conditions hold on the
// recorded history of every schedule).
//
// Concurrency design: one worker goroutine per process takes that process's
// steps serially, so handler callbacks are never concurrent for the same
// process. Senders enqueue onto per-sender FIFO queues with a delivery-ready
// time and wake the worker; so do Do and Stop. Everything else that comes due
// for a process — its named timers, its lifetime's crash windows and its
// restarts — waits in one queue of deadlines, ordered by (deadline,
// insertion) as the simulator orders occurrences. Only the worker touches
// that queue (SetTimer, CancelTimer, plan crashes and restarts all run on
// it), so it needs no lock. A step is the oldest injection, else a due
// deadline, else the ready channel head of the lowest sender the gate
// accepts. With no step to take, the worker sleeps on one time.Timer until
// the earlier of the queue's head and the ready time of a channel head that
// is neither parked nor gated (a gate's answer changes only in the process's
// own callbacks), or until a send, an injection or Stop wakes it. A global
// recorder assigns history order by lock acquisition, which is consistent
// with every per-process and per-channel order — recorded histories are
// valid model histories.
package runtime

//sfs:allow detwallclock live backend: real time is this package's whole point — ticks, delays, and timers are wall-clock by design

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// Config parameterizes a live network.
type Config struct {
	// N is the number of processes. Required.
	N int
	// Seed seeds the delay generator.
	Seed int64
	// MinDelay and MaxDelay bound the uniform per-message delivery delay.
	// Defaults: 100µs and 2ms.
	MinDelay, MaxDelay time.Duration
	// Tick is the duration of one virtual tick for node.Context.Now and
	// SetTimer. Default: 1ms.
	Tick time.Duration
	// Link, when non-nil, is consulted once per send and may drop, park,
	// delay, duplicate, or reorder the message (see node.LinkDecision) —
	// the same transport hook the deterministic simulator honors, so one
	// fault plan drives both backends with identical semantics. Decision
	// times are in ticks; ExtraDelay is converted via Tick.
	Link node.LinkFn
	// Metrics, when non-nil, exposes the runtime's counters through a
	// shared registry — the backing store of the /metrics endpoint. The
	// same readings are available from Net.Metrics either way.
	Metrics *obs.Registry
	// Spans, when non-nil, records message-lifecycle spans with the same
	// kinds and sampling rule as the simulator, so span sequences are
	// comparable across backends.
	Spans *obs.SpanRecorder
	// Lifetimes schedules plan-driven process crashes and restarts with
	// the same semantics as the simulator's Config.Lifetimes; times are in
	// ticks. A down process loses every message that arrives during its
	// downtime and its timers die with it. Unbounded lifetimes are fine
	// here: live runs are bounded by Stop, not by a virtual horizon.
	Lifetimes []recovery.Lifetime
	// Recovery selects what a restarted process remembers: Off disables
	// restarts entirely (every lifetime is terminal at its first crash),
	// Amnesia restarts handlers blank, Durable restores the crash-time
	// snapshot through Store.
	Recovery recovery.Mode
	// Store persists crash-time snapshots under Durable recovery. Nil
	// defaults to a fresh in-memory store; pass a recovery.FileStore to
	// survive whole-process restarts of the host program.
	Store recovery.Store
}

// Net is a live network of processes. Attach handlers, Start, then Stop.
type Net struct {
	cfg      Config
	start    time.Time
	handlers []node.Handler
	procs    []*proc

	recMu   sync.Mutex
	history model.History

	// core is what this host shares with the simulator: the rules of a
	// message's and a process's life, the host counters and their snapshot.
	// Each worker counts into a tally of its own and publishes it into the
	// atomic counters after every step, so they are read live (Metrics, the
	// /metrics endpoint) without touching the recorder lock. Message ids are
	// numbered under recMu.
	core host.Core

	rngMu sync.Mutex
	rng   *rand.Rand

	stopCh  chan struct{}
	started bool
	stopped bool
	mu      sync.Mutex
}

// New creates a live network.
func New(cfg Config) *Net {
	n := &Net{core: host.Core{
		Names: metricNames, Link: cfg.Link, Spans: cfg.Spans,
		Lifetimes: cfg.Lifetimes, Recovery: cfg.Recovery, Store: cfg.Store,
	}}
	n.core.Init("runtime", cfg.N, cfg.Metrics) // first: it checks N
	if cfg.MinDelay == 0 && cfg.MaxDelay == 0 {
		cfg.MinDelay, cfg.MaxDelay = 100*time.Microsecond, 2*time.Millisecond
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Millisecond
	}
	n.cfg, n.handlers, n.procs = cfg, make([]node.Handler, cfg.N+1), make([]*proc, cfg.N+1)
	n.rng, n.stopCh = rand.New(rand.NewSource(cfg.Seed)), make(chan struct{})
	for p := 1; p <= cfg.N; p++ {
		n.procs[p] = &proc{
			net:    n,
			self:   model.ProcID(p),
			wakeCh: make(chan struct{}, 1),
			done:   make(chan struct{}),
			copies: make([]host.Copy, 0, 2),
		}
	}
	return n
}

// metricNames are the host counters' names on this backend.
var metricNames = host.MetricNames("net_")

// SetHandler attaches the handler for process p (1..N); any other p panics.
// Must be called before Start.
func (n *Net) SetHandler(p model.ProcID, h node.Handler) {
	n.core.CheckProc("SetHandler", p)
	n.handlers[p] = h
}

// Start initializes every handler, queues each lifetime's first crash window
// and launches the worker goroutines.
func (n *Net) Start() {
	for p := 1; p <= n.cfg.N; p++ {
		if n.handlers[p] == nil {
			panic(fmt.Sprintf("runtime: no handler for process %d", p))
		}
	}
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		panic("runtime: Start called twice")
	}
	n.started = true // from here on Stop waits for the workers
	n.start = time.Now()
	n.mu.Unlock()
	for _, p := range n.procs[1:] {
		p.h = n.handlers[p.self]
		p.gate, _ = p.h.(node.Gate)
		p.h.Init(p)
		n.core.Publish(&p.tally)
	}
	for i, l := range n.cfg.Lifetimes {
		n.procs[l.Proc].push(deadline{at: n.at(l.Crash), kind: windowDeadline, life: i, tick: l.Crash})
	}
	for _, p := range n.procs[1:] {
		go p.loop()
	}
}

// Stop terminates the workers and waits for them to exit. Idempotent.
func (n *Net) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	started := n.started
	n.mu.Unlock()
	close(n.stopCh)
	for p := 1; p <= n.cfg.N; p++ {
		n.procs[p].wake()
	}
	for p := 1; started && p <= n.cfg.N; p++ {
		<-n.procs[p].done
	}
}

// History returns a snapshot of the recorded history.
func (n *Net) History() model.History {
	n.recMu.Lock()
	defer n.recMu.Unlock()
	return n.history.Clone().Normalize()
}

// Do runs fn in the context of process p (serialized with its deliveries),
// e.g. to inject a suspicion: net.Do(2, func(ctx){ det.Suspect(ctx, 1) }).
// It is a no-op if p has crashed; a p that is not one of 1..N panics.
func (n *Net) Do(p model.ProcID, fn func(node.Context)) {
	n.core.CheckProc("Do", p)
	n.procs[p].inject(fn)
}

// elapsed is the net's clock: the time since Start.
func (n *Net) elapsed() time.Duration { return time.Since(n.start) }

// at is the time since Start at which tick begins.
func (n *Net) at(tick int64) time.Duration { return n.after(0, tick) }

// after is the time ticks ticks after since (≥ 0), saturating at either end of
// time.Duration: under any Tick, no tick count wraps to a deadline on the
// wrong side of now.
func (n *Net) after(since time.Duration, ticks int64) time.Duration {
	switch tick := int64(n.cfg.Tick); {
	case ticks > (math.MaxInt64-int64(since))/tick:
		return math.MaxInt64
	case ticks < math.MinInt64/tick:
		return math.MinInt64
	}
	return since + time.Duration(ticks)*n.cfg.Tick
}

func (n *Net) nowTicks() int64 {
	return int64(n.elapsed() / n.cfg.Tick)
}

// record appends e to the history at the current tick, read under the
// recorder lock, and returns that tick.
func (n *Net) record(e model.Event) int64 {
	n.recMu.Lock()
	e.Time = n.nowTicks()
	e.Seq = int32(len(n.history))
	n.history = append(n.history, e)
	n.recMu.Unlock()
	return e.Time
}

// recordEvent is record for the core's process steps, which take a recorder.
func (n *Net) recordEvent(e model.Event) { n.record(e) }

func (n *Net) delay() time.Duration {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	span := int64(n.cfg.MaxDelay - n.cfg.MinDelay)
	if span <= 0 {
		return n.cfg.MinDelay
	}
	return n.cfg.MinDelay + time.Duration(n.rng.Int63n(span+1))
}

// Metrics returns a name-sorted live snapshot of the runtime's counters,
// including the interposer layers' when any handler carries them. Safe to
// call while the network runs.
func (n *Net) Metrics() obs.Metrics {
	return n.core.Snapshot(nil, host.LayerStats(n.handlers))
}

// liveMsg is a queued message on a live channel.
type liveMsg struct {
	id      model.MsgID
	payload node.Payload
	readyAt time.Duration // since Start
	parked  bool          // held forever; blocks the channel behind it
	span    int64         // enqueue span id; 0 when the message is unsampled
}

// deadline is one entry of a process's deadline queue: a named timer, or a
// crash window or restart of the lifetime at index life of Config.Lifetimes.
type deadline struct {
	at   time.Duration // since Start
	kind deadlineKind
	name string // a timer's
	life int    // a window's or a restart's lifetime
	tick int64  // a window's due tick, on the plan's absolute cadence
}

type deadlineKind uint8

const (
	timerDeadline deadlineKind = iota
	windowDeadline
	restartDeadline
)

// never is the wake time of a worker that only a send, an injection or Stop
// can give a step.
const never = time.Duration(math.MaxInt64)

// proc is one process: its node.Context and the worker state behind it.
type proc struct {
	net  *Net
	self model.ProcID
	h    node.Handler
	gate node.Gate // h, when it gates its receives; nil otherwise

	// mu guards what senders, Do and Stop share with the worker. The worker
	// is the only writer of crashed and down, so it reads them unlocked.
	mu      sync.Mutex
	queues  [][]liveMsg // per-sender FIFO, indexed by sender id; made by the first send
	injects []func(node.Context)
	crashed bool // CrashSelf: terminal
	down    bool // plan-crashed, restart possibly pending (crash-recovery)
	wakeCh  chan struct{}
	done    chan struct{} // closed when the worker has returned

	// The rest is the worker's alone (callbacks are serialized per process,
	// and Init runs before the worker starts), so it needs no lock.
	due     []deadline     // ascending by (at, insertion)
	emitted []model.ProcID // the targets j of failed_self(j) already recorded
	// curSpan frames the handler callback currently running.
	curSpan int64
	copies  []host.Copy // the buffer Route returns this process's sends' copies in
	tally   host.Tally  // what this process's steps counted since the last publish
}

var _ node.Context = (*proc)(nil)

// gone reports that the process takes no step now: crashed, or down.
func (p *proc) gone() bool { return p.crashed || p.down }

func (p *proc) wake() {
	select {
	case p.wakeCh <- struct{}{}:
	default:
	}
}

// inject schedules fn for serialized execution on p's worker. Injections
// to crashed or down processes are dropped: there is nobody home.
func (p *proc) inject(fn func(node.Context)) {
	p.mu.Lock()
	if p.crashed || p.down {
		p.mu.Unlock()
		return
	}
	p.injects = append(p.injects, fn)
	p.mu.Unlock()
	p.wake()
}

// push queues d behind every deadline due no later than it.
func (p *proc) push(d deadline) {
	i := slices.IndexFunc(p.due, func(e deadline) bool { return e.at > d.at })
	if i < 0 {
		i = len(p.due)
	}
	p.due = slices.Insert(p.due, i, d)
}

// loop is the worker: take steps until the network stops or the process
// crashes terminally (a plan-crashed process keeps waiting, for its restart).
func (p *proc) loop() {
	defer close(p.done)
	sleep := time.NewTimer(never)
	defer sleep.Stop()
	for !p.crashed {
		select {
		case <-p.net.stopCh:
			return
		default:
		}
		next, did := p.step()
		p.net.core.Publish(&p.tally)
		if did {
			continue
		}
		if next != never {
			sleep.Reset(next - p.net.elapsed())
		}
		select {
		case <-p.net.stopCh:
			return
		case <-p.wakeCh:
		case <-sleep.C:
		}
		sleep.Stop() // a tick it sent already wakes the worker once more, for nothing
	}
}

// step takes at most one step and reports whether it did; when it did not,
// next is when the earliest deadline or channel head it holds comes due.
func (p *proc) step() (next time.Duration, did bool) {
	now := p.net.elapsed()
	next = never
	if len(p.due) > 0 {
		next = p.due[0].at
	}
	expired := next <= now
	p.mu.Lock()
	switch {
	case p.down:
		// Arrival at a down process is loss, the simulator's rule too: every
		// head that arrived by now, or by a due restart, is discarded.
		next = min(next, p.discard(min(now, next)))
	case len(p.injects) > 0:
		fn := p.injects[0]
		p.injects = p.injects[1:]
		p.mu.Unlock()
		fn(p)
		return next, true
	case !expired:
		for from, q := range p.queues {
			switch {
			case len(q) == 0 || q[0].parked:
			case q[0].readyAt > now:
				next = min(next, q[0].readyAt)
			case p.gate == nil || p.gate.Accepts(model.ProcID(from), q[0].payload):
				p.queues[from] = q[1:]
				p.mu.Unlock()
				p.deliver(model.ProcID(from), q[0])
				return next, true
			}
		}
	}
	p.mu.Unlock()
	if expired {
		p.fire()
	}
	return next, expired
}

// discard drops every channel head that arrived by cut and returns when the
// next one arrives. Callers hold p.mu.
func (p *proc) discard(cut time.Duration) time.Duration {
	next := never
	for from, q := range p.queues {
		for len(q) > 0 && !q[0].parked && q[0].readyAt <= cut {
			p.net.core.Lose(p.net.nowTicks(), model.ProcID(from), p.self, q[0].id, q[0].span)
			q = q[1:]
		}
		p.queues[from] = q
		if len(q) > 0 && !q[0].parked {
			next = min(next, q[0].readyAt)
		}
	}
	return next
}

// deliver hands p's handler the message m from. One reading of the clock:
// the deliver span shows the tick the receive event does.
func (p *proc) deliver(from model.ProcID, m liveMsg) {
	now := p.net.record(model.Recv(p.self, from, m.id, m.payload.Tag, m.payload.Subject))
	p.curSpan = p.net.core.Receive(&p.tally, now, from, p.self, m.id, &m.payload, m.span)
	p.h.OnMessage(p, from, m.payload)
	p.curSpan = 0
}

// fire takes the head off the deadline queue and runs it: a timer, a crash
// window or a restart.
func (p *proc) fire() {
	n := p.net
	d := p.due[0]
	p.due = p.due[1:]
	schedule := func(tick int64, restart bool) {
		next := deadline{at: n.at(tick), kind: windowDeadline, life: d.life, tick: tick}
		if restart {
			next.kind = restartDeadline
		}
		p.push(next)
	}
	switch {
	case d.kind == timerDeadline:
		p.tally[host.TimersFired]++
		p.h.OnTimer(p, d.name)
	case d.kind == restartDeadline:
		p.setDown(false)
		n.core.Restart(&p.tally, p.self, n.nowTicks(), p.h, p, n.recordEvent)
	case p.down:
		n.core.Skip(d.life, d.tick, schedule)
	default:
		// A crash window runs on the worker, so the crash serializes with the
		// handler's callbacks (a durable snapshot must not race a half-applied
		// message). The process's timers die with it.
		p.setDown(true)
		p.due = slices.DeleteFunc(p.due, func(d deadline) bool { return d.kind == timerDeadline })
		n.core.Crash(&p.tally, d.life, d.tick, n.nowTicks(), p.h, p, schedule, n.recordEvent)
	}
}

// setDown takes p down, dropping its pending injections, or brings it back.
func (p *proc) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.injects = nil
	p.mu.Unlock()
}

func (p *proc) Self() model.ProcID { return p.self }
func (p *proc) N() int             { return p.net.cfg.N }
func (p *proc) Now() int64         { return p.net.nowTicks() }

func (p *proc) Send(to model.ProcID, pl node.Payload) {
	net := p.net
	if p.gone() {
		return
	}
	net.core.CheckSend(p.self, to) // panics here, never under the lock
	net.recMu.Lock()
	id := net.core.Number(&p.tally)
	if id == 0 {
		net.recMu.Unlock()
		net.core.OutOfIDs() // after unlocking, so the run goes on
	}
	e := model.Send(p.self, to, id, pl.Tag, pl.Subject)
	// One reading of the clock: Route judges the send at the tick its event shows.
	e.Time = net.nowTicks()
	e.Seq = int32(len(net.history))
	net.history = append(net.history, e)
	net.recMu.Unlock()

	// Route asks the link function, which takes the fault plane's lock: the
	// destination's is taken after it, and only for a copy to queue.
	p.copies = net.core.Route(&p.tally, e.Time, p.curSpan, p.self, to, id, pl, p.copies)
	if len(p.copies) == 0 {
		return // dropped
	}
	dst := net.procs[to]
	dst.mu.Lock()
	if dst.crashed {
		dst.mu.Unlock()
		return // sent, counted and traced like any other, but nobody is left to queue it for
	}
	if dst.queues == nil {
		dst.queues = make([][]liveMsg, net.cfg.N+1)
	}
	q := dst.queues[p.self]
	for _, c := range p.copies {
		wire := pl
		if c.Wire != nil {
			wire = *c.Wire
		}
		msg := liveMsg{id: id, payload: wire, readyAt: net.after(net.elapsed()+net.delay(), c.Extra), parked: c.Park, span: c.Span}
		if c.Reorder && len(q) > 1 {
			// Overtake the current tail: a pairwise FIFO violation.
			tail := len(q) - 1
			q = append(q, q[tail])
			q[tail] = msg
		} else {
			q = append(q, msg)
		}
	}
	dst.queues[p.self] = q
	dst.mu.Unlock()
	dst.wake()
}

func (p *proc) SetTimer(name string, delayTicks int64) {
	if p.gone() {
		return
	}
	p.net.core.CheckTimer(delayTicks)
	p.CancelTimer(name)
	p.push(deadline{at: p.net.after(p.net.elapsed(), delayTicks), kind: timerDeadline, name: name})
}

func (p *proc) CancelTimer(name string) {
	p.due = slices.DeleteFunc(p.due, func(d deadline) bool { return d.kind == timerDeadline && d.name == name })
}

func (p *proc) EmitFailed(j model.ProcID) {
	if p.gone() || slices.Contains(p.emitted, j) {
		return
	}
	p.emitted = append(p.emitted, j)
	p.emit(model.Failed(p.self, j))
}

func (p *proc) CrashSelf() {
	if p.gone() {
		return
	}
	p.mu.Lock()
	p.crashed = true
	// Nothing reads a terminally crashed process's queued work again.
	p.queues, p.injects = nil, nil
	p.mu.Unlock()
	p.due = nil
	p.net.core.CrashSelf(p.self, p.h, p, p.net.recordEvent)
}

func (p *proc) EmitInternal(tag string, subject model.ProcID) {
	if p.gone() {
		return
	}
	p.emit(model.Internal(p.self, tag, subject))
}

// emit records e and, for a suspicion or a detection, its span, at the tick
// the event shows.
func (p *proc) emit(e model.Event) {
	p.net.core.Detection(p.net.record(e), p.curSpan, e)
}
