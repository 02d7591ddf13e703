// Package runtime is the live counterpart of internal/sim: the same
// node.Handler/node.Context contract, executed by real goroutines over
// mutex-guarded FIFO queues with randomized real-time delays, instead of a
// deterministic virtual-time scheduler.
//
// It exists to show that the protocol stack is a real implementation, not a
// simulator artifact: the §5 detector, fd layer, and applications run here
// unchanged. Runs are nondeterministic, so tests against the runtime assert
// only schedule-independent properties (the sFS conditions hold on the
// recorded history of every schedule).
//
// Concurrency design: one worker goroutine per process delivers messages
// and timers serially, so handler callbacks are never concurrent for the
// same process. Senders enqueue onto per-channel FIFO queues with a
// delivery-ready timestamp; the worker picks the earliest ready channel
// head its gate accepts. A global recorder assigns history order by lock
// acquisition, which is consistent with every per-process and per-channel
// order — recorded histories are valid model histories.
package runtime

//sfs:allow detwallclock live backend: real time is this package's whole point — ticks, delays, and timers are wall-clock by design

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
	nextMsg model.MsgID

	// core is what this host shares with the simulator: fate application,
	// process lifetimes, the host counters and their snapshot. The counters
	// are atomic, so they are read live (Stats, Metrics, the /metrics
	// endpoint) without touching the recorder lock.
	core host.Core

	rngMu sync.Mutex
	rng   *rand.Rand

	stopCh      chan struct{}
	started     bool
	stopped     bool
	faultTimers []*time.Timer // pending lifetime crash/restart timers; a fired one removes itself
	mu          sync.Mutex
}

// New creates a live network.
func New(cfg Config) *Net {
	if cfg.N <= 0 {
		panic("runtime: Config.N must be positive")
	}
	if cfg.MinDelay == 0 && cfg.MaxDelay == 0 {
		cfg.MinDelay, cfg.MaxDelay = 100*time.Microsecond, 2*time.Millisecond
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Millisecond
	}
	n := &Net{
		cfg: cfg,
		core: host.Core{
			Names: metricNames, Link: cfg.Link, Spans: cfg.Spans,
			Lifetimes: cfg.Lifetimes, Recovery: cfg.Recovery, Store: cfg.Store,
		},
		handlers: make([]node.Handler, cfg.N+1),
		procs:    make([]*proc, cfg.N+1),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stopCh:   make(chan struct{}),
	}
	for p := 1; p <= cfg.N; p++ {
		n.procs[p] = newProc(n, model.ProcID(p))
	}
	n.core.Init("runtime", cfg.N, cfg.Metrics)
	return n
}

// metricNames are the host counters' names on this backend.
var metricNames = host.MetricNames("net_")

// SetHandler attaches the handler for process p (1..N); any other p panics.
// Must be called before Start.
func (n *Net) SetHandler(p model.ProcID, h node.Handler) {
	n.checkProc("SetHandler", p)
	n.handlers[p] = h
}

// checkProc panics unless p is one of the processes 1..N.
func (n *Net) checkProc(call string, p model.ProcID) {
	if p < 1 || int(p) > n.cfg.N {
		panic(fmt.Sprintf("runtime: %s for invalid process %d (have 1..%d)", call, p, n.cfg.N))
	}
}

// Start initializes every handler and launches the worker goroutines.
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
	for p := 1; p <= n.cfg.N; p++ {
		n.procs[p].ctxDo(func(ctx node.Context) { n.handlers[p].Init(ctx) })
	}
	for p := 1; p <= n.cfg.N; p++ {
		go n.procs[p].loop()
	}
	for i := range n.cfg.Lifetimes {
		idx, l := i, n.cfg.Lifetimes[i]
		n.afterTicks(l.Crash, func() { n.planCrash(idx, l.Crash) })
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
	timers := n.faultTimers
	n.faultTimers = nil
	n.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
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
	n.checkProc("Do", p)
	n.procs[p].inject(fn)
}

func (n *Net) nowTicks() int64 {
	return int64(time.Since(n.start) / n.cfg.Tick)
}

func (n *Net) record(e model.Event) {
	n.recMu.Lock()
	e.Time = n.nowTicks()
	e.Seq = len(n.history)
	n.history = append(n.history, e)
	n.recMu.Unlock()
}

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

// afterTicks schedules fn after d ticks, retaining the timer until it fires
// so Stop can cancel the fault plan's outstanding work: a lifetime has at
// most two pending, its next crash and its restart, however long it recurs.
// No-op once the net stopped.
func (n *Net) afterTicks(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(time.Duration(d)*n.cfg.Tick, func() {
		n.mu.Lock() // not before afterTicks has stored t
		n.faultTimers = slices.DeleteFunc(n.faultTimers, func(x *time.Timer) bool { return x == t })
		n.mu.Unlock()
		fn()
	})
	n.faultTimers = append(n.faultTimers, t)
}

// planCrash routes the crash window of lifetime idx due at tick at through
// the victim's injection queue, so the crash serializes with its handler
// callbacks (a durable snapshot must not race a half-applied message). The
// inject is silently dropped if the process crashed terminally first — which
// also stops the periodic chain, matching the simulator.
func (n *Net) planCrash(idx int, at int64) {
	p := n.procs[n.cfg.Lifetimes[idx].Proc]
	p.inject(func(ctx node.Context) {
		p.mu.Lock()
		p.down = true
		p.revive = false
		p.injects = nil
		p.dueTimer = nil
		p.stopTimers()
		p.mu.Unlock()
		n.core.Crash(idx, at, n.nowTicks(), n.handlers[p.self], ctx, func(when int64, restart bool) {
			due := func() { n.planCrash(idx, when) } // the next window, on the plan's absolute cadence
			if restart {
				due = p.restartDue
			}
			n.afterTicks(when-n.nowTicks(), due)
		}, n.record)
	})
}

// liveMsg is a queued message on a live channel.
type liveMsg struct {
	id      model.MsgID
	payload node.Payload
	readyAt time.Time
	parked  bool  // held forever; blocks the channel behind it
	span    int64 // enqueue span id; 0 when the message is unsampled
}

// proc is the per-process worker state.
type proc struct {
	net  *Net
	self model.ProcID

	mu       sync.Mutex
	queues   map[model.ProcID][]liveMsg // per-sender FIFO
	injects  []func(node.Context)
	timers   map[string]*liveTimer
	dueTimer []string              // timer names that have fired, in order
	emitted  map[model.ProcID]bool // failed_self(j) already recorded
	crashed  bool
	down     bool // plan-crashed, restart possibly pending (crash-recovery)
	revive   bool // restart timer elapsed; worker finishes the restart
	wakeCh   chan struct{}
	done     chan struct{} // closed when the worker has returned

	// curSpan frames the handler callback currently running on this
	// process's worker. Only the worker goroutine touches it (callbacks are
	// serialized per process), so it needs no lock.
	curSpan int64
}

type liveTimer struct {
	gen   int64
	timer *time.Timer
}

func newProc(n *Net, self model.ProcID) *proc {
	return &proc{
		net:     n,
		self:    self,
		queues:  make(map[model.ProcID][]liveMsg),
		timers:  make(map[string]*liveTimer),
		emitted: make(map[model.ProcID]bool),
		wakeCh:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// stopTimers makes every outstanding timer of p stale. Callers hold p.mu.
func (p *proc) stopTimers() {
	for _, lt := range p.timers {
		lt.gen++
		if lt.timer != nil {
			lt.timer.Stop()
		}
	}
}

func (p *proc) wake() {
	select {
	case p.wakeCh <- struct{}{}:
	default:
	}
}

// restartDue tells p's worker, if p is still down, to finish the restart.
func (p *proc) restartDue() {
	p.mu.Lock()
	if p.down {
		p.revive = true
	}
	p.mu.Unlock()
	p.wake()
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

// ctxDo runs fn synchronously in p's context (used for Init before the
// workers start).
func (p *proc) ctxDo(fn func(node.Context)) {
	fn(&liveCtx{p: p})
}

// loop is the worker: deliver injections, due timers, and ready channel
// heads until the network stops or the process crashes terminally (a
// plan-crashed process keeps waiting, for its revive).
func (p *proc) loop() {
	defer close(p.done)
	for {
		select {
		case <-p.net.stopCh:
			return
		default:
		}
		did, alive := p.step()
		if !alive {
			return
		}
		if !did {
			// Nothing deliverable: a send (also once its delay elapses), a
			// timer, an injection, a restart or Stop wakes us; a gate's
			// answer changes only in our own callbacks.
			select {
			case <-p.net.stopCh:
				return
			case <-p.wakeCh:
			}
		}
	}
}

// step delivers at most one pending item; it reports whether it did, and
// whether the process is still there to be stepped again.
func (p *proc) step() (did, alive bool) {
	p.mu.Lock()
	if p.crashed {
		p.mu.Unlock()
		return false, false
	}
	if p.down {
		if p.revive {
			p.revive = false
			p.down = false
			p.mu.Unlock()
			n := p.net
			n.core.Restart(p.self, n.nowTicks(), n.handlers[p.self], &liveCtx{p: p}, n.record)
			return true, true
		}
		// Arrival at a down process is loss, same rule as the simulator:
		// discard every head that became ready, then go back to sleep.
		now := time.Now()
		for from, q := range p.queues {
			for len(q) > 0 && !q[0].parked && !q[0].readyAt.After(now) {
				if q[0].span != 0 {
					p.net.cfg.Spans.Record(obs.Span{
						Parent: q[0].span, Time: p.net.nowTicks(), Kind: obs.SpanDrop,
						Proc: p.self, Peer: from, Msg: q[0].id, Note: "receiver down",
					})
				}
				q = q[1:]
			}
			p.queues[from] = q
		}
		p.mu.Unlock()
		return false, true
	}
	// 1. Injections.
	if len(p.injects) > 0 {
		fn := p.injects[0]
		p.injects = p.injects[1:]
		p.mu.Unlock()
		fn(&liveCtx{p: p})
		return true, true
	}
	// 2. Due timers.
	if len(p.dueTimer) > 0 {
		name := p.dueTimer[0]
		p.dueTimer = p.dueTimer[1:]
		p.mu.Unlock()
		p.net.core.TimersFired.Inc()
		p.net.handlers[p.self].OnTimer(&liveCtx{p: p}, name)
		return true, true
	}
	// 3. Ready channel heads, in sender order for fairness determinism.
	now := time.Now()
	gate, _ := p.net.handlers[p.self].(node.Gate)
	senders := make([]model.ProcID, 0, len(p.queues))
	for from := range p.queues {
		if len(p.queues[from]) > 0 {
			senders = append(senders, from)
		}
	}
	sort.Slice(senders, func(a, b int) bool { return senders[a] < senders[b] })
	for _, from := range senders {
		head := p.queues[from][0]
		if head.parked || head.readyAt.After(now) {
			continue
		}
		if gate != nil && !gate.Accepts(from, head.payload) {
			continue
		}
		p.queues[from] = p.queues[from][1:]
		p.mu.Unlock()
		p.net.record(model.Recv(p.self, from, head.id, head.payload.Tag, head.payload.Subject))
		p.net.core.Delivered.Inc()
		if head.span != 0 {
			p.curSpan = p.net.cfg.Spans.Record(obs.Span{
				Parent: head.span, Time: p.net.nowTicks(), Kind: obs.SpanDeliver,
				Proc: p.self, Peer: from, Msg: head.id, Tag: head.payload.Tag,
			})
		} else {
			p.curSpan = 0
		}
		p.net.handlers[p.self].OnMessage(&liveCtx{p: p}, from, head.payload)
		p.curSpan = 0
		return true, true
	}
	p.mu.Unlock()
	return false, true
}

// liveCtx implements node.Context for one process of a live network.
type liveCtx struct {
	p *proc
}

var _ node.Context = (*liveCtx)(nil)

func (c *liveCtx) Self() model.ProcID { return c.p.self }
func (c *liveCtx) N() int             { return c.p.net.cfg.N }
func (c *liveCtx) Now() int64         { return c.p.net.nowTicks() }

func (c *liveCtx) Send(to model.ProcID, pl node.Payload) {
	p := c.p
	net := p.net
	p.mu.Lock()
	dead := p.crashed || p.down
	p.mu.Unlock()
	if dead {
		return
	}
	if to == p.self {
		panic("runtime: send to self not supported")
	}
	if to < 1 || int(to) > net.cfg.N {
		panic(fmt.Sprintf("runtime: send to invalid process %d", to))
	}
	net.recMu.Lock()
	net.nextMsg++
	id := net.nextMsg
	e := model.Send(p.self, to, id, pl.Tag, pl.Subject)
	// One reading of the clock: Route judges the send at the tick its event shows.
	e.Time = net.nowTicks()
	e.Seq = len(net.history)
	net.history = append(net.history, e)
	net.recMu.Unlock()

	// Route asks the link function, which takes the fault plane's lock: the
	// destination's is taken with the first copy, not before.
	dst := net.procs[to]
	locked := false
	var maxDelay time.Duration
	net.core.Route(e.Time, p.curSpan, p.self, to, id, pl, func(wire node.Payload, span int64, park, reorder bool, extra int64) {
		if !locked {
			dst.mu.Lock()
			locked = true
		}
		if dst.crashed {
			return // sent, counted and traced like any other, but nobody is left to queue it for
		}
		d := net.delay() + time.Duration(extra)*net.cfg.Tick
		maxDelay = max(maxDelay, d)
		msg := liveMsg{id: id, payload: wire, readyAt: time.Now().Add(d), parked: park, span: span}
		q := dst.queues[p.self]
		if reorder && len(q) > 1 {
			// Overtake the current tail: a pairwise FIFO violation.
			tail := len(q) - 1
			q = append(q, q[tail])
			q[tail] = msg
		} else {
			q = append(q, msg)
		}
		dst.queues[p.self] = q
	})
	if !locked {
		return // dropped
	}
	gone := dst.crashed
	dst.mu.Unlock()
	if gone {
		return
	}
	dst.wake()
	// Ensure a re-check once the delay elapses even if nothing else wakes
	// the destination.
	time.AfterFunc(maxDelay, dst.wake)
}

func (c *liveCtx) SetTimer(name string, delayTicks int64) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed || p.down {
		return
	}
	lt := p.timers[name]
	if lt == nil {
		lt = &liveTimer{}
		p.timers[name] = lt
	} else if lt.timer != nil {
		lt.timer.Stop()
	}
	lt.gen++
	gen := lt.gen
	d := time.Duration(delayTicks) * p.net.cfg.Tick
	lt.timer = time.AfterFunc(d, func() {
		p.mu.Lock()
		cur := p.timers[name]
		if p.crashed || cur == nil || cur.gen != gen {
			p.mu.Unlock()
			return
		}
		p.dueTimer = append(p.dueTimer, name)
		p.mu.Unlock()
		p.wake()
	})
}

func (c *liveCtx) CancelTimer(name string) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if lt := p.timers[name]; lt != nil {
		lt.gen++
		if lt.timer != nil {
			lt.timer.Stop()
		}
	}
}

func (c *liveCtx) EmitFailed(j model.ProcID) {
	p := c.p
	p.mu.Lock()
	if p.crashed || p.down || p.emitted[j] {
		p.mu.Unlock()
		return
	}
	p.emitted[j] = true
	p.mu.Unlock()
	p.emit(model.Failed(p.self, j))
}

func (c *liveCtx) CrashSelf() {
	p := c.p
	p.mu.Lock()
	if p.crashed || p.down {
		p.mu.Unlock()
		return
	}
	p.crashed = true
	// Nothing reads a terminally crashed process's queued work again.
	p.queues, p.injects, p.dueTimer = nil, nil, nil
	p.stopTimers()
	p.mu.Unlock()
	p.net.record(model.Crash(p.self))
	if l, ok := p.net.handlers[p.self].(node.CrashListener); ok {
		l.OnCrash(c)
	}
	p.wake()
}

func (c *liveCtx) EmitInternal(tag string, subject model.ProcID) {
	p := c.p
	p.mu.Lock()
	dead := p.crashed || p.down
	p.mu.Unlock()
	if dead {
		return
	}
	p.emit(model.Internal(p.self, tag, subject))
}

// emit records e and, for a suspicion or a detection, its span.
func (p *proc) emit(e model.Event) {
	p.net.record(e)
	p.net.core.Detection(p.net.nowTicks(), p.curSpan, e)
}
