package runtime_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
	"failstop/internal/runtime"
	"failstop/internal/sim"
)

// collector records message tags it received, thread-safely for assertions
// after Stop.
type collector struct {
	mu  sync.Mutex
	got []string
}

func (c *collector) Init(node.Context) {}
func (c *collector) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	c.mu.Lock()
	c.got = append(c.got, p.Tag)
	c.mu.Unlock()
	if p.Tag == "PING" {
		ctx.Send(from, node.Payload{Tag: "PONG"})
	}
}
func (c *collector) OnTimer(node.Context, string) {}

func (c *collector) tags() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.got))
	copy(out, c.got)
	return out
}

func fastCfg(n int, seed int64) runtime.Config {
	return runtime.Config{
		N:        n,
		Seed:     seed,
		MinDelay: 50 * time.Microsecond,
		MaxDelay: 500 * time.Microsecond,
		Tick:     100 * time.Microsecond,
	}
}

func TestLivePingPong(t *testing.T) {
	net := runtime.New(fastCfg(2, 1))
	c1, c2 := &collector{}, &collector{}
	net.SetHandler(1, c1)
	net.SetHandler(2, c2)
	net.Start()
	net.Do(1, func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "PING"}) })
	deadline := time.Now().Add(2 * time.Second)
	for len(c1.tags()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	net.Stop()
	if got := c2.tags(); len(got) != 1 || got[0] != "PING" {
		t.Errorf("process 2 got %v", got)
	}
	if got := c1.tags(); len(got) != 1 || got[0] != "PONG" {
		t.Errorf("process 1 got %v", got)
	}
	if err := net.History().Validate(); err != nil {
		t.Errorf("invalid history: %v", err)
	}
}

func TestLiveFIFO(t *testing.T) {
	net := runtime.New(fastCfg(2, 2))
	c2 := &collector{}
	net.SetHandler(1, &collector{})
	net.SetHandler(2, c2)
	net.Start()
	net.Do(1, func(ctx node.Context) {
		for _, tag := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
			ctx.Send(2, node.Payload{Tag: tag})
		}
	})
	deadline := time.Now().Add(2 * time.Second)
	for len(c2.tags()) < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	net.Stop()
	got := c2.tags()
	want := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIFO broken: got %v", got)
		}
	}
	if err := net.History().Validate(); err != nil {
		t.Errorf("invalid history: %v", err)
	}
}

// The full sFS stack on the live runtime: a false suspicion must play out
// exactly as in the simulator — target killed, everyone detects, all sFS
// conditions hold on the recorded history.
func TestLiveSFSProtocol(t *testing.T) {
	const n, tFail = 5, 2
	net := runtime.New(fastCfg(n, 3))
	dets := make([]*core.Detector, n+1)
	for p := 1; p <= n; p++ {
		d := core.NewDetector(core.Config{N: n, T: tFail}, nil, nil)
		dets[p] = d
		net.SetHandler(model.ProcID(p), d)
	}
	net.Start()
	net.Do(2, func(ctx node.Context) { dets[2].Suspect(ctx, 1) })

	// Poll via the mutex-guarded history: detectors themselves are
	// single-threaded state owned by their worker goroutine.
	deadline := time.Now().Add(5 * time.Second)
	done := func() bool {
		h := net.History()
		for p := model.ProcID(2); int(p) <= n; p++ {
			if h.FailedIndex(p, 1) < 0 {
				return false
			}
		}
		return h.CrashIndex(1) >= 0
	}
	for !done() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	net.Stop()
	if !done() {
		t.Fatal("protocol did not converge on the live runtime")
	}
	h := net.History()
	if err := h.Validate(); err != nil {
		t.Fatalf("invalid history: %v", err)
	}
	ab := h.DropTags(core.TagSusp)
	for _, v := range checker.SFS(ab) {
		if !v.Holds {
			t.Errorf("%s", v)
		}
	}
	if v := checker.WitnessProperty(h, core.TagSusp, tFail); !v.Holds {
		t.Errorf("%s", v)
	}
}

// TestLiveTimers: timers fire in deadline order, a name armed again fires
// once, at its new deadline, and a cancelled timer never fires.
func TestLiveTimers(t *testing.T) {
	net := runtime.New(fastCfg(1, 4))
	var mu sync.Mutex
	var fired []string
	var aAt int64
	h := &timerHandler{onTimer: func(ctx node.Context, name string) {
		mu.Lock()
		fired = append(fired, name)
		if name == "a" {
			aAt = ctx.Now()
		}
		mu.Unlock()
	}}
	net.SetHandler(1, h)
	net.Start()
	net.Do(1, func(ctx node.Context) {
		// Generous spacing: under the race scheduler, goroutine wakeups can
		// be delayed by milliseconds, and a cancel must not lose the race
		// against its own timer's firing.
		ctx.SetTimer("a", 100) // 10ms, armed again below
		ctx.SetTimer("b", 50)  // 5ms
		ctx.SetTimer("c", 400) // 40ms, cancelled immediately below
		ctx.SetTimer("a", 200) // 20ms
		ctx.CancelTimer("c")
	})
	time.Sleep(80 * time.Millisecond)
	net.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 2 || fired[0] != "b" || fired[1] != "a" {
		t.Fatalf("fired = %v, want [b a]", fired)
	}
	if aAt < 200 {
		t.Errorf("a fired at tick %d, before the deadline it was armed again with (200)", aAt)
	}
}

type timerHandler struct {
	onTimer func(node.Context, string)
}

func (h *timerHandler) Init(node.Context)                                  {}
func (h *timerHandler) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (h *timerHandler) OnTimer(ctx node.Context, name string)              { h.onTimer(ctx, name) }

// TestLiveCrashStopsProcess: a terminally crashed process receives nothing,
// and the runtime lets go of it — its worker returns without waiting for
// Stop, and sends to it are recorded and counted but no longer queued.
func TestLiveCrashStopsProcess(t *testing.T) {
	net := runtime.New(fastCfg(2, 5))
	c2 := &collector{}
	net.SetHandler(1, &collector{})
	net.SetHandler(2, c2)
	net.Start()
	net.Do(2, func(ctx node.Context) { ctx.CrashSelf() })
	select {
	case <-net.WorkerDone(2):
	case <-time.After(2 * time.Second):
		t.Fatal("the crashed process's worker is still running")
	}
	const sends = 1000
	sent := make(chan struct{})
	net.Do(1, func(ctx node.Context) {
		for i := 0; i < sends; i++ {
			ctx.Send(2, node.Payload{Tag: "X"})
		}
		close(sent)
	})
	<-sent
	// A worker publishes what its step counted once the step is over: the
	// next step of process 1 runs after that.
	stepped := make(chan struct{})
	net.Do(1, func(node.Context) { close(stepped) })
	<-stepped
	if q := net.Queued(2); q != 0 {
		t.Errorf("%d copies queued for the crashed process, want 0", q)
	}
	if got := net.Metrics().Value("net_sent_total"); got != sends {
		t.Errorf("net_sent_total = %d, want %d: a send to a crashed process still counts", got, sends)
	}
	time.Sleep(5 * time.Millisecond)
	net.Stop()
	if got := c2.tags(); len(got) != 0 {
		t.Errorf("crashed process received %v", got)
	}
	h := net.History()
	if err := h.Validate(); err != nil {
		t.Errorf("invalid history: %v", err)
	}
	if h.CrashIndex(2) < 0 {
		t.Error("crash not recorded")
	}
	recorded := 0
	for _, e := range h {
		if e.Kind == model.KindSend {
			recorded++
		}
	}
	if recorded != sends {
		t.Errorf("history holds %d sends, want %d", recorded, sends)
	}
}

func TestStopIdempotent(t *testing.T) {
	net := runtime.New(fastCfg(1, 6))
	net.SetHandler(1, &collector{})
	net.Start()
	net.Stop()
	net.Stop() // must not panic or deadlock
}

// TestFaultTimersStayBounded: a recurring lifetime holds its pending
// deadlines only — the next crash window and the restart — not one per window
// since Start. (Every fired fault timer used to stay held until Stop: 101
// after 50 windows of one such storm.)
func TestFaultTimersStayBounded(t *testing.T) {
	const windows = 50
	cfg := fastCfg(7, 7)
	cfg.Tick = 200 * time.Microsecond
	cfg.Recovery = recovery.Amnesia
	for p := model.ProcID(2); p <= 7; p++ {
		cfg.Lifetimes = append(cfg.Lifetimes, recovery.Lifetime{Proc: p, Crash: 5 * int64(p), Restart: 5*int64(p) + 10, Period: 40})
	}
	net := runtime.New(cfg)
	for p := model.ProcID(1); p <= 7; p++ {
		net.SetHandler(p, &collector{})
	}
	net.Start()
	got, progress := int64(0), time.Now()
	for got < windows && time.Since(progress) < 25*40*cfg.Tick {
		if now := net.Metrics().Value("net_plan_crashes_total"); now > got {
			got, progress = now, time.Now()
		}
		time.Sleep(time.Millisecond)
	}
	net.Stop()
	if got < windows {
		t.Fatalf("the storms ended after %d windows, want %d", got, windows)
	}
	for _, l := range cfg.Lifetimes {
		if held := net.LifetimeDeadlines(l.Proc); held > 2 {
			t.Errorf("process %d holds %d lifetime deadlines after %d windows, want at most 2", l.Proc, held, got)
		}
	}
}

// TestStalledHostKeepsTheStorm: a worker stalled past a whole uptime runs its
// crash window late, so the restart comes after the next window is due. That
// window finds its process still down and is skipped, and the storm goes on
// to its last windows. (The skipped window used to take the rest of the chain
// with it: the storm ended at the stall.)
func TestStalledHostKeepsTheStorm(t *testing.T) {
	cfg := fastCfg(2, 8)
	cfg.Tick = time.Millisecond
	cfg.Recovery = recovery.Amnesia
	// Windows at 20, 60, …, 380, each 10 ticks down and 30 up.
	cfg.Lifetimes = []recovery.Lifetime{{Proc: 2, Crash: 20, Restart: 30, Period: 40, Until: 380}}
	net := runtime.New(cfg)
	net.SetHandler(1, &collector{})
	net.SetHandler(2, &collector{})
	net.Start()
	defer net.Stop()
	stalled := make(chan struct{})
	net.Do(2, func(node.Context) {
		time.Sleep(100 * cfg.Tick) // past the first window and the second
		close(stalled)
	})
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the stall never ran")
	}
	lastCrash := func() int64 {
		at := int64(-1)
		for _, e := range net.History() {
			if e.Kind == model.KindCrash {
				at = e.Time
			}
		}
		return at
	}
	deadline := time.Now().Add(5 * time.Second)
	for lastCrash() < 340 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if at := lastCrash(); at < 340 {
		t.Fatalf("the storm's last crash was at tick %d, want one of its last windows (340, 380)", at)
	}
	if err := net.History().Validate(); err != nil {
		t.Errorf("invalid history: %v", err)
	}
}

// TestDeadlineTiesBreakByInsertion: deadlines due at the same instant run in
// the order they were queued, as the simulator's occurrences do. The second
// window, queued at Start, is due at the tick the first window's restart is:
// it runs first, finds its process still down and is skipped, so both hosts
// record one crash and one restart.
func TestDeadlineTiesBreakByInsertion(t *testing.T) {
	lifetimes := []recovery.Lifetime{{Proc: 2, Crash: 10, Restart: 20}, {Proc: 2, Crash: 20, Restart: 30}}
	lifeEvents := func(h model.History) (out []string) {
		for _, e := range h {
			if e.Kind == model.KindCrash || e.Tag == model.TagRestart {
				out = append(out, e.String())
			}
		}
		return out
	}
	s := sim.New(sim.Config{N: 2, Seed: 1, Lifetimes: lifetimes, Recovery: recovery.Amnesia})
	s.SetHandler(1, &collector{})
	s.SetHandler(2, &collector{})
	want := lifeEvents(s.Run().History)
	if len(want) != 2 {
		t.Fatalf("simulator: lifetime events %v, want a crash and a restart", want)
	}

	cfg := fastCfg(2, 10)
	cfg.Tick = 5 * time.Millisecond // the first crash runs within its tick, so its restart ties the second window
	cfg.Lifetimes, cfg.Recovery = lifetimes, recovery.Amnesia
	net := runtime.New(cfg)
	net.SetHandler(1, &collector{})
	net.SetHandler(2, &collector{})
	net.Start()
	time.Sleep(40 * cfg.Tick) // past the second window's restart, had it crashed
	net.Stop()
	if got := lifeEvents(net.History()); !reflect.DeepEqual(got, want) {
		t.Errorf("live lifetime events %v, want the simulator's %v", got, want)
	}
}

// restartTimers arms "old" from Init, which runs once, and "new" on each
// restart, and logs every timer that fires.
type restartTimers struct {
	fired chan string
}

func (h *restartTimers) Init(ctx node.Context)                              { ctx.SetTimer("old", 60) }
func (h *restartTimers) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (h *restartTimers) OnTimer(_ node.Context, name string)                { h.fired <- name }
func (h *restartTimers) Snapshot() []byte                                   { return nil }
func (h *restartTimers) OnRestart(ctx node.Context, _ []byte)               { ctx.SetTimer("new", 10) }

// TestLiveRestartDeadIncarnationTimerNeverFires: a timer armed before a plan
// crash dies with the incarnation that armed it, even when its deadline falls
// after the restart; the restarted process's own timer fires.
func TestLiveRestartDeadIncarnationTimerNeverFires(t *testing.T) {
	cfg := fastCfg(2, 9)
	cfg.Tick = time.Millisecond
	cfg.Recovery = recovery.Amnesia
	cfg.Lifetimes = []recovery.Lifetime{{Proc: 2, Crash: 20, Restart: 30}}
	net := runtime.New(cfg)
	h := &restartTimers{fired: make(chan string, 4)}
	net.SetHandler(1, &collector{})
	net.SetHandler(2, h)
	started := time.Now()
	net.Start()
	select {
	case name := <-h.fired:
		if name != "new" {
			t.Errorf("timer %q fired first, want the restarted process's %q", name, "new")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the restarted process's timer never fired")
	}
	time.Sleep(time.Until(started.Add(80 * cfg.Tick))) // past the dead timer's deadline, at 60
	net.Stop()
	close(h.fired)
	for name := range h.fired {
		t.Errorf("timer %q fired after the restarted process's", name)
	}
}

// sender sends count messages to process 2 from Init.
type sender struct{ count int }

func (s sender) Init(ctx node.Context) {
	for i := 0; i < s.count; i++ {
		ctx.Send(2, node.Payload{Tag: "M"})
	}
}
func (sender) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (sender) OnTimer(node.Context, string)                       {}

// TestSendFateJudgedAtRecordedTick: the fault plane decides a live send at
// the tick its send event carries. The clock used to be read twice, once for
// the history and once for the link function, so at a fine tick a rule window
// could be judged at a tick the history never shows.
func TestSendFateJudgedAtRecordedTick(t *testing.T) {
	const sends = 300
	cfg := fastCfg(2, 1)
	cfg.Tick = 50 * time.Nanosecond
	var ats []int64
	cfg.Link = func(_, _ model.ProcID, _ node.Payload, at int64) node.LinkDecision {
		ats = append(ats, at) // Init runs on the caller of Start: no other sender
		return node.LinkDecision{}
	}
	net := runtime.New(cfg)
	net.SetHandler(1, sender{count: sends})
	net.SetHandler(2, &collector{})
	net.Start()
	net.Stop()
	var times []int64
	for _, e := range net.History() {
		if e.Kind == model.KindSend {
			times = append(times, e.Time)
		}
	}
	if len(ats) != sends || len(times) != sends {
		t.Fatalf("%d link calls and %d send events, want %d of each", len(ats), len(times), sends)
	}
	differ := 0
	for k := range ats {
		if ats[k] != times[k] {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d sends judged at another tick than their send event's (first: link %d, event %d)",
			differ, sends, ats[0], times[0])
	}
}

// suspector suspects the sender of every message it receives and counts
// them, thread-safely for the test's wait.
type suspector struct {
	mu  sync.Mutex
	got int
}

func (h *suspector) Init(node.Context) {}
func (h *suspector) OnMessage(ctx node.Context, from model.ProcID, _ node.Payload) {
	ctx.EmitInternal(model.TagSuspect, from)
	h.mu.Lock()
	h.got++
	h.mu.Unlock()
}
func (h *suspector) OnTimer(node.Context, string) {}

func (h *suspector) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.got
}

// TestSpansAtRecordedTick: a live receive's deliver span, and a suspicion's
// span, carry the tick their event does. The clock used to be read once for
// the span and again, under the recorder lock, for the event, so at a fine
// tick the two differed.
func TestSpansAtRecordedTick(t *testing.T) {
	const sends = 300
	cfg := fastCfg(2, 1)
	cfg.Tick = time.Nanosecond
	cfg.Spans = obs.NewSpanRecorder(1, 1)
	net := runtime.New(cfg)
	h := &suspector{}
	net.SetHandler(1, sender{count: sends})
	net.SetHandler(2, h)
	net.Start()
	deadline := time.Now().Add(5 * time.Second)
	for h.count() < sends && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	net.Stop()
	recvAt, suspectAt := map[model.MsgID]int64{}, []int64(nil)
	for _, e := range net.History() {
		switch {
		case e.Kind == model.KindRecv && e.Proc == 2:
			recvAt[e.Msg] = e.Time
		case e.Kind == model.KindInternal && e.Tag == model.TagSuspect:
			suspectAt = append(suspectAt, e.Time)
		}
	}
	var deliverAt, suspectSpans []int64
	differ := 0
	for _, sp := range cfg.Spans.Spans() {
		switch sp.Kind {
		case obs.SpanDeliver:
			deliverAt = append(deliverAt, sp.Time)
			if at, ok := recvAt[sp.Msg]; !ok || sp.Proc != 2 || at != sp.Time {
				differ++
			}
		case obs.SpanSuspect:
			suspectSpans = append(suspectSpans, sp.Time)
		}
	}
	if len(recvAt) != sends || len(deliverAt) != sends {
		t.Fatalf("%d receives and %d deliver spans, want %d of each", len(recvAt), len(deliverAt), sends)
	}
	if differ > 0 {
		t.Errorf("%d of %d deliver spans at another tick than their receive event's", differ, sends)
	}
	if len(suspectSpans) != len(suspectAt) {
		t.Fatalf("%d suspicion spans for %d suspicions", len(suspectSpans), len(suspectAt))
	}
	for k := range suspectAt {
		if suspectSpans[k] != suspectAt[k] {
			t.Errorf("suspicion %d: span at tick %d, event at %d", k, suspectSpans[k], suspectAt[k])
			break
		}
	}
}

// TestBadCallsPanicAtTheCall: a call naming a process nobody is panics with
// its name, where it is written. Do(0, …) — LiveCluster.Crash(0) — used to die
// on a nil process and Do(n+1, …) or SetHandler(n+1, …) with an index out of
// range; SetHandler(0, …) was silently accepted.
func TestBadCallsPanicAtTheCall(t *testing.T) {
	for _, tc := range []struct {
		want string
		call func(*runtime.Net)
	}{
		{"runtime: Do for invalid process 0 (have 1..3)", func(n *runtime.Net) { n.Do(0, func(node.Context) {}) }},
		{"runtime: Do for invalid process 4 (have 1..3)", func(n *runtime.Net) { n.Do(4, func(node.Context) {}) }},
		{"runtime: Do for invalid process -1 (have 1..3)", func(n *runtime.Net) { n.Do(-1, func(node.Context) {}) }},
		{"runtime: SetHandler for invalid process 0 (have 1..3)", func(n *runtime.Net) { n.SetHandler(0, &collector{}) }},
		{"runtime: SetHandler for invalid process 4 (have 1..3)", func(n *runtime.Net) { n.SetHandler(4, &collector{}) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("recovered %v, want %q", r, tc.want)
				}
			}()
			tc.call(runtime.New(fastCfg(3, 1)))
		}()
	}
}

// initOnly runs init as its Init and nothing else.
type initOnly struct{ init func(node.Context) }

func (h initOnly) Init(ctx node.Context)                            { h.init(ctx) }
func (initOnly) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (initOnly) OnTimer(node.Context, string)                       {}

// recovered runs call and returns what it panicked with, nil if nothing.
func recovered(call func()) (r any) {
	defer func() { r = recover() }()
	call()
	return nil
}

// TestMessageIDsFitTheSlot, the live twin of the simulator's: the last id a
// model.MsgID can hold is sent and delivered under its own number; the send
// after it panics — once the recorder lock is let go, so the run goes on —
// instead of wrapping onto a negative id.
func TestMessageIDsFitTheSlot(t *testing.T) {
	net := runtime.New(fastCfg(2, 1))
	net.PresetSent(math.MaxInt32 - 1)
	var second any
	net.SetHandler(1, initOnly{func(ctx node.Context) {
		ctx.Send(2, node.Payload{Tag: "last"})
		second = recovered(func() { ctx.Send(2, node.Payload{Tag: "one too many"}) })
	}})
	c2 := &collector{}
	net.SetHandler(2, c2)
	net.Start() // Init runs on this goroutine
	deadline := time.Now().Add(2 * time.Second)
	for len(c2.tags()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	net.Stop()
	h := net.History()
	if len(h) != 2 || h[0].Kind != model.KindSend || h[1].Kind != model.KindRecv || h[0].Msg != math.MaxInt32 || h[1].Msg != math.MaxInt32 {
		t.Errorf("history = %v, want the send and the receive of message %d", h, math.MaxInt32)
	}
	if msg, _ := second.(string); !strings.Contains(msg, "more messages") {
		t.Errorf("the send past the last id panicked with %v, want the slot-id guard", second)
	}
}

// TestLastIDTakenOnce: senders racing for the last id a model.MsgID can hold
// get it exactly once. The guard is taken under the recorder lock, so every
// other send panics — after the lock is let go, so the run goes on — and no
// event carries an id wrapped negative; the refused sends count nothing.
func TestLastIDTakenOnce(t *testing.T) {
	const n = 8
	net := runtime.New(fastCfg(n, 1))
	net.PresetSent(math.MaxInt32 - 1)
	for p := 1; p <= n; p++ {
		net.SetHandler(model.ProcID(p), &collector{})
	}
	net.Start()
	start := make(chan struct{})
	refused := make([]any, n+1)
	var ready, done sync.WaitGroup
	ready.Add(n - 1)
	done.Add(n - 1)
	for p := 2; p <= n; p++ {
		net.Do(model.ProcID(p), func(ctx node.Context) {
			defer done.Done()
			ready.Done()
			<-start // every sender waits on its own worker, then all send at once
			refused[p] = recovered(func() { ctx.Send(1, node.Payload{Tag: "last"}) })
		})
	}
	ready.Wait()
	close(start)
	done.Wait()
	net.Stop()
	got, guarded := 0, 0
	for _, r := range refused[2:] {
		if msg, _ := r.(string); strings.Contains(msg, "more messages") {
			guarded++
		} else if r == nil {
			got++
		}
	}
	if got != 1 || guarded != n-2 {
		t.Errorf("%d of %d senders sent and %d hit the id guard, want 1 and %d: %v", got, n-1, guarded, n-2, refused[2:])
	}
	sends := 0
	for _, e := range net.History() {
		if e.Msg < 0 {
			t.Errorf("event %v carries a negative id", e)
		}
		if e.Kind == model.KindSend {
			sends++
			if e.Msg != math.MaxInt32 {
				t.Errorf("send %v, want message %d", e, math.MaxInt32)
			}
		}
	}
	if sent := net.Metrics().Value("net_sent_total"); sends != 1 || sent != 1 {
		t.Errorf("%d sends recorded, %d counted; want 1 and 1", sends, sent)
	}
}

// TestSendToSelfPanics, the live twin of the simulator's: a send to oneself
// or to no process panics at the call.
func TestSendToSelfPanics(t *testing.T) {
	net := runtime.New(fastCfg(2, 1))
	var got []string
	net.SetHandler(1, initOnly{func(ctx node.Context) {
		for _, to := range []model.ProcID{1, 0, 3} {
			got = append(got, fmt.Sprint(recovered(func() { ctx.Send(to, node.Payload{Tag: "X"}) })))
		}
	}})
	net.SetHandler(2, &collector{})
	net.Start()
	net.Stop()
	want := []string{"runtime: send to self not supported (count self-quorum locally)",
		"runtime: send to invalid process 0", "runtime: send to invalid process 3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("panics = %q, want %q", got, want)
	}
	if h := net.History(); len(h) != 0 {
		t.Errorf("refused sends recorded %v", h)
	}
}

// timerLog runs init as its Init and sends the name of every timer it fires
// to fired.
type timerLog struct {
	init  func(node.Context)
	fired chan string
}

func (h timerLog) Init(ctx node.Context)                            { h.init(ctx) }
func (timerLog) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (h timerLog) OnTimer(_ node.Context, name string)              { h.fired <- name }

// TestTimerDelayBounded, the live twin of the simulator's: a delay past
// host.MaxDelay panics at the call, naming the bound, and one at the bound
// does not wrap under a tick of 2²³ ns, where it is exactly 2⁶³ ns. The
// deadline used to wrap to a time long past, so "edge" fired before "now".
func TestTimerDelayBounded(t *testing.T) {
	cfg := fastCfg(1, 1)
	cfg.Tick = 1 << 23
	net := runtime.New(cfg)
	fired := make(chan string, 2)
	var refused []any
	net.SetHandler(1, timerLog{init: func(ctx node.Context) {
		for _, delay := range []int64{math.MaxInt64, host.MaxDelay + 1} {
			refused = append(refused, recovered(func() { ctx.SetTimer("far", delay) }))
		}
		ctx.SetTimer("edge", host.MaxDelay)
		ctx.SetTimer("now", 0)
	}, fired: fired})
	net.Start() // Init runs on this goroutine
	var first string
	select {
	case first = <-fired:
	case <-time.After(2 * time.Second):
	}
	net.Stop()
	if first != "now" {
		t.Errorf("first timer to fire was %q, want \"now\"", first)
	}
	want := []any{
		"runtime: SetTimer delay 9223372036854775807 exceeds 1099511627776 ticks (2^40: the clock must not overflow)",
		"runtime: SetTimer delay 1099511627777 exceeds 1099511627776 ticks (2^40: the clock must not overflow)",
	}
	if !reflect.DeepEqual(refused, want) {
		t.Errorf("refused delays panicked with %q, want %q", refused, want)
	}
}
