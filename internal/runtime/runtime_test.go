package runtime_test

import (
	"sync"
	"testing"
	"time"

	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/recovery"
	"failstop/internal/runtime"
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

func TestLiveTimers(t *testing.T) {
	net := runtime.New(fastCfg(1, 4))
	var mu sync.Mutex
	var fired []string
	h := &timerHandler{onTimer: func(name string) {
		mu.Lock()
		fired = append(fired, name)
		mu.Unlock()
	}}
	net.SetHandler(1, h)
	net.Start()
	net.Do(1, func(ctx node.Context) {
		// Generous spacing: under the race scheduler, goroutine wakeups can
		// be delayed by milliseconds, and a cancel must not lose the race
		// against its own timer's firing.
		ctx.SetTimer("a", 200) // 20ms
		ctx.SetTimer("b", 50)  // 5ms
		ctx.SetTimer("c", 400) // 40ms, cancelled immediately below
		ctx.CancelTimer("c")
	})
	time.Sleep(80 * time.Millisecond)
	net.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want [b a]", fired)
	}
	if fired[0] != "b" || fired[1] != "a" {
		t.Errorf("fired = %v, want [b a]", fired)
	}
}

type timerHandler struct {
	onTimer func(string)
}

func (h *timerHandler) Init(node.Context)                                  {}
func (h *timerHandler) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (h *timerHandler) OnTimer(_ node.Context, name string)                { h.onTimer(name) }

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

// TestFaultTimersStayBounded: a recurring lifetime holds its pending timers
// only — the next crash and the restart — not one per window since Start.
// (Every fired timer used to stay in the list until Stop: 101 after 50
// windows of one such storm.) A storm can end early here: a host stalled past
// a whole downtime fires a restart and the next crash together, the window
// finds its process still down and is skipped, chain and all, as on the
// simulator. Such a run proves nothing about 50 windows and is made again.
func TestFaultTimersStayBounded(t *testing.T) {
	const windows, attempts = 50, 8
	for attempt := 1; ; attempt++ {
		got := stormWindows(t, windows)
		if got >= windows {
			return
		}
		if attempt == attempts {
			t.Fatalf("no storm reached %d windows in %d attempts (the last ended after %d)", windows, attempts, got)
		}
		t.Logf("attempt %d: the storms ended after %d windows", attempt, got)
	}
}

// stormWindows runs six staggered restart storms until they have crashed
// want times between them or all have ended, failing the test the moment the
// net holds more than two fault timers a lifetime. It returns the crashes.
func stormWindows(t *testing.T, want int64) int64 {
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
	defer net.Stop()
	got, progress := int64(0), time.Now()
	for got < want && time.Since(progress) < 25*40*cfg.Tick {
		if now := net.Metrics().Value("net_plan_crashes_total"); now > got {
			got, progress = now, time.Now()
		}
		if held, max := net.FaultTimers(), 2*len(cfg.Lifetimes); held > max {
			t.Fatalf("net holds %d fault timers after %d windows, want at most %d", held, got, max)
		}
		time.Sleep(time.Millisecond)
	}
	return got
}
