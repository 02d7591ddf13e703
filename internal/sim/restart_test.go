package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// counterHandler counts deliveries into a single integer and persists it as
// its snapshot, so tests can tell a durable restart (count survives) from an
// amnesiac one (count resets to zero).
type counterHandler struct {
	count    int
	restarts int
	inits    int
}

func (h *counterHandler) Init(node.Context) { h.inits++ }
func (h *counterHandler) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	h.count++
}
func (h *counterHandler) OnTimer(node.Context, string) {}
func (h *counterHandler) Snapshot() []byte {
	return []byte(fmt.Sprintf("%d", h.count))
}
func (h *counterHandler) OnRestart(ctx node.Context, state []byte) {
	h.restarts++
	h.count = 0
	if len(state) > 0 {
		fmt.Sscanf(string(state), "%d", &h.count)
	}
}

var _ node.Restarter = (*counterHandler)(nil)

// TestRestartOneShot: a single crash/restart cycle records crash then
// restart, and the process is not down at the end.
func TestRestartOneShot(t *testing.T) {
	s := New(Config{
		N: 2, Seed: 1, MaxTime: 100,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 10, Restart: 30}},
		Recovery:  recovery.Amnesia,
	})
	h := &counterHandler{}
	s.SetHandler(1, idle())
	s.SetHandler(2, h)
	res := s.Run()
	if err := res.History.Validate(); err != nil {
		t.Fatalf("invalid history: %v\n%s", err, res.History)
	}
	if res.PlanCrashes != 1 || res.Restarts != 1 || res.Recovered != 0 {
		t.Errorf("PlanCrashes=%d Restarts=%d Recovered=%d, want 1/1/0",
			res.PlanCrashes, res.Restarts, res.Recovered)
	}
	if h.restarts != 1 {
		t.Errorf("handler saw %d restarts, want 1", h.restarts)
	}
	if down := res.History.DownAtEnd(); len(down) != 0 {
		t.Errorf("DownAtEnd() = %v, want empty", down)
	}
	if ci := res.History.CrashIndex(2); ci < 0 {
		t.Error("no crash event recorded for process 2")
	}
}

// TestRestartPeriodicStorm: a periodic lifetime crashes on the plan cadence
// until the horizon; every crash is followed by a restart.
func TestRestartPeriodicStorm(t *testing.T) {
	s := New(Config{
		N: 2, Seed: 1, MaxTime: 1000,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 100, Restart: 150, Period: 200}},
		Recovery:  recovery.Amnesia,
	})
	h := &counterHandler{}
	s.SetHandler(1, idle())
	s.SetHandler(2, h)
	res := s.Run()
	// Crashes at 100, 300, 500, 700, 900; restarts 50 ticks later each time.
	if res.PlanCrashes != 5 || res.Restarts != 5 {
		t.Errorf("PlanCrashes=%d Restarts=%d, want 5/5", res.PlanCrashes, res.Restarts)
	}
	if h.restarts != 5 {
		t.Errorf("handler saw %d restarts, want 5", h.restarts)
	}
}

// TestRestartUntilBound: Until stops the periodic chain even before MaxTime.
func TestRestartUntilBound(t *testing.T) {
	s := New(Config{
		N: 2, Seed: 1, MaxTime: 2000,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 100, Restart: 150, Period: 200, Until: 500}},
		Recovery:  recovery.Amnesia,
	})
	s.SetHandler(1, idle())
	s.SetHandler(2, &counterHandler{})
	res := s.Run()
	// Crashes at 100, 300, 500; 700 > Until.
	if res.PlanCrashes != 3 || res.Restarts != 3 {
		t.Errorf("PlanCrashes=%d Restarts=%d, want 3/3", res.PlanCrashes, res.Restarts)
	}
}

// TestRestartOffIsTerminal: under Recovery=Off the first plan crash is
// terminal — no restart, no periodic rescheduling, process down at end.
func TestRestartOffIsTerminal(t *testing.T) {
	s := New(Config{
		N: 2, Seed: 1, MaxTime: 1000,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 100, Restart: 150, Period: 200}},
		Recovery:  recovery.Off,
	})
	h := &counterHandler{}
	s.SetHandler(1, idle())
	s.SetHandler(2, h)
	res := s.Run()
	if res.PlanCrashes != 1 || res.Restarts != 0 {
		t.Errorf("PlanCrashes=%d Restarts=%d, want 1/0", res.PlanCrashes, res.Restarts)
	}
	if h.restarts != 0 {
		t.Errorf("handler saw %d restarts, want 0", h.restarts)
	}
	if down := res.History.DownAtEnd(); !down[2] {
		t.Errorf("DownAtEnd() = %v, want {2}", down)
	}
}

// TestRestartDurableVsAmnesia: the same lifetime run under Durable restores
// the snapshot taken at crash time; under Amnesia the handler restarts
// empty.
func TestRestartDurableVsAmnesia(t *testing.T) {
	run := func(mode recovery.Mode) (*counterHandler, *Result) {
		s := New(Config{
			N: 2, Seed: 1, MaxTime: 200,
			Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 50, Restart: 60}},
			Recovery:  mode,
		})
		h := &counterHandler{}
		s.SetHandler(1, &scriptHandler{init: func(ctx node.Context) {
			for i := 0; i < 3; i++ {
				ctx.Send(2, node.Payload{Tag: "PING"})
			}
		}})
		s.SetHandler(2, h)
		return h, s.Run()
	}

	hd, resD := run(recovery.Durable)
	if hd.count != 3 {
		t.Errorf("durable: count=%d after restart, want 3 (snapshot restored)", hd.count)
	}
	if resD.Recovered != 1 {
		t.Errorf("durable: Recovered=%d, want 1", resD.Recovered)
	}

	ha, resA := run(recovery.Amnesia)
	if ha.count != 0 {
		t.Errorf("amnesia: count=%d after restart, want 0", ha.count)
	}
	if resA.Recovered != 0 {
		t.Errorf("amnesia: Recovered=%d, want 0", resA.Recovered)
	}
}

// TestRestartDownArrivalLoss: messages that arrive while the receiver is
// down are discarded (with a drop span), not queued for after the restart.
func TestRestartDownArrivalLoss(t *testing.T) {
	rec := obs.NewSpanRecorder(10, 1)
	s := New(Config{
		N: 2, Seed: 1, MaxTime: 200, MinDelay: 1, MaxDelay: 1, Spans: rec,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 10, Restart: 100}},
		Recovery:  recovery.Amnesia,
	})
	h := &counterHandler{}
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.SetTimer("mid", 20) },
		onTimer: func(ctx node.Context, name string) {
			ctx.Send(2, node.Payload{Tag: "LOST"})
		},
	})
	s.SetHandler(2, h)
	s.Run()
	if h.count != 0 {
		t.Errorf("count=%d, want 0: message sent into downtime must be lost", h.count)
	}
	var downDrops int
	for _, sp := range rec.Spans() {
		if sp.Kind == obs.SpanDrop && sp.Note == "receiver down" {
			downDrops++
		}
	}
	if downDrops != 1 {
		t.Errorf("recorded %d 'receiver down' drop spans, want 1", downDrops)
	}
}

// TestRestartSpanRecorded: each restart emits a SpanRestart with the
// recovery mode in the note.
func TestRestartSpanRecorded(t *testing.T) {
	rec := obs.NewSpanRecorder(10, 1)
	s := New(Config{
		N: 2, Seed: 1, MaxTime: 100, Spans: rec,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 10, Restart: 30}},
		Recovery:  recovery.Durable,
	})
	s.SetHandler(1, idle())
	s.SetHandler(2, &counterHandler{})
	s.Run()
	var got []obs.Span
	for _, sp := range rec.Spans() {
		if sp.Kind == obs.SpanRestart {
			got = append(got, sp)
		}
	}
	if len(got) != 1 {
		t.Fatalf("recorded %d restart spans, want 1", len(got))
	}
	if got[0].Proc != 2 || got[0].Time != 30 {
		t.Errorf("restart span = %+v, want proc 2 at t=30", got[0])
	}
	if got[0].Note != "recovery=durable snapshot=1B" {
		t.Errorf("restart span note = %q", got[0].Note)
	}
}

// TestRestartDeterminism: the same seeded config with a restart storm yields
// an identical history and metrics on every run.
func TestRestartDeterminism(t *testing.T) {
	run := func() *Result {
		s := New(Config{
			N: 3, Seed: 7, MaxTime: 2000, MinDelay: 5, MaxDelay: 40,
			Lifetimes: []recovery.Lifetime{
				{Proc: 2, Crash: 100, Restart: 180, Period: 400},
				{Proc: 3, Crash: 300, Restart: 350},
			},
			Recovery: recovery.Durable,
		})
		for p := 1; p <= 3; p++ {
			p := model.ProcID(p)
			s.SetHandler(p, &scriptHandler{
				init: func(ctx node.Context) { ctx.SetTimer("tick", 50) },
				onTimer: func(ctx node.Context, name string) {
					for q := model.ProcID(1); q <= 3; q++ {
						if q != p {
							ctx.Send(q, node.Payload{Tag: "HB"})
						}
					}
					ctx.SetTimer("tick", 50)
				},
			})
		}
		return s.Run()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.History, b.History) {
		t.Error("histories differ between identically-seeded restart runs")
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("metrics differ:\n%v\n%v", a.Metrics, b.Metrics)
	}
	if a.Restarts == 0 {
		t.Error("storm produced no restarts; test is vacuous")
	}
}

// TestRestartUnboundedNeedsHorizon: an unbounded periodic lifetime with
// recovery enabled and no MaxTime must be rejected at construction.
func TestRestartUnboundedNeedsHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an unbounded lifetime without MaxTime")
		}
	}()
	New(Config{
		N: 2, Seed: 1,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 10, Restart: 20, Period: 100}},
		Recovery:  recovery.Amnesia,
	})
}

// TestNewRefusesStormPastTheClock: a lifetime given without a plan skips
// Plan.Validate, so New itself refuses a Period above host.MaxDelay. Run, had
// it been called, would not return: the window after a skipped one starts at
// at + Period, which wraps negative and is due at once, again and again,
// recording nothing, so neither MaxEvents nor MaxTime ends the run.
func TestNewRefusesStormPastTheClock(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "sim: lifetime 0: Period 9223372036854775806 exceeds") {
			t.Errorf("New panicked with %q, want the lifetime's Period named", msg)
		}
	}()
	New(Config{
		N: 5, Seed: 1, MaxTime: 500,
		Lifetimes: []recovery.Lifetime{{Proc: 1, Crash: 5, Restart: 1005, Period: math.MaxInt64 - 1}},
		Recovery:  recovery.Amnesia,
	})
}

// TestRestartTimersCancelled: timers armed before a crash do not fire after
// the restart (their generation is bumped), matching live-runtime semantics.
func TestRestartTimersCancelled(t *testing.T) {
	var fired int
	s := New(Config{
		N: 2, Seed: 1, MaxTime: 500,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 10, Restart: 20}},
		Recovery:  recovery.Amnesia,
	})
	s.SetHandler(1, idle())
	s.SetHandler(2, &scriptHandler{
		init:    func(ctx node.Context) { ctx.SetTimer("stale", 100) },
		onTimer: func(ctx node.Context, name string) { fired++ },
	})
	s.Run()
	// Init runs twice (t=0 and the amnesiac restart at t=20, which re-arms
	// for t=120); only the second timer may fire.
	if fired != 1 {
		t.Errorf("timer fired %d times, want 1 (pre-crash timer cancelled)", fired)
	}
}

// TestRestartDeadIncarnationTimerNeverFires: a timer armed before a crash
// stays dead in the next incarnation even after that incarnation has fired
// and re-armed the same name. The restarted process arms "x" for t=70 and,
// when it fires, for t=120; the first incarnation's occurrence at t=100 sits
// in the queue throughout and must not be taken for the second.
func TestRestartDeadIncarnationTimerNeverFires(t *testing.T) {
	var fired []int64
	s := New(Config{
		N: 2, Seed: 1, MaxTime: 500,
		Lifetimes: []recovery.Lifetime{{Proc: 2, Crash: 50, Restart: 60}},
		Recovery:  recovery.Amnesia,
	})
	s.SetHandler(1, idle())
	s.SetHandler(2, &scriptHandler{
		init: func(ctx node.Context) {
			if ctx.Now() == 0 {
				ctx.SetTimer("x", 100)
			} else {
				ctx.SetTimer("x", 10)
			}
		},
		onTimer: func(ctx node.Context, name string) {
			fired = append(fired, ctx.Now())
			if ctx.Now() == 70 {
				ctx.SetTimer("x", 50)
			}
		},
	})
	s.Run()
	if want := []int64{70, 120}; !reflect.DeepEqual(fired, want) {
		t.Errorf("timer fired at %v, want %v", fired, want)
	}
}
