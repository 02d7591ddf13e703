package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
)

// echoHandler replies "PONG" to every "PING" and records deliveries.
type echoHandler struct {
	got []string
}

func (h *echoHandler) Init(node.Context) {}
func (h *echoHandler) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	h.got = append(h.got, p.Tag)
	if p.Tag == "PING" {
		ctx.Send(from, node.Payload{Tag: "PONG"})
	}
}
func (h *echoHandler) OnTimer(node.Context, string) {}

// scriptHandler performs scripted actions on Init/timers.
type scriptHandler struct {
	init    func(ctx node.Context)
	onTimer func(ctx node.Context, name string)
	onMsg   func(ctx node.Context, from model.ProcID, p node.Payload)
}

func (h *scriptHandler) Init(ctx node.Context) {
	if h.init != nil {
		h.init(ctx)
	}
}
func (h *scriptHandler) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	if h.onMsg != nil {
		h.onMsg(ctx, from, p)
	}
}
func (h *scriptHandler) OnTimer(ctx node.Context, name string) {
	if h.onTimer != nil {
		h.onTimer(ctx, name)
	}
}

func idle() node.Handler { return &scriptHandler{} }

func newSim(t *testing.T, n int, seed int64) *Sim {
	t.Helper()
	s := New(Config{N: n, Seed: seed})
	for p := 1; p <= n; p++ {
		s.SetHandler(model.ProcID(p), idle())
	}
	return s
}

func TestPingPong(t *testing.T) {
	s := New(Config{N: 2, Seed: 1})
	e1, e2 := &echoHandler{}, &echoHandler{}
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "PING"}) },
		onMsg: func(ctx node.Context, from model.ProcID, p node.Payload) {
			e1.OnMessage(ctx, from, p)
		},
	})
	s.SetHandler(2, e2)
	res := s.Run()
	if err := res.History.Validate(); err != nil {
		t.Fatalf("invalid history: %v\n%s", err, res.History)
	}
	if !res.Quiescent() {
		t.Errorf("run not quiescent: %+v", res.Blocked)
	}
	if res.Sent != 2 || res.Delivered != 2 {
		t.Errorf("Sent=%d Delivered=%d, want 2/2", res.Sent, res.Delivered)
	}
	if len(e2.got) != 1 || e2.got[0] != "PING" {
		t.Errorf("process 2 got %v", e2.got)
	}
	if len(e1.got) != 1 || e1.got[0] != "PONG" {
		t.Errorf("process 1 got %v", e1.got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() model.History {
		s := New(Config{N: 4, Seed: 42})
		for p := 1; p <= 4; p++ {
			p := model.ProcID(p)
			s.SetHandler(p, &scriptHandler{
				init: func(ctx node.Context) {
					for q := model.ProcID(1); q <= 4; q++ {
						if q != p {
							ctx.Send(q, node.Payload{Tag: "X"})
						}
					}
				},
				onMsg: func(ctx node.Context, from model.ProcID, pl node.Payload) {
					if pl.Tag == "X" && from < p {
						ctx.Send(from, node.Payload{Tag: "Y"})
					}
				},
			})
		}
		return s.Run().History
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with same seed differ:\n%s\nvs\n%s", a, b)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed int64) model.History {
		s := New(Config{N: 3, Seed: seed})
		for p := 1; p <= 3; p++ {
			p := model.ProcID(p)
			s.SetHandler(p, &scriptHandler{
				init: func(ctx node.Context) {
					for q := model.ProcID(1); q <= 3; q++ {
						if q != p {
							ctx.Send(q, node.Payload{Tag: "X"})
						}
					}
				},
			})
		}
		return s.Run().History
	}
	a, b := run(1), run(2)
	if reflect.DeepEqual(a, b) {
		t.Skip("seeds happened to coincide; extremely unlikely but not an error")
	}
}

func TestFIFOPreservedUnderRandomDelays(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		s := New(Config{N: 2, Seed: seed, MinDelay: 1, MaxDelay: 50})
		var got []string
		s.SetHandler(1, &scriptHandler{
			init: func(ctx node.Context) {
				for _, tag := range []string{"a", "b", "c", "d", "e"} {
					ctx.Send(2, node.Payload{Tag: tag})
				}
			},
		})
		s.SetHandler(2, &scriptHandler{
			onMsg: func(_ node.Context, _ model.ProcID, p node.Payload) {
				got = append(got, p.Tag)
			},
		})
		res := s.Run()
		if err := res.History.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := []string{"a", "b", "c", "d", "e"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: delivery order %v, want %v", seed, got, want)
		}
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	s := New(Config{N: 2, Seed: 1, MinDelay: 5, MaxDelay: 5})
	delivered := 0
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "X"}) },
	})
	s.SetHandler(2, &scriptHandler{
		onMsg: func(node.Context, model.ProcID, node.Payload) { delivered++ },
	})
	s.CrashAt(1, 2) // crash before the message (delay 5) arrives
	res := s.Run()
	if delivered != 0 {
		t.Errorf("delivered %d messages to crashed process", delivered)
	}
	if res.History.CrashIndex(2) < 0 {
		t.Error("crash_2 not recorded")
	}
	if err := res.History.Validate(); err != nil {
		t.Errorf("invalid history: %v", err)
	}
	if len(res.Blocked) != 1 || res.Blocked[0].Reason != "receiver-crashed" {
		t.Errorf("Blocked = %+v, want one receiver-crashed entry", res.Blocked)
	}
	if !res.Quiescent() {
		t.Error("messages to crashed processes must not prevent quiescence")
	}
}

func TestCrashedProcessActsNoMore(t *testing.T) {
	s := New(Config{N: 2, Seed: 1})
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) {
			ctx.SetTimer("tick", 10)
			ctx.CrashSelf()
			// All of these must be silently ignored after the crash.
			ctx.Send(2, node.Payload{Tag: "X"})
			ctx.EmitFailed(2)
			ctx.EmitInternal("zombie", model.None)
			ctx.SetTimer("tock", 1)
			ctx.CrashSelf()
		},
	})
	s.SetHandler(2, idle())
	res := s.Run()
	if err := res.History.Validate(); err != nil {
		t.Fatalf("invalid history: %v\n%s", err, res.History)
	}
	if len(res.History) != 1 || res.History[0].Kind != model.KindCrash {
		t.Errorf("history = %s, want exactly crash_1", res.History)
	}
}

func TestTimersFireReplaceAndCancel(t *testing.T) {
	s := New(Config{N: 1, Seed: 1})
	var fired []string
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) {
			ctx.SetTimer("a", 10)
			ctx.SetTimer("b", 5)
			ctx.SetTimer("c", 7)
			ctx.CancelTimer("c")
			ctx.SetTimer("a", 20) // replaces the 10-tick "a"
		},
		onTimer: func(ctx node.Context, name string) {
			fired = append(fired, name)
		},
	})
	res := s.Run()
	if want := []string{"b", "a"}; !reflect.DeepEqual(fired, want) {
		t.Errorf("timers fired %v, want %v", fired, want)
	}
	if res.EndTime != 20 {
		t.Errorf("EndTime = %d, want 20 (replaced timer)", res.EndTime)
	}
}

// TestStaleTimerNeverFires: an occurrence that was cancelled or replaced
// stays dead however the name is used afterwards. Firing a timer used to
// forget its generation, so the next SetTimer of the name restarted at 1 and
// the cancelled 100-tick occurrence fired in place of the 500-tick one.
func TestStaleTimerNeverFires(t *testing.T) {
	s := New(Config{N: 1, Seed: 1})
	var fired []int64
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) {
			ctx.SetTimer("x", 100)
			ctx.CancelTimer("x")
			ctx.SetTimer("x", 1)
		},
		onTimer: func(ctx node.Context, name string) {
			fired = append(fired, ctx.Now())
			if ctx.Now() == 1 {
				ctx.SetTimer("x", 500)
			}
		},
	})
	s.Run()
	if want := []int64{1, 501}; !reflect.DeepEqual(fired, want) {
		t.Errorf("timer fired at %v, want %v", fired, want)
	}
}

// TestTimerSlotsTakenOver: a process that names every timer afresh keeps a
// table as long as the timers it has armed at once, and an occurrence whose
// slot has gone to another name fires neither.
func TestTimerSlotsTakenOver(t *testing.T) {
	s := New(Config{N: 1, Seed: 1})
	var fired []string
	slots := 0 // the table's length at the last timer: Run retires the table
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) {
			ctx.SetTimer("old", 500)
			ctx.CancelTimer("old") // its occurrence stays queued; by t=500 its slot is another timer's
			ctx.SetTimer("t0", 1)
		},
		onTimer: func(ctx node.Context, name string) {
			fired = append(fired, name)
			if n := len(fired); n < 1000 {
				ctx.SetTimer(fmt.Sprintf("t%d", n), 1)
				ctx.SetTimer("keep", 5000) // re-armed throughout: holds the other slot
			}
			slots = len(ctx.(*procCtx).timers)
		},
	})
	res := s.Run()
	if len(fired) != 1001 || fired[999] != "t999" || fired[1000] != "keep" {
		t.Errorf("fired %d timers ending %v, want t0..t999 then keep", len(fired), fired[max(0, len(fired)-2):])
	}
	if res.EndTime != 999+5000 {
		t.Errorf("EndTime = %d, want %d", res.EndTime, 999+5000)
	}
	if slots != 2 {
		t.Errorf("timer table ended at %d slots for 2 timers armed at once", slots)
	}
}

// TestPastOccurrenceFiresThisTickInOrder: a timer set with a negative delay,
// or an injection scheduled for a tick already passed, is due in the current
// tick and waits its turn behind what that tick already holds — what
// time.AfterFunc does with a negative duration on the live runtime.
func TestPastOccurrenceFiresThisTickInOrder(t *testing.T) {
	s := newSim(t, 2, 1)
	var got []string
	log := func(ctx node.Context, what string) {
		got = append(got, fmt.Sprintf("%d:%s@%d", ctx.Self(), what, ctx.Now()))
	}
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.SetTimer("go", 5) },
		onTimer: func(ctx node.Context, name string) {
			log(ctx, name)
			if name == "go" {
				ctx.SetTimer("past", -3)
				s.At(2, 2, func(ctx node.Context) { log(ctx, "inject") })
				ctx.SetTimer("now", 0)
			}
		},
	})
	s.SetHandler(2, &scriptHandler{
		init:    func(ctx node.Context) { ctx.SetTimer("queued", 5) },
		onTimer: func(ctx node.Context, name string) { log(ctx, name) },
	})
	s.Run()
	want := []string{"1:go@5", "2:queued@5", "1:past@5", "2:inject@5", "1:now@5"}
	if !slices.Equal(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}

// TestTimerDelayBounded: a timer's delay is bounded like a message's. One at
// the bound fires 2⁴⁰ ticks on; one past it panics at the call, naming the
// bound — SetTimer("far", math.MaxInt64) used to wrap now+delay negative, which
// reads as already due, and fire at once.
func TestTimerDelayBounded(t *testing.T) {
	s := New(Config{N: 1, Seed: 1})
	var fired []string
	var refused []any
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.SetTimer("go", 5) },
		onTimer: func(ctx node.Context, name string) {
			fired = append(fired, fmt.Sprintf("%s@%d", name, ctx.Now()))
			if name != "go" {
				return
			}
			for _, delay := range []int64{math.MaxInt64, host.MaxDelay + 1} {
				func() {
					defer func() { refused = append(refused, recover()) }()
					ctx.SetTimer("far", delay)
				}()
			}
			ctx.SetTimer("edge", host.MaxDelay)
		},
	})
	res := s.Run()
	if want := []string{"go@5", fmt.Sprintf("edge@%d", 5+host.MaxDelay)}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	want := []any{
		"sim: SetTimer delay 9223372036854775807 exceeds 1099511627776 ticks (2^40: the clock must not overflow)",
		"sim: SetTimer delay 1099511627777 exceeds 1099511627776 ticks (2^40: the clock must not overflow)",
	}
	if !reflect.DeepEqual(refused, want) {
		t.Errorf("refused delays panicked with %q, want %q", refused, want)
	}
	if res.Stop != StopDrained || res.EndTime != 5+host.MaxDelay {
		t.Errorf("stop %v at %d, want drained at %d", res.Stop, res.EndTime, 5+host.MaxDelay)
	}
}

// TestDelayFnBounded: a Config.Delay result is bounded like a timer's delay.
// One at the bound delivers 2⁴⁰ ticks on; one past it panics at the send,
// naming the bound — a DelayFn returning math.MaxInt64 used to wrap the ready
// time negative, and the message was reported parked.
func TestDelayFnBounded(t *testing.T) {
	run := func(delay int64) (res *Result, refused any) {
		defer func() { refused = recover() }()
		s := New(Config{N: 2, Seed: 1, Delay: func(model.ProcID, model.ProcID, node.Payload, int64) int64 { return delay }})
		s.SetHandler(1, sender(2, "far"))
		s.SetHandler(2, idle())
		return s.Run(), nil
	}
	for _, delay := range []int64{math.MaxInt64, host.MaxDelay + 1} {
		want := fmt.Sprintf("sim: Config.Delay returned %d ticks for a message from 1 to 2, above 1099511627776 (2^40: the clock must not overflow)", delay)
		if _, refused := run(delay); refused != want {
			t.Errorf("delay %d: panicked with %q, want %q", delay, refused, want)
		}
	}
	res, refused := run(host.MaxDelay)
	if refused != nil || res.Delivered != 1 || res.Blocked != nil || res.EndTime != host.MaxDelay {
		t.Errorf("delay at the bound: panic %v, delivered %d, blocked %v, end %d; want one delivery at %d", refused, res.Delivered, res.Blocked, res.EndTime, int64(host.MaxDelay))
	}
}

// TestMessageIDsFitTheSlot: the last id a model.MsgID can hold is sent and
// delivered under its own number; the send after it panics instead of
// wrapping onto a negative id.
func TestMessageIDsFitTheSlot(t *testing.T) {
	s := newSim(t, 2, 1)
	s.core.LastID = math.MaxInt32 - 1 // a message's id is its send's ordinal
	var second any
	s.SetHandler(1, &scriptHandler{init: func(ctx node.Context) {
		ctx.Send(2, node.Payload{Tag: "last"})
		defer func() { second = recover() }()
		ctx.Send(2, node.Payload{Tag: "one too many"})
	}})
	s.SetHandler(2, idle())
	res := s.Run()
	if len(res.History) != 2 || res.History[1].Kind != model.KindRecv || res.History[1].Msg != math.MaxInt32 {
		t.Errorf("history = %+v, want the send and the receive of message %d", res.History, math.MaxInt32)
	}
	if msg, _ := second.(string); !strings.Contains(msg, "more messages") {
		t.Errorf("the send past the last id panicked with %v, want the slot-id guard", second)
	}
}

func TestInjectionSkippedAfterCrash(t *testing.T) {
	s := newSim(t, 2, 1)
	ran := false
	s.CrashAt(5, 1)
	s.At(10, 1, func(ctx node.Context) { ran = true })
	s.Run()
	if ran {
		t.Error("injection ran on crashed process")
	}
}

func TestParkedMessageBlocksChannel(t *testing.T) {
	parkAll := func(from, to model.ProcID, p node.Payload, at int64) int64 { return -1 }
	s := New(Config{N: 2, Seed: 1, Delay: parkAll})
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) {
			ctx.Send(2, node.Payload{Tag: "X"})
			ctx.Send(2, node.Payload{Tag: "Y"})
		},
	})
	s.SetHandler(2, idle())
	res := s.Run()
	if res.Delivered != 0 {
		t.Errorf("Delivered = %d, want 0", res.Delivered)
	}
	if len(res.Blocked) != 1 {
		t.Fatalf("Blocked = %+v, want one entry", res.Blocked)
	}
	b := res.Blocked[0]
	if b.Reason != "parked" || b.Queued != 2 || b.From != 1 || b.To != 2 {
		t.Errorf("Blocked[0] = %+v", b)
	}
	if res.Quiescent() {
		t.Error("parked channels must not count as quiescent")
	}
}

// gatedHandler refuses APP messages until open is set.
type gatedHandler struct {
	open bool
	got  []string
}

func (h *gatedHandler) Init(node.Context) {}
func (h *gatedHandler) OnMessage(_ node.Context, _ model.ProcID, p node.Payload) {
	if p.Tag == "OPEN" {
		h.open = true
	}
	h.got = append(h.got, p.Tag)
}
func (h *gatedHandler) OnTimer(node.Context, string) {}
func (h *gatedHandler) Accepts(_ model.ProcID, p node.Payload) bool {
	return h.open || p.Tag != "APP"
}

func TestGateDefersReceiveUntilStateChanges(t *testing.T) {
	s := New(Config{N: 3, Seed: 1, MinDelay: 1, MaxDelay: 1})
	g := &gatedHandler{}
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.Send(3, node.Payload{Tag: "APP"}) },
	})
	// Process 2 opens the gate later; the gated APP must then be delivered.
	s.SetHandler(2, &scriptHandler{
		init: func(ctx node.Context) { ctx.SetTimer("later", 50) },
		onTimer: func(ctx node.Context, _ string) {
			ctx.Send(3, node.Payload{Tag: "OPEN"})
		},
	})
	s.SetHandler(3, g)
	res := s.Run()
	if want := []string{"OPEN", "APP"}; !reflect.DeepEqual(g.got, want) {
		t.Fatalf("delivery order %v, want %v", g.got, want)
	}
	if !res.Quiescent() {
		t.Errorf("expected quiescent run, blocked: %+v", res.Blocked)
	}
	// The receive event of APP must come after the receive of OPEN in the
	// recorded history, even though APP was sent first.
	appIdx, openIdx := -1, -1
	for i, e := range res.History {
		if e.Kind == model.KindRecv && e.Tag == "APP" {
			appIdx = i
		}
		if e.Kind == model.KindRecv && e.Tag == "OPEN" {
			openIdx = i
		}
	}
	if appIdx < openIdx {
		t.Error("gated APP receive must be recorded after the gate opened")
	}
}

// TestInFlightAtHorizonNotBlocked: a head still on its way when the run
// stops at MaxTime is reported in flight, and does not count as a message
// stuck to a live process.
func TestInFlightAtHorizonNotBlocked(t *testing.T) {
	s := New(Config{N: 2, Seed: 1, MinDelay: 50, MaxDelay: 50, MaxTime: 10})
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "X"}) },
	})
	s.SetHandler(2, idle())
	res := s.Run()
	want := []BlockedChannel{{From: 1, To: 2, Queued: 1, Reason: ReasonInFlight}}
	if !res.HitHorizon() || !reflect.DeepEqual(res.Blocked, want) {
		t.Errorf("stop %v, Blocked = %+v; want the horizon and %+v", res.Stop, res.Blocked, want)
	}
	if res.BlockedLive() {
		t.Error("a message in flight at the horizon counts as blocked")
	}
}

func TestGateBlockedForeverReported(t *testing.T) {
	s := New(Config{N: 2, Seed: 1})
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "APP"}) },
	})
	s.SetHandler(2, &gatedHandler{}) // never opened
	res := s.Run()
	if res.Quiescent() {
		t.Error("run with gated leftovers must not be quiescent")
	}
	if len(res.Blocked) != 1 || res.Blocked[0].Reason != "gated" {
		t.Errorf("Blocked = %+v", res.Blocked)
	}
}

func TestMaxTimeHorizon(t *testing.T) {
	s := New(Config{N: 1, Seed: 1, MaxTime: 100})
	ticks := 0
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.SetTimer("t", 10) },
		onTimer: func(ctx node.Context, _ string) {
			ticks++
			ctx.SetTimer("t", 10) // re-arm forever
		},
	})
	res := s.Run()
	if !res.HitHorizon() {
		t.Error("expected horizon hit")
	}
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
	if res.Quiescent() {
		t.Error("horizon-terminated run is not quiescent")
	}
}

func TestMaxEventsCap(t *testing.T) {
	s := New(Config{N: 2, Seed: 1, MaxEvents: 50})
	// Infinite ping-pong.
	bounce := func(ctx node.Context, from model.ProcID, p node.Payload) {
		ctx.Send(from, p)
	}
	s.SetHandler(1, &scriptHandler{
		init:  func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "B"}) },
		onMsg: bounce,
	})
	s.SetHandler(2, &scriptHandler{onMsg: bounce})
	res := s.Run()
	if !res.HitHorizon() {
		t.Error("expected MaxEvents horizon")
	}
	if len(res.History) > 51 {
		t.Errorf("history len %d exceeds cap", len(res.History))
	}
}

// TestMaxEventsCheckedBetweenOccurrences pins what MaxEvents is: a check
// before each occurrence, not a cap on the history. One Init that sends 100
// messages records all 100 under MaxEvents 10, and the run stops before the
// first delivery.
func TestMaxEventsCheckedBetweenOccurrences(t *testing.T) {
	s := New(Config{N: 2, Seed: 1, MaxEvents: 10})
	s.SetHandler(1, &scriptHandler{init: func(ctx node.Context) {
		for i := 0; i < 100; i++ {
			ctx.Send(2, node.Payload{Tag: "M"})
		}
	}})
	s.SetHandler(2, idle())
	res := s.Run()
	if res.Stop != StopMaxEvents || len(res.History) != 100 || res.Delivered != 0 {
		t.Errorf("stop %v with %d events and %d deliveries, want max-events with the 100 sends and none", res.Stop, len(res.History), res.Delivered)
	}
}

func TestEmitFailedSingleShotAndRecorded(t *testing.T) {
	s := newSim(t, 3, 1)
	s.At(1, 1, func(ctx node.Context) {
		ctx.EmitFailed(2)
		ctx.EmitFailed(2) // duplicate ignored
		ctx.EmitFailed(3)
		ctx.EmitInternal("note", 2)
	})
	res := s.Run()
	if err := res.History.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if got := len(res.History.Detections()); got != 2 {
		t.Errorf("detections = %d, want 2", got)
	}
}

func TestHistoryTimesMonotone(t *testing.T) {
	s := New(Config{N: 3, Seed: 7, MinDelay: 1, MaxDelay: 30})
	for p := 1; p <= 3; p++ {
		p := model.ProcID(p)
		s.SetHandler(p, &scriptHandler{
			init: func(ctx node.Context) {
				for q := model.ProcID(1); q <= 3; q++ {
					if q != p {
						ctx.Send(q, node.Payload{Tag: "X"})
						ctx.Send(q, node.Payload{Tag: "Y"})
					}
				}
			},
		})
	}
	res := s.Run()
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Time < res.History[i-1].Time {
			t.Fatalf("history times not monotone at %d", i)
		}
	}
}

func TestSendToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self-send")
		}
	}()
	s := newSim(t, 2, 1)
	s.At(1, 1, func(ctx node.Context) { ctx.Send(1, node.Payload{Tag: "X"}) })
	s.Run()
}

// TestBadCallsPanicAtTheCall: an injection or a handler for a process nobody
// is, and a negative delay bound, panic where they are written — At(t, 9, …)
// used to die with an index out of range deep inside Run, CrashAt(t, 0)
// recorded a crash_0 no checker accepts, SetHandler(0, …) was silently
// accepted and SetHandler(3, …) died with an index out of range, and a
// negative bound parked every message of the run.
func TestBadCallsPanicAtTheCall(t *testing.T) {
	for _, tc := range []struct {
		want string
		call func()
	}{
		{"sim: At for invalid process 0 (have 1..2)", func() { newSim(t, 2, 1).At(5, 0, func(node.Context) {}) }},
		{"sim: At for invalid process 3 (have 1..2)", func() { newSim(t, 2, 1).At(5, 3, func(node.Context) {}) }},
		{"sim: At for invalid process -1 (have 1..2)", func() { newSim(t, 2, 1).CrashAt(5, -1) }},
		{"sim: SetHandler for invalid process 0 (have 1..2)", func() { newSim(t, 2, 1).SetHandler(0, idle()) }},
		{"sim: SetHandler for invalid process 3 (have 1..2)", func() { newSim(t, 2, 1).SetHandler(3, idle()) }},
		{"sim: Config.MinDelay = -5, MaxDelay = -1: a delay bound cannot be negative (no message arrives before it is sent)",
			func() { New(Config{N: 2, MinDelay: -5, MaxDelay: -1}) }},
		{"sim: Config.MinDelay = 0, MaxDelay = -1: a delay bound cannot be negative (no message arrives before it is sent)",
			func() { New(Config{N: 2, MaxDelay: -1}) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("recovered %v, want %q", r, tc.want)
				}
			}()
			tc.call()
		}()
	}
}

func TestRunTwicePanics(t *testing.T) {
	s := newSim(t, 1, 1)
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on second Run")
		}
	}()
	s.Run()
}

type crashWitness struct {
	scriptHandler
	sawCrash bool
}

func (c *crashWitness) OnCrash(node.Context) { c.sawCrash = true }

func TestCrashListenerInvoked(t *testing.T) {
	s := New(Config{N: 1, Seed: 1})
	w := &crashWitness{}
	s.SetHandler(1, w)
	s.CrashAt(3, 1)
	s.Run()
	if !w.sawCrash {
		t.Error("OnCrash not invoked")
	}
}

// Property: random mesh traffic always yields valid histories.
func TestRandomTrafficYieldsValidHistories(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n := 3 + int(seed%4)
		s := New(Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 25})
		for p := 1; p <= n; p++ {
			p := model.ProcID(p)
			s.SetHandler(p, &scriptHandler{
				init: func(ctx node.Context) {
					for q := model.ProcID(1); int(q) <= n; q++ {
						if q != p {
							ctx.Send(q, node.Payload{Tag: "M", Subject: p})
						}
					}
				},
				onMsg: func(ctx node.Context, from model.ProcID, pl node.Payload) {
					if pl.Subject == ctx.Self() {
						return
					}
					if from > ctx.Self() {
						ctx.Send(from, node.Payload{Tag: "R", Subject: ctx.Self()})
					}
				},
			})
		}
		if n > 2 {
			s.CrashAt(int64(seed%13)+1, model.ProcID(n))
		}
		res := s.Run()
		if err := res.History.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, res.History)
		}
	}
}

// pingForever builds a two-process simulation that bounces a message back
// and forth without ever quiescing — the workload for the horizon tests.
func pingForever(cfg Config) *Sim {
	cfg.N = 2
	s := New(cfg)
	bounce := func(ctx node.Context, from model.ProcID, p node.Payload) {
		ctx.Send(from, p)
	}
	s.SetHandler(1, &scriptHandler{
		init:  func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "PING"}) },
		onMsg: bounce,
	})
	s.SetHandler(2, &scriptHandler{onMsg: bounce})
	return s
}

func TestStopReasonDrained(t *testing.T) {
	s := New(Config{N: 2, Seed: 1})
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "M"}) },
	})
	s.SetHandler(2, idle())
	res := s.Run()
	if res.Stop != StopDrained {
		t.Errorf("Stop = %v, want %v", res.Stop, StopDrained)
	}
	if res.HitHorizon() {
		t.Error("HitHorizon = true on a drained run")
	}
	if !res.Quiescent() {
		t.Errorf("run not quiescent: %+v", res.Blocked)
	}
}

func TestStopReasonMaxTime(t *testing.T) {
	res := pingForever(Config{Seed: 1, MaxTime: 200}).Run()
	if res.Stop != StopMaxTime {
		t.Errorf("Stop = %v, want %v", res.Stop, StopMaxTime)
	}
	if !res.HitHorizon() {
		t.Error("HitHorizon = false after a max-time stop")
	}
	if res.Quiescent() {
		t.Error("Quiescent() = true after a max-time stop")
	}
	if res.EndTime > 200 {
		t.Errorf("EndTime = %d, beyond MaxTime", res.EndTime)
	}
}

func TestStopReasonMaxEvents(t *testing.T) {
	res := pingForever(Config{Seed: 1, MaxEvents: 64}).Run()
	if res.Stop != StopMaxEvents {
		t.Errorf("Stop = %v, want %v", res.Stop, StopMaxEvents)
	}
	if !res.HitHorizon() {
		t.Error("HitHorizon = false after a max-events stop")
	}
	if res.Quiescent() {
		t.Error("Quiescent() = true after a max-events stop")
	}
	// The cap is checked between occurrences, so the final occurrence may
	// record a couple of events past it — but no further occurrence runs.
	if len(res.History) < 64 || len(res.History) > 66 {
		t.Errorf("history length = %d, want within one occurrence of MaxEvents (64)", len(res.History))
	}
}

func TestStopReasonStrings(t *testing.T) {
	for want, r := range map[string]StopReason{
		"drained": StopDrained, "max-time": StopMaxTime, "max-events": StopMaxEvents,
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
		text, err := r.MarshalText()
		if err != nil || string(text) != want {
			t.Errorf("%d.MarshalText() = %q, %v; want %q", int(r), text, err, want)
		}
		var back StopReason = -1
		if err := back.UnmarshalText(text); err != nil || back != r {
			t.Errorf("UnmarshalText(%q) = %d, %v; want %d", text, int(back), err, int(r))
		}
	}
	unknown := StopMaxEvents + 1
	if got, want := unknown.String(), fmt.Sprintf("StopReason(%d)", int(unknown)); got != want {
		t.Errorf("unknown.String() = %q, want %q", got, want)
	}
	if text, err := unknown.MarshalText(); err == nil {
		t.Errorf("MarshalText of unknown reason %d = %q, want an error", int(unknown), text)
	}
	var r StopReason
	if err := r.UnmarshalText([]byte(unknown.String())); err == nil {
		t.Errorf("UnmarshalText(%q) = %d, want an error", unknown.String(), int(r))
	}
}
