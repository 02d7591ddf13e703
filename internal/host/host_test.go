package host_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// layer is a handler wearing the interposers' structural contract.
type layer struct {
	node.Handler
	inner         node.Handler
	reliable, byz [2]int
}

func (l *layer) Inner() node.Handler { return l.inner }

type relLayer struct{ *layer }

func (r relLayer) ReliableStats() (int, int) { return r.reliable[0], r.reliable[1] }

type byzLayer struct{ *layer }

func (b byzLayer) ByzStats() (int, int) { return b.byz[0], b.byz[1] }

// TestLayerStats: ReliableStats counts on the outermost handler only, ByzStats
// anywhere down the Inner() chain, and nil handlers are skipped.
func TestLayerStats(t *testing.T) {
	bz := byzLayer{&layer{byz: [2]int{2, 7}}}
	outer := relLayer{&layer{inner: bz, reliable: [2]int{5, 1}}}
	buried := &layer{inner: relLayer{&layer{reliable: [2]int{100, 100}}}}
	got := host.LayerStats([]node.Handler{nil, outer, bz, buried})
	want := host.Layers{Reliable: true, Byz: true, Retransmits: 5, AckedDuplicates: 1, ByzDetected: 4, ByzMasked: 14}
	if got != want {
		t.Errorf("LayerStats = %+v, want %+v", got, want)
	}
	if got := host.LayerStats([]node.Handler{nil, &layer{}}); got != (host.Layers{}) {
		t.Errorf("LayerStats of bare handlers = %+v, want zero", got)
	}
}

// TestSnapshotNames: the snapshot is name-sorted under the host's prefix,
// grows the process-fault counters only with lifetimes and a layer's only
// when the layer is there, and the registry sees the same names.
func TestSnapshotNames(t *testing.T) {
	names := func(ms obs.Metrics) (out []string) {
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	plain := host.Core{Names: host.MetricNames("x_")}
	reg := obs.NewRegistry()
	plain.Init("test", 2, reg)
	tally := host.Tally{host.Sent: 3}
	plain.Publish(&tally)
	if tally != (host.Tally{}) {
		t.Errorf("Publish left %+v in the tally, want it zeroed", tally)
	}
	want := []string{"x_delivered_total", "x_dropped_total", "x_duplicated_total", "x_sent_total", "x_timers_fired_total"}
	if got := names(plain.Snapshot(nil, host.Layers{})); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot names = %v, want %v", got, want)
	}
	if got := names(reg.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Errorf("registry names = %v, want %v", got, want)
	}
	if got := reg.Snapshot().Value("x_sent_total"); got != 3 {
		t.Errorf("registered x_sent_total = %d, want 3", got)
	}

	full := host.Core{Names: host.MetricNames("x_"), Lifetimes: []recovery.Lifetime{{Proc: 1, Crash: 5}}}
	full.Init("test", 2, nil)
	got := full.Snapshot(nil, host.Layers{Reliable: true, Byz: true, Retransmits: 9},
		obs.Metric{Name: "x_links_live", Kind: obs.KindGauge, Value: 4})
	want = []string{"byz_detected_total", "byz_masked_total", "reliable_acked_duplicates_total",
		"reliable_retransmits_total", "x_delivered_total", "x_dropped_total", "x_duplicated_total", "x_links_live",
		"x_plan_crashes_total", "x_recovered_total", "x_restarts_total", "x_sent_total", "x_timers_fired_total"}
	if !reflect.DeepEqual(names(got), want) {
		t.Errorf("snapshot names = %v, want %v", names(got), want)
	}
	if got.Value("reliable_retransmits_total") != 9 || got.Value("x_links_live") != 4 {
		t.Errorf("snapshot values wrong: %v", got)
	}
}

// TestInitRejectsStrayLifetime: a lifetime naming a process outside 1..n is
// a programming error, reported under the host's name.
func TestInitRejectsStrayLifetime(t *testing.T) {
	defer func() {
		if got, want := fmt.Sprint(recover()), "test: lifetime 0 names process 3 of 2"; got != want {
			t.Errorf("panic = %q, want %q", got, want)
		}
	}()
	c := host.Core{Names: host.MetricNames("x_"), Lifetimes: []recovery.Lifetime{{Proc: 3, Crash: 1}}}
	c.Init("test", 2, nil)
}

// TestInitBoundsLifetimeTicks: each tick of a lifetime that is negative or
// above MaxDelay is refused naming its field, and one at either bound is
// accepted. A negative Crash used to turn a terminal crash into a restart at
// tick 0, and a Period above the bound to spin a host.
func TestInitBoundsLifetimeTicks(t *testing.T) {
	const top = host.MaxDelay
	for _, tc := range []struct {
		field string
		lt    recovery.Lifetime
	}{
		{"Crash", recovery.Lifetime{Proc: 1, Crash: top + 1}},
		{"Crash", recovery.Lifetime{Proc: 1, Crash: -5}},
		{"Restart", recovery.Lifetime{Proc: 1, Crash: 5, Restart: -3}},
		{"Restart", recovery.Lifetime{Proc: 1, Crash: 1, Restart: top + 1}},
		{"Period", recovery.Lifetime{Proc: 1, Crash: 5, Restart: 1005, Period: math.MaxInt64 - 1}},
		{"Until", recovery.Lifetime{Proc: 1, Crash: 5, Restart: 6, Period: 10, Until: math.MaxInt64}},
	} {
		c := host.Core{Names: host.MetricNames("x_"), Lifetimes: []recovery.Lifetime{tc.lt}}
		if got := panicOf(func() { c.Init("test", 2, nil) }); !strings.HasPrefix(got, "test: lifetime 0: ") || !strings.Contains(got, " "+tc.field+" ") {
			t.Errorf("Init(%+v) panicked with %q, want %s named", tc.lt, got, tc.field)
		}
	}
	c := host.Core{Names: host.MetricNames("x_"), Lifetimes: []recovery.Lifetime{{Proc: 1}, {Proc: 2, Crash: top - 2, Restart: top - 1, Period: top, Until: top}}}
	if got := panicOf(func() { c.Init("test", 2, nil) }); got != "" {
		t.Errorf("Init at the bound panicked: %s", got)
	}
}

// restarter logs the lifetime callbacks it receives.
type restarter struct {
	layer
	log *[]string
}

func (r *restarter) Init(node.Context)    { *r.log = append(*r.log, "init") }
func (r *restarter) OnCrash(node.Context) { *r.log = append(*r.log, "oncrash") }
func (r *restarter) Snapshot() []byte     { *r.log = append(*r.log, "snapshot"); return []byte("state") }
func (r *restarter) OnRestart(_ node.Context, st []byte) {
	*r.log = append(*r.log, fmt.Sprintf("onrestart(%s)", st))
}

// TestCrashAndRestartSteps pins the order of the lifetime steps — the next
// periodic window is scheduled before the restart (the simulator's tie-break
// depends on it), the snapshot is taken before OnCrash — and what each
// recovery mode hands a restarted handler.
func TestCrashAndRestartSteps(t *testing.T) {
	for _, tc := range []struct {
		mode recovery.Mode
		want []string
	}{
		{recovery.Off, []string{"crash@1", "oncrash"}},
		{recovery.Amnesia, []string{"window@130", "restart@42", "crash@1", "oncrash",
			"restart@1", "onrestart()", "span:recovery=amnesia"}},
		{recovery.Durable, []string{"window@130", "snapshot", "restart@42", "crash@1", "oncrash",
			"restart@1", "onrestart(state)", "span:recovery=durable snapshot=5B"}},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			var log []string
			c := host.Core{
				Names: host.MetricNames("x_"), Spans: obs.NewSpanRecorder(1, 0), Recovery: tc.mode,
				Lifetimes: []recovery.Lifetime{{Proc: 1, Crash: 30, Restart: 40, Period: 100, Until: 500}},
			}
			c.Init("test", 2, nil)
			h := &restarter{log: &log}
			var tally host.Tally
			record := func(e model.Event) {
				kind := "crash"
				if e.Kind != model.KindCrash {
					kind = "restart"
				}
				log = append(log, fmt.Sprintf("%s@%d", kind, e.Proc))
			}
			// The window due at 30 executes late, at 32.
			c.Crash(&tally, 0, 30, 32, h, nil, func(at int64, restart bool) {
				kind := "window"
				if restart {
					kind = "restart"
				}
				log = append(log, fmt.Sprintf("%s@%d", kind, at))
			}, record)
			if tc.mode != recovery.Off {
				c.Restart(&tally, 1, 42, h, nil, record)
				for _, s := range c.Spans.Spans() {
					log = append(log, "span:"+s.Note)
				}
			}
			if !reflect.DeepEqual(log, tc.want) {
				t.Errorf("steps = %v\n want %v", log, tc.want)
			}
			c.Publish(&tally)
			wantRecovered := int64(0)
			if tc.mode == recovery.Durable {
				wantRecovered = 1
			}
			if c.Counters[host.PlanCrashes].Value() != 1 || c.Counters[host.Recovered].Value() != wantRecovered {
				t.Errorf("plan crashes = %d, recovered = %d, want 1, %d", c.Counters[host.PlanCrashes].Value(), c.Counters[host.Recovered].Value(), wantRecovered)
			}
		})
	}
}

// panicOf runs f and returns what it panicked with, as text ("" if nothing).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestChecksPanicUnderTheHostName: the size, process-id and send checks
// panic under the name Init was given, and numbering runs to the last id a
// model.MsgID can hold and refuses the send after it, counting only the sends
// it numbered.
func TestChecksPanicUnderTheHostName(t *testing.T) {
	for _, n := range []int{0, -1, model.MaxProcs + 1} {
		c := host.Core{Names: host.MetricNames("x_")}
		if got, want := panicOf(func() { c.Init("test", n, nil) }), "test: Config.N must be in 1..model.MaxProcs"; got != want {
			t.Errorf("Init(n = %d) panicked with %q, want %q", n, got, want)
		}
	}
	c := host.Core{Names: host.MetricNames("x_")}
	c.Init("test", 3, nil)
	for _, tc := range []struct {
		call func()
		want string
	}{
		{func() { c.CheckProc("At", 0) }, "test: At for invalid process 0 (have 1..3)"},
		{func() { c.CheckProc("Do", 4) }, "test: Do for invalid process 4 (have 1..3)"},
		{func() { c.CheckProc("Do", 3) }, ""},
		{func() { c.CheckSend(2, 2) }, "test: send to self not supported (count self-quorum locally)"},
		{func() { c.CheckSend(2, 0) }, "test: send to invalid process 0"},
		{func() { c.CheckSend(2, 4) }, "test: send to invalid process 4"},
		{func() { c.CheckSend(2, 3) }, ""},
	} {
		if got := panicOf(tc.call); got != tc.want {
			t.Errorf("panicked with %q, want %q", got, tc.want)
		}
	}
	if c.LastID != 0 {
		t.Errorf("the checks numbered %d sends", c.LastID)
	}
	var tally host.Tally
	if id := c.Number(&tally); id != 1 {
		t.Errorf("first id = %d, want 1", id)
	}
	c.LastID = math.MaxInt32 - 1
	if id := c.Number(&tally); id != math.MaxInt32 {
		t.Errorf("last id = %d, want %d", id, math.MaxInt32)
	}
	if id := c.Number(&tally); id != 0 {
		t.Errorf("the send past the last id was numbered %d, want 0", id)
	}
	if c.LastID != math.MaxInt32 || tally[host.Sent] != 2 {
		t.Errorf("after the refused send: last id %d, %d sends counted; want %d, 2", c.LastID, tally[host.Sent], math.MaxInt32)
	}
	if got, want := panicOf(c.OutOfIDs), "test: more messages than a model.MsgID can number"; got != want {
		t.Errorf("the send past the last id panicked with %q, want %q", got, want)
	}
}

// TestRouteCarriesNoPayload: a copy names the payload it carries and never
// holds one — Wire is nil for the sent payload (plain, duplicated, reordered,
// parked or delayed copies) and points at the decision's own Replace or Replay
// payload otherwise, so the host writes each payload once, where it is
// delivered from.
func TestRouteCarriesNoPayload(t *testing.T) {
	replace := &node.Replacement{Payload: node.Payload{Tag: "LIE", Subject: 3}, Note: "corrupt"}
	replay := &node.ReplayedCopy{Payload: node.Payload{Tag: "OLD", Subject: 1}, Delay: 5}
	for _, tc := range []struct {
		name  string
		dec   node.LinkDecision
		wires []*node.Payload // per copy, in Route's order
	}{
		{"plain", node.LinkDecision{}, []*node.Payload{nil}},
		{"duplicated", node.LinkDecision{Duplicates: 2}, []*node.Payload{nil, nil, nil}},
		{"reordered", node.LinkDecision{Reorder: true, ExtraDelay: 4}, []*node.Payload{nil}},
		{"parked", node.LinkDecision{Park: true}, []*node.Payload{nil}},
		{"dropped", node.LinkDecision{Drop: true, Replace: replace, Replay: replay}, nil},
		{"replaced", node.LinkDecision{Replace: replace, Duplicates: 1}, []*node.Payload{&replace.Payload, &replace.Payload}},
		{"replayed", node.LinkDecision{Replay: replay}, []*node.Payload{nil, &replay.Payload}},
		{"both", node.LinkDecision{Replace: replace, Replay: replay}, []*node.Payload{&replace.Payload, &replay.Payload}},
	} {
		c := host.Core{Names: host.MetricNames("x_"), Link: func(model.ProcID, model.ProcID, node.Payload, int64) node.LinkDecision {
			return tc.dec
		}}
		c.Init("test", 2, nil)
		var tally host.Tally
		copies := c.Route(&tally, 3, 0, 1, 2, c.Number(&tally), node.Payload{Tag: "M", Subject: 2}, nil)
		if len(copies) != len(tc.wires) {
			t.Errorf("%s: %d copies, want %d", tc.name, len(copies), len(tc.wires))
			continue
		}
		for i, cp := range copies {
			if cp.Wire != tc.wires[i] {
				t.Errorf("%s: copy %d carries %p, want %p", tc.name, i, cp.Wire, tc.wires[i])
			}
		}
	}
}

// TestReceiveAndLose: a received head, whose event the host has recorded, is
// counted, and a sampled one records its deliver span under its enqueue span
// and returns it to frame OnMessage; a head lost at a down receiver records
// only a sampled message's drop span. An unsampled message records no span
// either way.
func TestReceiveAndLose(t *testing.T) {
	c := host.Core{Names: host.MetricNames("x_"), Spans: obs.NewSpanRecorder(1, 1)}
	c.Init("test", 2, nil)
	p := node.Payload{Tag: "M", Subject: 2}
	var tally host.Tally
	enq := c.Route(&tally, 3, 0, 1, 2, c.Number(&tally), p, nil)[0].Span
	if enq == 0 {
		t.Fatal("a sampled send returned no enqueue span")
	}

	if span := c.Receive(&tally, 7, 1, 2, 1, &p, enq); span == 0 || c.Spans.Spans()[span-1] != (obs.Span{
		ID: span, Parent: enq, Time: 7, Kind: obs.SpanDeliver, Proc: 2, Peer: 1, Msg: 1, Tag: "M",
	}) {
		t.Errorf("Receive returned span %d of %+v, want the deliver span under %d", span, c.Spans.Spans(), enq)
	}
	before := len(c.Spans.Spans())
	if span := c.Receive(&tally, 8, 1, 2, 9, &p, 0); span != 0 || len(c.Spans.Spans()) != before {
		t.Errorf("an unsampled receive returned span %d and recorded %d spans", span, len(c.Spans.Spans())-before)
	}
	c.Publish(&tally)
	if c.Counters[host.Delivered].Value() != 2 {
		t.Errorf("delivered %d, want 2", c.Counters[host.Delivered].Value())
	}

	c.Lose(9, 1, 2, 9, 0)
	if n := len(c.Spans.Spans()); n != before {
		t.Errorf("an unsampled loss recorded %d spans", n-before)
	}
	c.Lose(9, 1, 2, 1, enq)
	if spans := c.Spans.Spans(); len(spans) != before+1 || spans[before] != (obs.Span{
		ID: spans[before].ID, Parent: enq, Time: 9, Kind: obs.SpanDrop, Proc: 2, Peer: 1, Msg: 1, Note: "receiver down",
	}) {
		t.Errorf("a sampled loss recorded %+v, want one receiver-down drop under %d", spans[before:], enq)
	}
	c.Publish(&tally)
	if c.Counters[host.Delivered].Value() != 2 || c.Counters[host.Dropped].Value() != 0 {
		t.Errorf("a loss counted: delivered %d, dropped %d", c.Counters[host.Delivered].Value(), c.Counters[host.Dropped].Value())
	}
}

// TestCrashSelf: a crash_self records the crash and announces it, the last
// step of a plan crash, and counts no plan crash.
func TestCrashSelf(t *testing.T) {
	var log []string
	c := host.Core{Names: host.MetricNames("x_")}
	c.Init("test", 2, nil)
	c.CrashSelf(2, &restarter{log: &log}, nil, func(e model.Event) {
		log = append(log, fmt.Sprintf("%v@%d", e.Kind, e.Proc))
	})
	if want := []string{fmt.Sprintf("%v@2", model.KindCrash), "oncrash"}; !reflect.DeepEqual(log, want) || c.Counters[host.PlanCrashes].Value() != 0 {
		t.Errorf("steps = %v, plan crashes %d; want %v, 0", log, c.Counters[host.PlanCrashes].Value(), want)
	}
}

// TestSkipKeepsTheChain: a crash window that finds its process still down is
// lost on its own — a periodic lifetime's next window is still scheduled,
// within Until and unless recovery is off — and nothing is counted or
// recorded for it.
func TestSkipKeepsTheChain(t *testing.T) {
	storm := recovery.Lifetime{Proc: 1, Crash: 30, Restart: 40, Period: 100, Until: 500}
	for _, tc := range []struct {
		mode recovery.Mode
		l    recovery.Lifetime
		at   int64
		want []string
	}{
		{recovery.Amnesia, storm, 130, []string{"window@230"}},
		{recovery.Durable, storm, 130, []string{"window@230"}},
		{recovery.Amnesia, storm, 430, nil}, // 530 is past Until
		{recovery.Off, storm, 130, nil},
		{recovery.Amnesia, recovery.Lifetime{Proc: 1, Crash: 30, Restart: 40}, 30, nil},
	} {
		c := host.Core{Names: host.MetricNames("x_"), Recovery: tc.mode, Lifetimes: []recovery.Lifetime{tc.l}}
		c.Init("test", 2, nil)
		var log []string
		c.Skip(0, tc.at, func(at int64, restart bool) {
			log = append(log, fmt.Sprintf("window@%d", at))
			if restart {
				t.Errorf("%v at %d: Skip scheduled a restart", tc.mode, tc.at)
			}
		})
		if !reflect.DeepEqual(log, tc.want) {
			t.Errorf("%v %+v skipped at %d: scheduled %v, want %v", tc.mode, tc.l, tc.at, log, tc.want)
		}
		if c.Counters[host.PlanCrashes].Value() != 0 || c.Counters[host.Restarts].Value() != 0 {
			t.Errorf("%v: a skipped window counted %d crashes, %d restarts", tc.mode, c.Counters[host.PlanCrashes].Value(), c.Counters[host.Restarts].Value())
		}
	}
}
