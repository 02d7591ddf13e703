package reliable

import (
	"fmt"
	"testing"

	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/sim"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"enabled defaults", Options{Enabled: true}, true},
		{"negative interval", Options{RetryInterval: -1}, false},
		{"negative max retries", Options{MaxRetries: -1}, false},
		{"explicit sane", Options{Enabled: true, RetryInterval: 20, MaxRetries: 4}, true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.opts.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestWrapPanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Wrap accepted invalid options")
		}
	}()
	Wrap(&recorder{}, Options{RetryInterval: -1})
}

// recorder is an inner handler that records every release in order.
type recorder struct {
	released []node.Payload
	from     []model.ProcID
}

func (r *recorder) Init(node.Context) {}
func (r *recorder) OnMessage(_ node.Context, from model.ProcID, p node.Payload) {
	r.released = append(r.released, p)
	r.from = append(r.from, from)
}
func (r *recorder) OnTimer(node.Context, string) {}

// idle is an inner handler that does nothing: the test drives its endpoint
// through injected actions.
type idle struct{}

func (idle) Init(node.Context)                                  {}
func (idle) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (idle) OnTimer(node.Context, string)                       {}

// runLossyLink wires sender(1) -> receiver(2) endpoints over a sim whose
// network drops/duplicates/reorders per the given rules (none: a fault-free
// network), injects k sends, and returns the receiver's recorder plus the
// sim result.
func runLossyLink(t *testing.T, seed int64, k int, opts Options, rules ...netadv.Rule) (*recorder, *sim.Result) {
	t.Helper()
	plan := netadv.Plan{Name: "lossy", Rules: rules}
	if err := plan.Validate(2); err != nil {
		t.Fatal(err)
	}
	plane := netadv.NewPlane(plan, 2, seed)
	s := sim.New(sim.Config{N: 2, Seed: seed, MaxTime: 500000, Link: plane.Decide})
	sender := Wrap(idle{}, opts)
	rec := &recorder{}
	recv := Wrap(rec, opts)
	s.SetHandler(1, sender)
	s.SetHandler(2, recv)
	for i := 1; i <= k; i++ {
		payload := node.Payload{Tag: "APP", Data: []byte(fmt.Sprintf("m%03d", i))}
		s.At(int64(i*3), 1, func(ctx node.Context) {
			sender.Context(ctx).Send(2, payload)
		})
	}
	return rec, s.Run()
}

// TestFIFOReleaseUnderRandomFaults is the PR's property test: whatever the
// network does — drop, duplicate, reorder, jitter — the receiving endpoint
// releases exactly the sent payloads, each once, in send (FIFO) order.
func TestFIFOReleaseUnderRandomFaults(t *testing.T) {
	const k = 40
	rule := netadv.Rule{Drop: 0.3, Duplicate: 0.3, Reorder: 0.3, JitterMax: 15}
	sawRetransmit, sawDup := false, false
	for seed := int64(0); seed < 12; seed++ {
		rec, res := runLossyLink(t, seed, k, Options{Enabled: true, RetryInterval: 25}, rule)
		if res.Stop != sim.StopDrained {
			t.Fatalf("seed %d: run hit the horizon (%v); the stubborn link never converged", seed, res.Stop)
		}
		if len(rec.released) != k {
			t.Fatalf("seed %d: released %d payloads, want %d", seed, len(rec.released), k)
		}
		for i, p := range rec.released {
			want := fmt.Sprintf("m%03d", i+1)
			if string(p.Data) != want {
				t.Fatalf("seed %d: release %d = %q, want %q (FIFO violated)", seed, i, p.Data, want)
			}
			if p.Tag != "APP" {
				t.Fatalf("seed %d: release %d tag = %q, want APP", seed, i, p.Tag)
			}
		}
		if res.Retransmits > 0 {
			sawRetransmit = true
		}
		if res.AckedDuplicates > 0 {
			sawDup = true
		}
	}
	if !sawRetransmit {
		t.Error("0.3 drop over 12 seeds never forced a retransmission")
	}
	if !sawDup {
		t.Error("0.3 duplication over 12 seeds never produced a suppressed duplicate")
	}
}

// TestFaultFreeLinkNeverRetransmits: at drop=0 the layer is pure framing —
// no retransmissions, no suppressed duplicates, and identical releases.
func TestFaultFreeLinkNeverRetransmits(t *testing.T) {
	rec, res := runLossyLink(t, 1, 20, Options{Enabled: true})
	if res.Retransmits != 0 || res.AckedDuplicates != 0 {
		t.Errorf("fault-free link did work: retransmits=%d ackedDups=%d", res.Retransmits, res.AckedDuplicates)
	}
	if len(rec.released) != 20 {
		t.Errorf("released %d payloads, want 20", len(rec.released))
	}
	if res.Stop != sim.StopDrained {
		t.Errorf("fault-free run did not drain: %v", res.Stop)
	}
}

// TestMaxRetriesAbandonsIntoPermanentCut: a bounded stubborn link gives up
// after MaxRetries rounds, so the run quiesces instead of retransmitting
// into a permanent cut forever.
func TestMaxRetriesAbandonsIntoPermanentCut(t *testing.T) {
	cut := netadv.Rule{Cut: true, Links: netadv.LinkSet{Pairs: []netadv.Link{{From: 1, To: 2}}}}
	rec, res := runLossyLink(t, 1, 2, Options{Enabled: true, MaxRetries: 3}, cut)
	if res.Stop != sim.StopDrained {
		t.Fatalf("run did not drain: %v; MaxRetries must bound the stubbornness", res.Stop)
	}
	if len(rec.released) != 0 {
		t.Errorf("%d payloads crossed a permanent cut", len(rec.released))
	}
	// Both frames ride the same timer: each is retransmitted exactly
	// MaxRetries times, then abandoned.
	if res.Retransmits != 2*3 {
		t.Errorf("retransmits = %d, want 6 (2 frames x 3 retries)", res.Retransmits)
	}
}

// fakeCtx is a minimal host context for unit-level endpoint tests: process
// self of n (3 unless a test says otherwise), recording what is sent and
// which timers are set.
type fakeCtx struct {
	self  model.ProcID
	n     int
	sends []struct {
		to model.ProcID
		p  node.Payload
	}
	timers map[string]int64
	now    int64
}

func newFakeCtx(self model.ProcID) *fakeCtx {
	return &fakeCtx{self: self, n: 3, timers: map[string]int64{}}
}

func (c *fakeCtx) Self() model.ProcID { return c.self }
func (c *fakeCtx) N() int             { return c.n }
func (c *fakeCtx) Now() int64         { return c.now }
func (c *fakeCtx) Send(to model.ProcID, p node.Payload) {
	c.sends = append(c.sends, struct {
		to model.ProcID
		p  node.Payload
	}{to, p})
}
func (c *fakeCtx) SetTimer(name string, delay int64) { c.timers[name] = delay }
func (c *fakeCtx) CancelTimer(name string)           { delete(c.timers, name) }
func (c *fakeCtx) EmitFailed(model.ProcID)           {}
func (c *fakeCtx) CrashSelf()                        {}
func (c *fakeCtx) EmitInternal(string, model.ProcID) {}

// TestUnframedTrafficPassesThrough: a message from a sender running without
// the layer is handed to the inner handler unchanged and not acknowledged,
// so mixed deployments interoperate.
func TestUnframedTrafficPassesThrough(t *testing.T) {
	rec := &recorder{}
	e := Wrap(rec, Options{Enabled: true})
	ctx := newFakeCtx(2)
	raw := node.Payload{Tag: "APP", Data: []byte("bare")}
	e.OnMessage(ctx, 3, raw)
	if len(rec.released) != 1 || string(rec.released[0].Data) != "bare" {
		t.Fatalf("releases = %v, want the bare payload", rec.released)
	}
	if len(ctx.sends) != 0 {
		t.Errorf("endpoint acknowledged unframed traffic: %v", ctx.sends)
	}
	if r, d := e.ReliableStats(); r != 0 || d != 0 {
		t.Errorf("passthrough counted work: %d/%d", r, d)
	}
}

// TestDataFrameKeepsTagAndAck: wire frames preserve the payload's tag (so
// tag-targeted fault rules still match) and each release is answered with a
// cumulative TagAck frame.
func TestDataFrameKeepsTagAndAck(t *testing.T) {
	sender := Wrap(idle{}, Options{Enabled: true})
	sctx := newFakeCtx(1)
	sender.Context(sctx).Send(2, node.Payload{Tag: "SUSP", Subject: 3, Data: []byte("x")})
	if len(sctx.sends) != 1 {
		t.Fatalf("sends = %d, want 1", len(sctx.sends))
	}
	wire := sctx.sends[0].p
	if wire.Tag != "SUSP" || wire.Subject != 3 {
		t.Errorf("wire frame tag/subject = %q/%d, want SUSP/3", wire.Tag, wire.Subject)
	}
	if _, ok := sctx.timers[timerPrefix+"2"]; !ok {
		t.Error("send did not arm the link's retransmit timer")
	}

	rec := &recorder{}
	receiver := Wrap(rec, Options{Enabled: true})
	rctx := newFakeCtx(2)
	receiver.OnMessage(rctx, 1, wire)
	if len(rec.released) != 1 || string(rec.released[0].Data) != "x" || rec.released[0].Tag != "SUSP" {
		t.Fatalf("releases = %+v, want the unframed SUSP payload", rec.released)
	}
	if len(rctx.sends) != 1 || rctx.sends[0].p.Tag != TagAck {
		t.Fatalf("receiver sends = %+v, want one %s frame", rctx.sends, TagAck)
	}

	// Redelivering the same frame is suppressed and re-acked.
	receiver.OnMessage(rctx, 1, wire)
	if len(rec.released) != 1 {
		t.Error("duplicate frame released twice")
	}
	if _, d := receiver.ReliableStats(); d != 1 {
		t.Errorf("ackedDuplicates = %d, want 1", d)
	}
	if len(rctx.sends) != 2 || rctx.sends[1].p.Tag != TagAck {
		t.Error("duplicate frame was not re-acked")
	}

	// The ack retires the sender's frame: the next retry round finds
	// nothing to do and does not re-arm.
	sender.OnMessage(sctx, 2, rctx.sends[0].p)
	sctx.timers = map[string]int64{}
	sender.OnTimer(sctx, timerPrefix+"2")
	if len(sctx.sends) != 1 {
		t.Errorf("acked frame was retransmitted: %d sends", len(sctx.sends))
	}
	if len(sctx.timers) != 0 {
		t.Errorf("clean link re-armed: %v", sctx.timers)
	}
	if r, _ := sender.ReliableStats(); r != 0 {
		t.Errorf("retransmits = %d, want 0", r)
	}
}

// TestAcceptsGate: acks and non-head frames are always accepted (the
// endpoint consumes them internally); only the frame that would be released
// right now consults the inner gate.
func TestAcceptsGate(t *testing.T) {
	sender := Wrap(idle{}, Options{Enabled: true})
	sctx := newFakeCtx(1)
	relctx := sender.Context(sctx)
	relctx.Send(2, node.Payload{Tag: "APP", Data: []byte("a")})
	relctx.Send(2, node.Payload{Tag: "APP", Data: []byte("b")})
	first, second := sctx.sends[0].p, sctx.sends[1].p

	gate := &gatedInner{recorder: &recorder{}, accept: false}
	receiver := Wrap(gate, Options{Enabled: true})
	if !receiver.Accepts(1, node.Payload{Tag: TagAck, Data: make([]byte, headerLen)}) {
		t.Error("ack frame not accepted")
	}
	if !receiver.Accepts(1, second) {
		t.Error("out-of-order frame not accepted; the endpoint discards it internally")
	}
	if receiver.Accepts(1, first) {
		t.Error("head frame accepted although the inner gate defers it")
	}
	gate.accept = true
	if !receiver.Accepts(1, first) {
		t.Error("head frame rejected although the inner gate accepts it")
	}
}

type gatedInner struct {
	*recorder
	accept bool
}

func (g *gatedInner) Accepts(model.ProcID, node.Payload) bool { return g.accept }

// TestOutOfOrderDiscardedNotBuffered: go-back-N receiver semantics — an
// out-of-order frame is discarded (never released behind the inner gate's
// back) and redelivered by retransmission in sequence order.
func TestOutOfOrderDiscardedNotBuffered(t *testing.T) {
	sender := Wrap(idle{}, Options{Enabled: true})
	sctx := newFakeCtx(1)
	relctx := sender.Context(sctx)
	relctx.Send(2, node.Payload{Tag: "APP", Data: []byte("a")})
	relctx.Send(2, node.Payload{Tag: "APP", Data: []byte("b")})
	first, second := sctx.sends[0].p, sctx.sends[1].p

	rec := &recorder{}
	receiver := Wrap(rec, Options{Enabled: true})
	rctx := newFakeCtx(2)
	receiver.OnMessage(rctx, 1, second) // arrives first: must not be released
	if len(rec.released) != 0 {
		t.Fatalf("out-of-order frame released: %v", rec.released)
	}
	receiver.OnMessage(rctx, 1, first)
	receiver.OnMessage(rctx, 1, second) // retransmission redelivers in order
	if len(rec.released) != 2 || string(rec.released[0].Data) != "a" || string(rec.released[1].Data) != "b" {
		t.Fatalf("releases = %v, want a then b", rec.released)
	}
}

// TestAbandonedFrameDoesNotWedgeLink: when the retry budget exhausts
// inside a cut, the abandoned frame is lost — but later frames carry the
// sender's advanced base, so the receiver skips the gap instead of
// discarding everything after it forever.
func TestAbandonedFrameDoesNotWedgeLink(t *testing.T) {
	// Cut 1->2 during [10, 100): the t=20 send and its retries all die
	// inside the window and the retry budget (1) exhausts before the heal.
	cut := netadv.Rule{From: 10, Until: 100, Cut: true,
		Links: netadv.LinkSet{Pairs: []netadv.Link{{From: 1, To: 2}}}}
	plan := netadv.Plan{Name: "window-cut", Rules: []netadv.Rule{cut}}
	if err := plan.Validate(2); err != nil {
		t.Fatal(err)
	}
	plane := netadv.NewPlane(plan, 2, 1)
	s := sim.New(sim.Config{N: 2, Seed: 1, MaxTime: 10000, Link: plane.Decide})
	opts := Options{Enabled: true, RetryInterval: 20, MaxRetries: 1}
	sender := Wrap(idle{}, opts)
	rec := &recorder{}
	s.SetHandler(1, sender)
	s.SetHandler(2, Wrap(rec, opts))
	doomed := node.Payload{Tag: "APP", Data: []byte("doomed")}
	late := node.Payload{Tag: "APP", Data: []byte("late")}
	s.At(20, 1, func(ctx node.Context) { sender.Context(ctx).Send(2, doomed) })
	s.At(150, 1, func(ctx node.Context) { sender.Context(ctx).Send(2, late) })
	res := s.Run()
	if res.Stop != sim.StopDrained {
		t.Fatalf("run did not drain: %v", res.Stop)
	}
	if len(rec.released) != 1 || string(rec.released[0].Data) != "late" {
		t.Fatalf("releases = %v, want just the post-heal send (the abandoned gap must not wedge the link)", rec.released)
	}
}

// TestHeartbeatSendLeavesNoLinkState: a heartbeat goes out as the inner
// handler wrote it — node.Layer hands it to the host, so it gets no header
// and no sequence number — and leaves no peer state, unacked frame or
// retransmit timer behind; received, it is unframed traffic, which reaches
// the inner handler and draws no ack.
func TestHeartbeatSendLeavesNoLinkState(t *testing.T) {
	sender := Wrap(idle{}, Options{Enabled: true})
	sctx := newFakeCtx(1)
	hb := node.Payload{Tag: node.TagHeartbeat}
	sender.Context(sctx).Send(2, hb)
	if len(sctx.sends) != 1 || sctx.sends[0].to != 2 {
		t.Fatalf("sends = %+v, want one send to 2", sctx.sends)
	}
	if got := sctx.sends[0].p; got.Tag != node.TagHeartbeat || got.Subject != 0 || got.Data != nil {
		t.Errorf("wire heartbeat = %+v, want the bare payload", got)
	}
	if ids := sender.peers.IDs(nil); len(ids) != 0 {
		t.Errorf("heartbeat made link state for %v", ids)
	}
	if len(sctx.timers) != 0 {
		t.Errorf("heartbeat armed timers: %v", sctx.timers)
	}

	rec := &recorder{}
	receiver := Wrap(rec, Options{Enabled: true})
	rctx := newFakeCtx(2)
	receiver.OnMessage(rctx, 1, sctx.sends[0].p)
	if len(rec.released) != 1 || rec.released[0].Tag != node.TagHeartbeat {
		t.Fatalf("releases = %+v, want the heartbeat", rec.released)
	}
	if len(rctx.sends) != 0 {
		t.Errorf("heartbeat drew sends: %+v", rctx.sends)
	}
	if ids := receiver.peers.IDs(nil); len(ids) != 0 {
		t.Errorf("received heartbeat made link state for %v", ids)
	}
	if r, d := receiver.ReliableStats(); r != 0 || d != 0 {
		t.Errorf("heartbeat counted work: %d/%d", r, d)
	}
}

// TestAcceptsForwardsHeartbeat: a heartbeat arrives unframed, so it is put
// to the inner gate as it is.
func TestAcceptsForwardsHeartbeat(t *testing.T) {
	gate := &recordingGate{}
	receiver := Wrap(gate, Options{Enabled: true})
	hb := node.Payload{Tag: node.TagHeartbeat, Subject: 4}
	if receiver.Accepts(1, hb) {
		t.Error("heartbeat accepted although the inner gate refuses it")
	}
	if len(gate.asked) != 1 || gate.asked[0].Tag != hb.Tag || gate.asked[0].Subject != hb.Subject || gate.asked[0].Data != nil {
		t.Errorf("inner gate asked %+v, want the heartbeat as sent", gate.asked)
	}
}

// recordingGate refuses everything and records what it was asked.
type recordingGate struct {
	idle
	asked []node.Payload
}

func (g *recordingGate) Accepts(_ model.ProcID, p node.Payload) bool {
	g.asked = append(g.asked, p)
	return false
}

// timedRecorder records each release's tag and tick.
type timedRecorder struct {
	idle
	tags []string
	at   []int64
}

func (r *timedRecorder) OnMessage(ctx node.Context, _ model.ProcID, p node.Payload) {
	r.tags = append(r.tags, p.Tag)
	r.at = append(r.at, ctx.Now())
}

// TestLostSuspDoesNotHoldBackHeartbeats: a SUSP frame lost ahead of later
// heartbeats on the same link holds back none of them. Under go-back-N the
// receiver discards everything after the gap until the retransmission fills
// it; heartbeats are outside the sequence and arrive on time.
func TestLostSuspDoesNotHoldBackHeartbeats(t *testing.T) {
	cut := netadv.Rule{Until: 10, Cut: true, Tags: []string{"SUSP"}}
	plan := netadv.Plan{Name: "susp-cut", Rules: []netadv.Rule{cut}}
	if err := plan.Validate(2); err != nil {
		t.Fatal(err)
	}
	plane := netadv.NewPlane(plan, 2, 1)
	const maxDelay = 5
	s := sim.New(sim.Config{N: 2, Seed: 1, MinDelay: 1, MaxDelay: maxDelay, MaxTime: 10000, Link: plane.Decide})
	opts := Options{Enabled: true}
	sender := Wrap(idle{}, opts)
	rec := &timedRecorder{}
	s.SetHandler(1, sender)
	s.SetHandler(2, Wrap(rec, opts))
	s.At(2, 1, func(ctx node.Context) { sender.Context(ctx).Send(2, node.Payload{Tag: "SUSP", Subject: 3}) })
	beats := []int64{4, 8, 12, 16}
	for _, at := range beats {
		s.At(at, 1, func(ctx node.Context) { sender.Context(ctx).Send(2, node.Payload{Tag: node.TagHeartbeat}) })
	}
	res := s.Run()
	if res.Stop != sim.StopDrained {
		t.Fatalf("run did not drain: %v", res.Stop)
	}
	if res.Retransmits == 0 {
		t.Fatal("the SUSP frame was not lost: nothing was retransmitted")
	}
	var hbAt []int64
	suspAt := int64(-1)
	for i, tag := range rec.tags {
		switch tag {
		case node.TagHeartbeat:
			hbAt = append(hbAt, rec.at[i])
		case "SUSP":
			suspAt = rec.at[i]
		}
	}
	if len(hbAt) != len(beats) {
		t.Fatalf("released %d heartbeats, want %d (%v)", len(hbAt), len(beats), rec.tags)
	}
	for i, at := range hbAt {
		if at > beats[i]+maxDelay {
			t.Errorf("heartbeat sent at %d released at %d: held back behind the lost SUSP", beats[i], at)
		}
	}
	if suspAt < DefaultRetryInterval {
		t.Errorf("SUSP released at %d, want it only after its retransmission (≥ %d)", suspAt, DefaultRetryInterval)
	}
}
