// End-to-end tests of the validation layer over the deterministic simulator
// and the fault plane's Byzantine rules. They live in the external test
// package so importing internal/netadv (which imports this package for the
// sealing primitives) does not cycle.
package byz_test

import (
	"testing"

	"failstop/internal/byz"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/sim"
)

// recorder is an inner handler that records every released payload.
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

// harness wires n byz endpoints over a sim whose network follows the given
// plan. Convictions are recorded per (convicting process, culprit, reason),
// and every payload the endpoints put on the wire in send order.
type harness struct {
	sim       *sim.Sim
	plane     *netadv.Plane
	eps       []*byz.Endpoint
	recs      []*recorder
	convicted []conviction
	wire      []node.Payload
}

type conviction struct {
	by, culprit model.ProcID
}

func newHarness(t *testing.T, n int, seed int64, plan netadv.Plan) *harness {
	t.Helper()
	if err := plan.Validate(n); err != nil {
		t.Fatal(err)
	}
	plane := netadv.NewPlane(plan, n, seed)
	h := &harness{plane: plane, eps: make([]*byz.Endpoint, n+1), recs: make([]*recorder, n+1)}
	link := func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		h.wire = append(h.wire, p)
		return plane.Decide(from, to, p, at)
	}
	s := sim.New(sim.Config{N: n, Seed: seed, MaxTime: 100000, Link: link})
	h.sim = s
	for p := model.ProcID(1); int(p) <= n; p++ {
		rec := &recorder{}
		ep := byz.Wrap(rec, byz.Options{Enabled: true})
		self := p
		ep.SetConvict(func(_ node.Context, culprit model.ProcID) {
			h.convicted = append(h.convicted, conviction{by: self, culprit: culprit})
		})
		h.eps[p] = ep
		h.recs[p] = rec
		s.SetHandler(p, ep)
	}
	return h
}

// broadcastAt injects a broadcast of p from proc at tick t, sealed through
// the sender's endpoint.
func (h *harness) broadcastAt(t int64, proc model.ProcID, p node.Payload) {
	ep := h.eps[proc]
	h.sim.At(t, proc, func(ctx node.Context) {
		wrapped := ep.Context(ctx)
		for q := model.ProcID(1); int(q) <= ctx.N(); q++ {
			if q != proc {
				wrapped.Send(q, p)
			}
		}
	})
}

func (h *harness) convictionsOf(culprit model.ProcID) int {
	got := 0
	for _, c := range h.convicted {
		if c.culprit == culprit {
			got++
		}
	}
	return got
}

var susp = node.Payload{Tag: "SUSP", Subject: 2, Data: []byte(`{"suspect":2}`)}

// TestHonestBroadcastReleases: over a fault-free network a held-class
// broadcast gathers its witness quorum and is released everywhere, with no
// convictions and the original payload intact.
func TestHonestBroadcastReleases(t *testing.T) {
	h := newHarness(t, 3, 1, netadv.Plan{Name: "clean"})
	h.broadcastAt(10, 1, susp)
	res := h.sim.Run()
	if res.Stop != sim.StopDrained {
		t.Fatalf("run did not drain: %v", res.Stop)
	}
	for p := 2; p <= 3; p++ {
		rec := h.recs[p]
		if len(rec.released) != 1 {
			t.Fatalf("proc %d released %d payloads, want 1", p, len(rec.released))
		}
		got := rec.released[0]
		if got.Tag != susp.Tag || got.Subject != susp.Subject || string(got.Data) != string(susp.Data) {
			t.Errorf("proc %d released %+v, want %+v", p, got, susp)
		}
		if rec.from[0] != 1 {
			t.Errorf("proc %d released from %d, want 1", p, rec.from[0])
		}
	}
	if len(h.convicted) != 0 {
		t.Errorf("honest run convicted: %v", h.convicted)
	}
	if res.ByzDetected != 0 {
		t.Errorf("ByzDetected = %d, want 0", res.ByzDetected)
	}
}

// TestNonHeldTagPassesWithoutEchoes: a tag other than SUSP is released on
// arrival; the only traffic is the n-1 sealed frames themselves.
func TestNonHeldTagPassesWithoutEchoes(t *testing.T) {
	h := newHarness(t, 3, 1, netadv.Plan{Name: "clean"})
	h.broadcastAt(10, 1, node.Payload{Tag: "APP", Data: []byte("hello")})
	res := h.sim.Run()
	if res.Delivered != 2 {
		t.Errorf("delivered %d messages, want exactly the 2 broadcast frames (no echoes)", res.Delivered)
	}
	for p := 2; p <= 3; p++ {
		if len(h.recs[p].released) != 1 {
			t.Errorf("proc %d released %d payloads, want 1", p, len(h.recs[p].released))
		}
	}
}

// TestCorruptionConvictsBadMAC: the fault plane mutates the victim's frames
// without fixing the MAC, so every receiver convicts the victim and nothing
// forged is ever released.
func TestCorruptionConvictsBadMAC(t *testing.T) {
	h := newHarness(t, 3, 1, netadv.Plan{
		Name: "corrupt",
		Byz:  []netadv.ByzRule{{Victim: 1, Corrupt: 1}},
	})
	h.broadcastAt(10, 1, susp)
	res := h.sim.Run()
	if got := h.convictionsOf(1); got != 2 {
		t.Errorf("victim convicted by %d receivers, want 2", got)
	}
	for p := 2; p <= 3; p++ {
		if len(h.recs[p].released) != 0 {
			t.Errorf("proc %d released %d forged payloads", p, len(h.recs[p].released))
		}
	}
	if res.ByzDetected != 2 {
		t.Errorf("ByzDetected = %d, want 2", res.ByzDetected)
	}
	if h.plane.Metrics().Value("plane_byz_corrupted_total") == 0 {
		t.Error("plane counted no corruptions")
	}
}

// TestEquivocationConvicts: the plane reseals a different variant per
// receiver group — every frame authenticates, and only the echo quorum's
// digest conflict catches the split. No variant may be released.
func TestEquivocationConvicts(t *testing.T) {
	h := newHarness(t, 3, 1, netadv.Plan{
		Name: "equiv",
		Byz:  []netadv.ByzRule{{Victim: 1, Equivocate: [][]model.ProcID{{2}, {3}}}},
	})
	h.broadcastAt(10, 1, susp)
	h.sim.Run()
	if got := h.convictionsOf(1); got == 0 {
		t.Error("equivocation was never convicted")
	}
	for p := 2; p <= 3; p++ {
		if len(h.recs[p].released) != 0 {
			t.Errorf("proc %d released %d equivocated payloads", p, len(h.recs[p].released))
		}
	}
	if h.plane.Metrics().Value("plane_byz_equivocated_total") == 0 {
		t.Error("plane counted no equivocations")
	}
}

// checkRepeatsDiscarded: a ghost copy of a sealed frame of the given tag
// re-delivers a spent sequence number, 5 or 400 ticks after the first copy
// — a late network duplicate or a replay, which no delay bound tells apart.
// Either way it is discarded and convicts no one: each of two broadcasts is
// released once at each receiver.
func checkRepeatsDiscarded(t *testing.T, tag string) {
	t.Helper()
	for _, delay := range []int64{5, 400} {
		h := newHarness(t, 3, 1, netadv.Plan{
			Name: "repeat",
			Byz:  []netadv.ByzRule{{Victim: 1, Tags: []string{tag}, Replay: 1, ReplayDelay: delay}},
		})
		h.broadcastAt(10, 1, node.Payload{Tag: tag, Subject: 2})
		h.broadcastAt(20, 1, node.Payload{Tag: tag, Subject: 3})
		h.sim.Run()
		if len(h.convicted) != 0 {
			t.Errorf("%s copies %d ticks late convicted: %v", tag, delay, h.convicted)
		}
		if h.plane.Metrics().Value("plane_byz_replayed_total") == 0 {
			t.Errorf("%s, %d ticks: plane injected no ghost copies", tag, delay)
		}
		for p := 2; p <= 3; p++ {
			if got := len(h.recs[p].released); got != 2 {
				t.Errorf("%s, %d ticks: proc %d released %d frames, want 2 (ghosts discarded)", tag, delay, p, got)
			}
		}
	}
}

// TestReplayBeyondHorizonConvicts: the layer keeps no replay horizon, so a
// SUSP frame's copy, however late, convicts no one — the held frame is
// released once and its repeats are discarded.
func TestReplayBeyondHorizonConvicts(t *testing.T) { checkRepeatsDiscarded(t, node.TagSusp) }

// TestStaleRepeatDiscarded: a repeat of a frame of a tag the layer does not
// hold is discarded the same way.
func TestStaleRepeatDiscarded(t *testing.T) { checkRepeatsDiscarded(t, "APP") }

// TestHeartbeatCrossesUnsealed: a heartbeat bypasses the layer (node.Layer
// hands it to the host as it is), so it goes on the wire unsealed, with no
// sequence number to discard its repeats by. A ghost copy 5 or 400 ticks
// late reaches the inner handler as one more late heartbeat, which is all a
// repeated heartbeat can be, and convicts no one.
func TestHeartbeatCrossesUnsealed(t *testing.T) {
	hb := node.Payload{Tag: node.TagHeartbeat}
	for _, delay := range []int64{5, 400} {
		h := newHarness(t, 3, 1, netadv.Plan{
			Name: "repeat",
			Byz:  []netadv.ByzRule{{Victim: 1, Tags: []string{node.TagHeartbeat}, Replay: 1, ReplayDelay: delay}},
		})
		h.broadcastAt(10, 1, hb)
		h.broadcastAt(20, 1, hb)
		res := h.sim.Run()
		for _, p := range h.wire {
			if byz.Sealed(p.Data) {
				t.Errorf("%d ticks: a heartbeat went on the wire sealed: %+v", delay, p)
			}
		}
		if len(h.convicted) != 0 || res.ByzDetected != 0 {
			t.Errorf("heartbeat copies %d ticks late convicted: %v", delay, h.convicted)
		}
		if h.plane.Metrics().Value("plane_byz_replayed_total") == 0 {
			t.Errorf("%d ticks: plane injected no ghost copies", delay)
		}
		for p := 2; p <= 3; p++ {
			// Two heartbeats and the ghost of the first, each as it was sent.
			rel := h.recs[p].released
			if len(rel) != 3 {
				t.Errorf("%d ticks: proc %d released %d heartbeats, want 3", delay, p, len(rel))
			}
			for _, got := range rel {
				if got.Tag != hb.Tag || got.Subject != hb.Subject || got.Data != nil {
					t.Errorf("%d ticks: proc %d released %+v, want the bare heartbeat", delay, p, got)
				}
			}
		}
	}
}

// TestMaskedSenderTrafficDiscarded: after conviction the culprit's later
// frames are dropped at the layer and counted as masked — its heartbeats,
// which cross unsealed, as well as its sealed frames.
func TestMaskedSenderTrafficDiscarded(t *testing.T) {
	h := newHarness(t, 3, 1, netadv.Plan{
		Name: "corrupt-window",
		Byz:  []netadv.ByzRule{{Victim: 1, Until: 50, Corrupt: 1}},
	})
	h.broadcastAt(10, 1, susp)
	// Past the rule's window the victim sends honestly — but it is already
	// masked everywhere, so nothing is released.
	h.broadcastAt(200, 1, node.Payload{Tag: "APP", Data: []byte("late")})
	h.broadcastAt(210, 1, node.Payload{Tag: node.TagHeartbeat})
	res := h.sim.Run()
	for p := 2; p <= 3; p++ {
		if len(h.recs[p].released) != 0 {
			t.Errorf("proc %d released traffic from a masked sender: %+v", p, h.recs[p].released)
		}
		if !h.eps[p].Masked(1) {
			t.Errorf("proc %d did not mask the victim", p)
		}
		if _, masked := h.eps[p].ByzStats(); masked != 2 {
			t.Errorf("proc %d counted %d frames as masked, want 2 (the APP frame and the heartbeat)", p, masked)
		}
	}
	if res.ByzMasked != 4 {
		t.Errorf("ByzMasked = %d, want 4", res.ByzMasked)
	}
}

// quietRun is the layer's fault-free workload: process 1 of 3 sends 200
// application frames to process 2 (sealed, authenticated, released on
// arrival) and broadcasts one held-class frame, which processes 2 and 3
// hold, echo to each other and release on the echo. It returns how many
// messages crossed the wire.
func quietRun(tb testing.TB, enabled bool) int {
	const sends = 200
	s := sim.New(sim.Config{N: 3, Seed: 1, MaxTime: 100000})
	recs := []*recorder{{}, {}, {}}
	wrap := func(ctx node.Context) node.Context { return ctx }
	for p := model.ProcID(1); p <= 3; p++ {
		if !enabled {
			s.SetHandler(p, recs[p-1])
			continue
		}
		ep := byz.Wrap(recs[p-1], byz.Options{Enabled: true})
		if p == 1 {
			wrap = ep.Context
		}
		s.SetHandler(p, ep)
	}
	app := node.Payload{Tag: "APP", Data: []byte(`{"round":1}`)}
	for k := 1; k <= sends; k++ {
		s.At(int64(k), 1, func(ctx node.Context) { wrap(ctx).Send(2, app) })
	}
	s.At(sends+1, 1, func(ctx node.Context) {
		wrap(ctx).Send(2, susp)
		wrap(ctx).Send(3, susp)
	})
	res := s.Run()
	if len(recs[1].released) != sends+1 || len(recs[2].released) != 1 || res.ByzDetected != 0 {
		tb.Fatalf("released %d and %d frames with %d convictions, want %d, 1 and 0",
			len(recs[1].released), len(recs[2].released), res.ByzDetected, sends+1)
	}
	return res.Sent
}

// TestByzQuietAllocBudget gates the layer's fault-free path — seal, open,
// duplicate check, one witness round end to end — at one allocation per
// wire message over the same traffic without the layer (it was 3.18 while
// every sealed body and context wrapper was an allocation of its own).
func TestByzQuietAllocBudget(t *testing.T) {
	msgs := 0
	bare := testing.AllocsPerRun(5, func() { quietRun(t, false) })
	sealed := testing.AllocsPerRun(5, func() { msgs = quietRun(t, true) })
	per := (sealed - bare) / float64(msgs)
	t.Logf("allocations per run: bare %.0f, byz %.0f over %d messages: %.2f per message", bare, sealed, msgs, per)
	if per > 1 {
		t.Errorf("byz layer on quiet traffic adds %.2f allocations per message, budget 1", per)
	}
}
