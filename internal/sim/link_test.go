package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
)

// sender returns a handler that sends the given payloads to `to` at Init.
func sender(to model.ProcID, tags ...string) node.Handler {
	return &scriptHandler{init: func(ctx node.Context) {
		for _, tag := range tags {
			ctx.Send(to, node.Payload{Tag: tag})
		}
	}}
}

// linkAll applies one decision to every send.
func linkAll(dec node.LinkDecision) node.LinkFn {
	return func(model.ProcID, model.ProcID, node.Payload, int64) node.LinkDecision {
		return dec
	}
}

func TestLinkDropSuppressesDelivery(t *testing.T) {
	s := New(Config{N: 2, Seed: 1, Link: linkAll(node.LinkDecision{Drop: true})})
	s.SetHandler(1, sender(2, "A", "B", "C"))
	rcv := &echoHandler{}
	s.SetHandler(2, rcv)
	res := s.Run()
	if len(rcv.got) != 0 {
		t.Errorf("receiver got %v across a dropping link", rcv.got)
	}
	if res.Sent != 3 || res.Delivered != 0 || res.Dropped != 3 {
		t.Errorf("sent=%d delivered=%d dropped=%d, want 3/0/3", res.Sent, res.Delivered, res.Dropped)
	}
	// Lost messages keep the history model-valid: sent but never received.
	if err := res.History.Validate(); err != nil {
		t.Errorf("lossy history invalid: %v", err)
	}
	if res.BlockedLive() {
		t.Error("dropped messages left a blocked channel")
	}
}

func TestLinkSelectiveDropKeepsFIFOValid(t *testing.T) {
	// Drop only "B": the receiver sees A then C, in send order.
	link := func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		return node.LinkDecision{Drop: p.Tag == "B"}
	}
	s := New(Config{N: 2, Seed: 1, Link: link})
	s.SetHandler(1, sender(2, "A", "B", "C"))
	rcv := &echoHandler{}
	s.SetHandler(2, rcv)
	res := s.Run()
	if want := []string{"A", "C"}; len(rcv.got) != 2 || rcv.got[0] != "A" || rcv.got[1] != "C" {
		t.Errorf("receiver got %v, want %v", rcv.got, want)
	}
	if res.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", res.Dropped)
	}
	if err := res.History.Validate(); err != nil {
		t.Errorf("history with one lost message invalid: %v", err)
	}
}

func TestLinkDuplicateDeliversCopies(t *testing.T) {
	s := New(Config{N: 2, Seed: 1, Link: linkAll(node.LinkDecision{Duplicates: 1})})
	s.SetHandler(1, sender(2, "A", "B"))
	rcv := &echoHandler{}
	s.SetHandler(2, rcv)
	res := s.Run()
	if len(rcv.got) != 4 {
		t.Errorf("receiver got %d deliveries, want 4 (2 messages × 2 copies)", len(rcv.got))
	}
	if res.Duplicated != 2 || res.Delivered != 4 {
		t.Errorf("duplicated=%d delivered=%d, want 2/4", res.Duplicated, res.Delivered)
	}
	// Duplicate delivery leaves the reliable-channel model; Validate says so.
	if err := res.History.Validate(); !errors.Is(err, model.ErrInvalidHistory) {
		t.Errorf("duplicated history validated: %v", err)
	}
}

func TestLinkParkBlocksChannel(t *testing.T) {
	s := New(Config{N: 2, Seed: 1, Link: linkAll(node.LinkDecision{Park: true})})
	s.SetHandler(1, sender(2, "A", "B"))
	s.SetHandler(2, idle())
	res := s.Run()
	if res.Delivered != 0 {
		t.Errorf("delivered = %d through a parked channel", res.Delivered)
	}
	if len(res.Blocked) != 1 || res.Blocked[0].Reason != ReasonParked || res.Blocked[0].Queued != 2 {
		t.Errorf("blocked = %+v, want one parked channel with 2 queued", res.Blocked)
	}
	if res.Quiescent() {
		t.Error("run with parked messages reported quiescent")
	}
}

func TestLinkExtraDelayShiftsDelivery(t *testing.T) {
	run := func(extra int64) int64 {
		s := New(Config{N: 2, Seed: 1, MinDelay: 1, MaxDelay: 1,
			Link: linkAll(node.LinkDecision{ExtraDelay: extra})})
		s.SetHandler(1, sender(2, "A"))
		s.SetHandler(2, idle())
		return s.Run().EndTime
	}
	if base, delayed := run(0), run(50); delayed != base+50 {
		t.Errorf("EndTime base=%d extra50=%d, want +50", base, delayed)
	}
}

func TestLinkReorderOvertakesTail(t *testing.T) {
	// Only the third message reorders: with everything else FIFO it lands
	// ahead of "B", so the receiver sees A, C, B.
	link := func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		return node.LinkDecision{Reorder: p.Tag == "C"}
	}
	s := New(Config{N: 2, Seed: 1, MinDelay: 5, MaxDelay: 5, Link: link})
	s.SetHandler(1, sender(2, "A", "B", "C"))
	rcv := &echoHandler{}
	s.SetHandler(2, rcv)
	res := s.Run()
	if len(rcv.got) != 3 || rcv.got[0] != "A" || rcv.got[1] != "C" || rcv.got[2] != "B" {
		t.Errorf("receiver got %v, want [A C B]", rcv.got)
	}
	// Reorder is a genuine FIFO violation; Validate flags it.
	if err := res.History.Validate(); !errors.Is(err, model.ErrInvalidHistory) {
		t.Errorf("reordered history validated: %v", err)
	}
}

// TestLinkDeterminism: the link path preserves the simulator's determinism
// guarantee — identical configs produce identical histories.
func TestLinkDeterminism(t *testing.T) {
	run := func() model.History {
		link := func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
			// A deterministic mix of fates keyed on time parity.
			return node.LinkDecision{
				Drop:       at%3 == 2,
				Duplicates: int(at % 2),
				ExtraDelay: at % 5,
			}
		}
		s := New(Config{N: 3, Seed: 9, Link: link})
		s.SetHandler(1, sender(2, "A", "B"))
		s.SetHandler(2, &scriptHandler{onMsg: func(ctx node.Context, from model.ProcID, p node.Payload) {
			ctx.Send(3, node.Payload{Tag: "FWD"})
		}})
		s.SetHandler(3, idle())
		return s.Run().History
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Same(b[i]) || a[i].Time != b[i].Time {
			t.Fatalf("event %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

// queued is a message copy in listModel's FIFO.
type queued struct {
	id    model.MsgID
	ready int64 // -1: parked forever
	head  int64 // the tick it reached the front
}

// listModel is one link as a plain slice: a copy is appended, or under
// Reorder put before the tail when two or more are queued, and the front is
// delivered at its ready time or at the tick it reached the front, whichever
// is later; a parked front never leaves.
type listModel struct{ q []queued }

func (m *listModel) send(now int64, c queued, reorder bool) {
	switch {
	case reorder && len(m.q) > 1:
		m.q = slices.Insert(m.q, len(m.q)-1, c)
	case len(m.q) == 0:
		c.head = now
		fallthrough
	default:
		m.q = append(m.q, c)
	}
}

// deliver takes the front off, which was due at tick due; ok is false when the
// model has nothing to deliver.
func (m *listModel) deliver(now int64) (id model.MsgID, due int64, ok bool) {
	if len(m.q) == 0 || m.q[0].ready < 0 {
		return 0, 0, false
	}
	front := m.q[0]
	if m.q = m.q[1:]; len(m.q) > 0 {
		m.q[0].head = now
	}
	return front.id, max(front.ready, front.head), true
}

// TestChannelMatchesListModel holds one link to listModel over many seeds: the
// sender mixes sends — parked, duplicated and reordered copies, delays 0–6 and
// link delays 0–3 — at ticks the receiver's deliveries interleave with, and
// each delivery's id and tick, and the run's Blocked report, must be the
// model's. The slab keeps a head's ready time in the slot in front of it and,
// in the tail, the index of the slot in front: a slip in either delivers the
// wrong copy or at the wrong tick.
func TestChannelMatchesListModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m listModel
		var dec node.LinkDecision
		var delays []int64 // the next send's base delays, one a copy
		var fault string
		sent := 0
		s := New(Config{N: 2, Seed: seed,
			Link: func(model.ProcID, model.ProcID, node.Payload, int64) node.LinkDecision { return dec },
			Delay: func(model.ProcID, model.ProcID, node.Payload, int64) int64 {
				d := delays[0]
				delays = delays[1:]
				return d
			},
		})
		s.SetHandler(1, &scriptHandler{
			init: func(ctx node.Context) { ctx.SetTimer("send", 0) },
			onTimer: func(ctx node.Context, _ string) {
				for k := rng.Intn(3) + 1; k > 0 && sent < 60; k-- {
					sent++
					dec = node.LinkDecision{Park: rng.Intn(100) == 0, Reorder: rng.Intn(3) == 0, ExtraDelay: int64(rng.Intn(4))}
					if rng.Intn(4) == 0 {
						dec.Duplicates = rng.Intn(2) + 1
					}
					delays = delays[:0]
					for c := 0; c <= dec.Duplicates; c++ {
						delays = append(delays, int64(rng.Intn(7)))
					}
					now, copies := ctx.Now(), slices.Clone(delays)
					ctx.Send(2, node.Payload{Tag: "M", Subject: model.ProcID(sent)})
					for _, d := range copies {
						c := queued{id: model.MsgID(sent), ready: -1}
						if !dec.Park {
							c.ready = now + d + dec.ExtraDelay
						}
						m.send(now, c, dec.Reorder)
					}
				}
				if sent < 60 {
					ctx.SetTimer("send", int64(rng.Intn(5)))
				}
			},
		})
		s.SetHandler(2, &scriptHandler{onMsg: func(ctx node.Context, _ model.ProcID, p node.Payload) {
			id, due, ok := m.deliver(ctx.Now())
			if fault == "" && (!ok || model.MsgID(p.Subject) != id || ctx.Now() != due) {
				fault = fmt.Sprintf("delivered message %d at tick %d; the model delivers %d at %d (ok %v)", p.Subject, ctx.Now(), id, due, ok)
			}
		}})
		res := s.Run()
		var want []BlockedChannel
		if len(m.q) > 0 {
			if m.q[0].ready >= 0 && fault == "" {
				fault = fmt.Sprintf("message %d due at %d was never delivered", m.q[0].id, max(m.q[0].ready, m.q[0].head))
			}
			want = []BlockedChannel{{From: 1, To: 2, Queued: len(m.q), Reason: ReasonParked}}
		}
		if fault == "" && !slices.Equal(res.Blocked, want) {
			fault = fmt.Sprintf("blocked %+v, want %+v", res.Blocked, want)
		}
		if fault != "" {
			t.Fatalf("seed %d: %s", seed, fault)
		}
	}
}
