// Processes and their timers.
//   - Processes. What the simulator keeps per process — whether it is up,
//     its handler and the gate asked for once at Run, the links its gate
//     refused, its open batches (the first twelve inline), its row of links
//     and the processes it has declared failed (failed_i(j) is single-shot) —
//     is one procCtx, the node.Context its handler is given. A receiver's list
//     of open batches allocates nothing at the default delay range.
//   - Timers. A process's named timers are slots of a small per-process
//     table, found by scanning the names on set and cancel and by index on
//     fire. A slot remembers the insertion sequence of the occurrence that
//     is to fire it, and sequence numbers are never reused: an occurrence
//     that was replaced, cancelled, or armed by an incarnation that has
//     since crashed matches no slot, whatever the name is used for later.

package sim

import (
	"fmt"
	"slices"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
)

// procCtx is one process: its node.Context and everything the simulator
// keeps per process. What a send or a delivery reads of its receiver — the
// flags, the id, the open-batch header, the handler and its gate — is the
// first 64 bytes, and the first open batches the next 64: one 128-byte line
// pair. The whole is a multiple of 128 bytes, so that pair is aligned for
// every process of the ctxs array (TestQueueAndRecordLayout holds both).
type procCtx struct {
	crashed bool // CrashSelf: terminal
	down    bool // plan-crashed, restart possibly pending (crash-recovery)
	p       model.ProcID
	open    []dueBatch // open due batches, latest first
	h       node.Handler
	gate    node.Gate    // h, when it gates its receives; nil otherwise
	openBuf [12]dueBatch // where open starts out: more due times than the default delay range spreads a receiver's mail over

	s      *Sim
	gated  []*channel     // the links whose head the gate refused
	row    []*channel     // materialized outgoing links, ascending by receiver
	failed []model.ProcID // the targets j of this run's failed_p(j), in emission order

	// timers is the process's timer table. An unarmed slot is taken over by
	// the next new name, so the table is as long as the most timers the
	// process had armed at once and the scan that finds a name stays short.
	// Like the lists above, it keeps its capacity from run to run.
	timers   []timerSlot
	timerBuf [1]timerSlot // where a fresh process's timers start: most arm one, and it lies beside the rest
}

// timerSlot is one named timer: armed is the insertion sequence of the
// occurrence that fires it, unarmed when it has fired, was cancelled, or died
// in a plan crash.
type timerSlot struct {
	name  string
	armed int64
}

const unarmed int64 = -1

// gone reports that the process takes no step now: crashed, or down.
func (c *procCtx) gone() bool { return c.crashed || c.down }

// timer returns the index of the named timer's slot, or -1.
func (c *procCtx) timer(name string) int {
	for i := range c.timers {
		if c.timers[i].name == name {
			return i
		}
	}
	return -1
}

var _ node.Context = (*procCtx)(nil)

func (c *procCtx) Self() model.ProcID { return c.p }
func (c *procCtx) N() int             { return c.s.cfg.N }
func (c *procCtx) Now() int64         { return c.s.now }

func (c *procCtx) Send(to model.ProcID, p node.Payload) {
	s := c.s
	if c.gone() {
		return
	}
	s.core.CheckSend(c.p, to)
	id := s.core.Number(&s.tally)
	if id == 0 {
		s.core.OutOfIDs()
	}
	e := s.event()
	e.Proc, e.Kind, e.Peer, e.Target, e.Msg, e.Tag = c.p, model.KindSend, to, p.Subject, id, p.Tag
	s.copies = s.core.Route(&s.tally, s.now, s.curSpan, c.p, to, id, p, s.copies)
	if len(s.copies) == 0 {
		return // dropped: a send the network delivers no copy of creates no channel
	}
	ch := c.link(to)
	wasEmpty := ch.n == 0
	var head int64 // the first copy's ready time: on an empty channel it is the head
	for i := range s.copies {
		cp := &s.copies[i]
		var delay int64
		if s.cfg.Delay != nil {
			if delay = s.cfg.Delay(c.p, to, p, s.now); delay > host.MaxDelay {
				panic(fmt.Sprintf("sim: Config.Delay returned %d ticks for a message from %d to %d, above %d (2^40: the clock must not overflow)", delay, c.p, to, int64(host.MaxDelay)))
			}
		} else {
			delay = s.cfg.MinDelay + s.rng.int63n(s.cfg.MaxDelay-s.cfg.MinDelay+1)
		}
		readyAt := int64(-1)
		if delay >= 0 && !cp.Park {
			readyAt = s.now + delay + cp.Extra
		}
		if i == 0 {
			head = readyAt
		}
		wire := cp.Wire
		if wire == nil {
			wire = &p
		}
		s.enqueue(ch, id, wire, readyAt, cp.Span, cp.Reorder)
	}
	if wasEmpty {
		s.scheduleHead(ch, &s.ctxs[to], head)
	}
}

func (c *procCtx) SetTimer(name string, delay int64) {
	s := c.s
	if c.gone() {
		return
	}
	s.core.CheckTimer(delay)
	i := c.timer(name)
	if i < 0 { // a new name takes over an unarmed slot, or a new one
		i = slices.IndexFunc(c.timers, func(t timerSlot) bool { return t.armed == unarmed })
	}
	if i < 0 {
		i = len(c.timers)
		c.timers = append(c.timers, timerSlot{})
	}
	c.timers[i] = timerSlot{name: name, armed: s.seq} // the sequence number push gives the occurrence
	s.push(occ(s.now+delay, occTimer, c.p, i))
}

func (c *procCtx) CancelTimer(name string) {
	if i := c.timer(name); i >= 0 {
		c.timers[i].armed = unarmed
	}
}

func (c *procCtx) EmitFailed(j model.ProcID) {
	s := c.s
	if c.gone() {
		return
	}
	if slices.Contains(c.failed, j) {
		return // failed_i(j) is single-shot
	}
	c.failed = append(c.failed, j)
	s.record(model.Failed(c.p, j))
}

func (c *procCtx) CrashSelf() {
	if c.gone() {
		return
	}
	c.crashed = true
	c.s.core.CrashSelf(c.p, c.h, c, c.s.record)
}

func (c *procCtx) EmitInternal(tag string, subject model.ProcID) {
	s := c.s
	if c.gone() {
		return
	}
	s.record(model.Internal(c.p, tag, subject))
}

func (s *Sim) fireTimer(c *procCtx, o occurrence) {
	if c.gone() {
		return
	}
	t := &c.timers[o.ref()]
	if t.armed != o.seq {
		return // cancelled, replaced, or armed before a crash
	}
	t.armed = unarmed
	s.tally[host.TimersFired]++
	c.h.OnTimer(c, t.name)
	s.afterEvent(c)
}

// planCrash executes one crash window of a lifetime: take the process down
// and kill its timers, then run the shared crash step, which schedules the
// next window and the restart as occurrences. A window that finds its process
// crashed terminally (CrashSelf) ends the lifetime; one that finds it still
// down from an earlier window is skipped by the hosts' shared rule, which no
// valid plan reaches here (a storm restarts its process before its next
// window, and a process's one-shot windows are disjoint).
func (s *Sim) planCrash(c *procCtx, o occurrence) {
	if c.crashed {
		return
	}
	schedule := func(at int64, restart bool) {
		kind := occPlanCrash
		if restart {
			kind = occRestart
		}
		s.push(occ(at, kind, c.p, o.ref()))
	}
	if c.down {
		s.core.Skip(o.ref(), o.time, schedule)
		return
	}
	c.down = true
	for i := range c.timers {
		c.timers[i].armed = unarmed
	}
	s.core.Crash(&s.tally, o.ref(), o.time, s.now, c.h, c, schedule, s.record)
}

// restart brings a down process back.
func (s *Sim) restart(c *procCtx) {
	if c.crashed || !c.down {
		return
	}
	c.down = false
	s.core.Restart(&s.tally, c.p, s.now, c.h, c, s.record)
	s.afterEvent(c)
}
