// Transport: the links, the slab their messages wait in, and the batches that
// deliver them.
//   - Rows. A link is a *channel that knows its endpoints. A sender's links
//     sit in its row, ascending by receiver and materialized on first
//     traffic; Send finds the link by binary search and every later step
//     (due batches, gate lists, delivery) carries the pointer. Walking the
//     rows visits links in (from, to) order, which is the order of
//     Result.Blocked.
//   - Slab. In-flight messages live in one per-Sim slab of 64-byte slots —
//     payload, the ready time of the message behind, a 32-bit id, the next
//     slot — grown a page at a time so a slot never moves; a channel is a
//     singly linked list of slots (head, tail, count) and delivered slots are
//     cleared onto a free list. A payload is written once, by Send, into the
//     slot it is delivered from: the gate, the receive event and OnMessage
//     read it there, and the slot is freed only after OnMessage returns. A
//     message's ready time is written into the slot in front of it, so the
//     delivery that frees a head also hands on when the next head is due and
//     no step reads a second slot; a head that lands on an empty channel has
//     its ready time from its send, and one parked forever marks its channel.
//     The tail, with nothing behind it, names the slot in front instead. List
//     order is FIFO order; LinkDecision.Reorder writes the new message into
//     the tail's slot and moves the tail back into the new one, which only
//     the slot the tail names must learn of: a head is never overtaken, so a
//     head whose occurrence fires is due. Span ids sit in a slice beside the
//     slab that exists only with Config.Spans and grows with the slots the run
//     takes, not with the slab its bulk inherited.
//   - Open batches. A due batch is a 16-byte (time, first link) entry in its
//     receiver's list. A receiver's open batches are kept sorted by time; a
//     batch is pushed when it opens, detached before it drains — a head
//     rescheduled to the same tick opens a fresh batch behind it — and drained
//     in ascending sender order, whatever order it was chained in. Gated links
//     are re-evaluated in ascending sender order too.

package sim

import (
	"cmp"
	"slices"

	"failstop/internal/model"
	"failstop/internal/node"
)

// pendingMsg is one in-flight message copy: a slot of the per-Sim slab,
// exactly one cache line, linked to the message behind it on the same channel
// (or, on the free list, to the next free slot). The enqueue span of a sampled
// message sits beside the slab, in Sim.spanOf.
type pendingMsg struct {
	payload node.Payload
	// behind is the ready time of the message queued behind this one (-1:
	// parked forever) and, at the tail, where nothing is behind, the slab
	// index of the slot in front (noSlot when the tail is the head). A head's
	// own ready time is carried by the slot that was in front of it, or by
	// the send that found its channel empty: a delivery reads one slot.
	behind int64
	id     model.MsgID
	next   int32 // slab index of the next slot; noSlot at the end of the list
}

// noSlot terminates a channel's message list and the slab's free list.
const noSlot int32 = -1

// The slab grows a page at a time and never moves a slot: one flat array
// regrown by append re-copies every in-flight message at each step, which
// at N=10,000 allocates 135 MB to end with a 24 MB slab.
const (
	slabPageBits = 8
	slabPageLen  = 1 << slabPageBits
)

type slabPage [slabPageLen]pendingMsg

// channel is the link C_{from,to}: a FIFO of slab slots. Its head's ready time
// is in no field of its own: the step that made the head one scheduled it, or
// marked the channel parked.
type channel struct {
	from, to   model.ProcID
	due        *channel // the next link of the due batch this one waits in
	head, tail int32    // slab indices; noSlot when the channel is empty
	n          int32    // messages queued
	scheduled  bool     // a head-delivery occurrence is in the event queue
	gated      bool     // head was refused by the receiver's gate
	parked     bool     // head is parked forever: it never leaves, nor does anything behind it
}

// dueBatch is one batched-delivery occurrence: every channel head due at
// the same (time, receiver) coalesces into a single event-queue entry, so the
// queue holds O(active receivers) delivery occurrences per tick instead of
// O(in-flight messages). The batch is the chain of its links through
// channel.due, in no particular order.
type dueBatch struct {
	at   int64
	head *channel
}

// link returns the channel c.p→to, materializing it on first use: per-link
// state is lazy, so a sparse topology over a large N allocates O(active
// links), not the O(N²) of a full mesh.
func (c *procCtx) link(to model.ProcID) *channel {
	// The two searches on the per-message path are written out: through
	// slices.BinarySearchFunc (a call per comparison) flood-mesh-n10 ran 6 %
	// fewer runs per second.
	s, row := c.s, c.row
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo].to == to {
		return row[lo]
	}
	// Links are carved from arena chunks that are never regrown, so a
	// *channel stays valid for the run; a run pays one allocation per chunk
	// instead of one per link.
	if len(s.linkArena) == cap(s.linkArena) {
		if s.chunks == len(s.arenas) {
			s.arenas = append(s.arenas, make([]channel, 0, min(max(2*cap(s.linkArena), 16), 1024)))
		}
		s.linkArena = s.arenas[s.chunks][:0]
		s.chunks++
	}
	s.linkArena = append(s.linkArena, channel{from: c.p, to: to, head: noSlot, tail: noSlot})
	ch := &s.linkArena[len(s.linkArena)-1]
	c.row = slices.Insert(row, lo, ch)
	s.gLinks.Add(1)
	return ch
}

// slot returns the slab slot with index idx.
func (s *Sim) slot(idx int32) *pendingMsg {
	return &s.slab[idx>>slabPageBits][idx&(slabPageLen-1)]
}

// enqueue appends a copy of message id carrying *p, ready at readyAt (-1:
// parked) and enqueued under span, to c's FIFO and counts it in flight,
// taking a slot from the free list or growing the slab; the payload is
// written straight into the slot, and the ready time into the slot in front
// (on an empty channel the caller schedules the new head itself). With
// overtake set (and at least two messages already queued) the new message
// lands immediately before the current tail — a pairwise FIFO violation: the
// tail moves back into the new slot, the message is written into the tail's,
// and the slot in front of the tail, which the tail names, trades the tail's
// ready time for the message's. A head is never overtaken.
func (s *Sim) enqueue(c *channel, id model.MsgID, p *node.Payload, readyAt, span int64, overtake bool) {
	idx := s.free
	if idx != noSlot {
		s.free = s.slot(idx).next
	} else {
		idx = s.slots
		if int(idx>>slabPageBits) == len(s.slab) {
			s.slab = append(s.slab, new(slabPage))
		}
		if s.cfg.Spans != nil && int(idx) == len(s.spanOf) {
			s.spanOf = append(s.spanOf, make([]int64, slabPageLen)...)
		}
		s.slots++
	}
	slot := s.slot(idx) // the new tail, in front of which is the old one
	slot.next, slot.behind = noSlot, int64(c.tail)
	at, m := idx, slot // where the message is written
	if c.n == 0 {
		c.head = idx
	} else {
		tail := s.slot(c.tail)
		tail.next = idx
		if overtake && c.n > 1 {
			front := s.slot(int32(tail.behind))
			slot.payload, slot.id = tail.payload, tail.id
			if s.spanOf != nil {
				s.spanOf[idx] = s.spanOf[c.tail]
			}
			readyAt, front.behind = front.behind, readyAt
			at, m = c.tail, tail
		}
		tail.behind = readyAt
	}
	m.payload, m.id = *p, id
	if s.spanOf != nil {
		s.spanOf[at] = span
	}
	c.tail = idx
	c.n++
	s.inflight++
}

// dequeue takes c's head off the channel, in flight no more, and returns its
// slot and enqueue span. The slot is the caller's until it frees it.
func (s *Sim) dequeue(c *channel) (idx int32, span int64) {
	idx = c.head
	c.head = s.slot(idx).next
	if c.n--; c.n == 0 {
		c.tail = noSlot
	}
	s.inflight--
	if s.spanOf != nil {
		span = s.spanOf[idx]
	}
	return idx, span
}

// freeSlot clears slot idx before it joins the free list, so a delivered
// payload is not pinned.
func (s *Sim) freeSlot(idx int32) {
	*s.slot(idx) = pendingMsg{next: s.free}
	s.free = idx
}

// scheduleDelivery enqueues channel c's head delivery to rc, its receiver, at
// time at, not earlier than now. Deliveries sharing a (time, receiver)
// coalesce into one occurrence and drain in ascending sender order —
// deterministic, and independent of the order the batch was assembled in. A
// receiver's open batches are kept latest-first, so finding (or placing) the
// batch for at is a binary search however many distinct due times the
// receiver holds, and the batch that fires next is always the last one.
func (s *Sim) scheduleDelivery(c *channel, rc *procCtx, at int64) {
	open := rc.open
	lo, hi := 0, len(open)
	for lo < hi { // latest-first: search for the first batch not later than at
		mid := int(uint(lo+hi) >> 1)
		if open[mid].at > at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(open) && open[lo].at == at {
		c.due, open[lo].head = open[lo].head, c
		return
	}
	c.due = nil
	rc.open = slices.Insert(open, lo, dueBatch{at: at, head: c})
	s.push(occ(at, occDeliver, c.to, 0))
}

// deliverBatch drains every channel head due for receiver rc at the current
// time. Occurrences fire in time order and every open batch has one, so the
// batch due now is the receiver's earliest — the last in its list. It is
// detached before it drains: a head rescheduled to the same tick during the
// drain (the next message of a channel whose head just delivered, or a
// channel un-gated by one of these deliveries) opens a fresh batch behind
// this one.
func (s *Sim) deliverBatch(rc *procCtx) {
	last := len(rc.open) - 1
	c := rc.open[last].head
	rc.open = rc.open[:last]
	if c.due == nil {
		s.deliver(rc, c)
		return
	}
	// Sorted descending: that is how senders acting in id order chain up, so
	// a link then costs one append. Nothing re-enters deliverBatch as it drains.
	links := s.drain[:0]
	for ; c != nil; c = c.due {
		i := len(links)
		links = append(links, c)
		for ; i > 0 && links[i-1].from < c.from; i-- {
			links[i] = links[i-1]
		}
		links[i] = c
	}
	s.drain = links
	for i := len(links) - 1; i >= 0; i-- {
		s.deliver(rc, links[i])
	}
}

// deliver attempts to deliver the head of channel c to its receiver rc. The
// head is ready: it was scheduled no earlier than its ready time, and an
// overtaking message lands behind it.
func (s *Sim) deliver(rc *procCtx, c *channel) {
	c.scheduled = false
	if c.n == 0 || rc.crashed {
		return
	}
	slot := s.slot(c.head)
	if rc.down {
		// Loss is decided per arrival: messages still in flight may yet land
		// after a restart.
		idx, span := s.dequeue(c)
		s.core.Lose(s.now, c.from, c.to, slot.id, span)
		next := slot.behind
		s.freeSlot(idx)
		s.scheduleHead(c, rc, next)
		return
	}
	if rc.gate != nil && !rc.gate.Accepts(c.from, slot.payload) {
		c.gated = true
		rc.gated = append(rc.gated, c)
		return
	}
	c.gated = false
	// The message is read where it lies; its slot is freed only after
	// OnMessage returns, so no send from the handler can take it first.
	idx, span := s.dequeue(c)
	e := s.event()
	e.Proc, e.Kind, e.Peer, e.Target, e.Msg, e.Tag = c.to, model.KindRecv, c.from, slot.payload.Subject, slot.id, slot.payload.Tag
	prevSpan := s.curSpan
	s.curSpan = s.core.Receive(&s.tally, s.now, c.from, c.to, slot.id, &slot.payload, span)
	s.scheduleHead(c, rc, slot.behind)
	rc.h.OnMessage(rc, c.from, slot.payload)
	s.freeSlot(idx)
	s.afterEvent(rc)
	s.curSpan = prevSpan
}

// afterEvent re-evaluates gated channels into c after any event of c: the
// gate's answer may have changed (e.g. a detection completed). Gated
// channels are tracked per receiver, in ascending sender order, so the pass
// costs O(channels gated into c), not a scan of every live link in the run.
func (s *Sim) afterEvent(c *procCtx) {
	if len(c.gated) == 0 || c.gone() {
		return
	}
	slices.SortFunc(c.gated, func(a, b *channel) int { return cmp.Compare(a.from, b.from) })
	still := c.gated[:0]
	for _, ch := range c.gated {
		if !ch.gated || ch.n == 0 {
			continue // stale entry; the channel was un-gated or drained
		}
		if !c.gate.Accepts(ch.from, s.slot(ch.head).payload) {
			still = append(still, ch)
			continue
		}
		ch.gated = false
		if !ch.scheduled {
			ch.scheduled = true
			s.scheduleDelivery(ch, c, s.now)
		}
	}
	c.gated = still
}

// scheduleHead queues a delivery occurrence for the head of channel c, if
// any, ready at at, to its receiver rc. It is called when a head takes its
// place — sent into an empty channel, or left at the front by the delivery or
// loss of the one before it — and so finds the channel neither scheduled nor
// gated. A parked head (at < 0) is noted on the channel and never scheduled.
func (s *Sim) scheduleHead(c *channel, rc *procCtx, at int64) {
	if c.n == 0 || rc.crashed {
		return
	}
	if at < 0 {
		c.parked = true
		return
	}
	c.scheduled = true
	s.scheduleDelivery(c, rc, max(at, s.now))
}

// blockedChannels reports every link still holding messages, in (from, to)
// order — the order the rows are kept in — into out's array when that is long
// enough, nil when there are none. It is the last walk over the processes and
// their links, so it is also where they let go of what a retired bulk must not
// pin: the handler and the Sim of each process, the payloads still queued.
func (s *Sim) blockedChannels(out []BlockedChannel) []BlockedChannel {
	n := 0
	for p := range s.ctxs {
		for _, c := range s.ctxs[p].row {
			if c.n != 0 {
				n++
			}
		}
	}
	if n == 0 {
		out = nil
	} else {
		out = slices.Grow(out[:0], n)
	}
	for p := range s.ctxs {
		pc := &s.ctxs[p]
		pc.s, pc.h, pc.gate = nil, nil, nil
		for _, c := range pc.row {
			if c.n == 0 {
				continue
			}
			reason := ReasonGated
			switch {
			// A process that is down at the end of the run is as gone as a
			// crashed one: its leftovers are expected, not a liveness failure.
			case s.ctxs[c.to].gone():
				reason = ReasonReceiverCrashed
			case c.parked:
				reason = ReasonParked
			case c.scheduled:
				// The run stopped at its horizon before the head's delivery.
				reason = ReasonInFlight
			}
			out = append(out, BlockedChannel{From: c.from, To: c.to, Queued: int(c.n), Reason: reason})
			for idx := c.head; idx != noSlot; {
				slot := s.slot(idx)
				idx, *slot = slot.next, pendingMsg{}
			}
		}
	}
	return out
}
