// The event queue. Virtual time is integer ticks and nearly every occurrence
// lands a few ticks ahead, so the queue is a calendar: a ring of 256 buckets,
// one per tick, each a FIFO of 32-byte, pointer-free occurrences in pooled
// pages that are never cleared. Insertion sequence only grows, so appending to
// a bucket keeps (time, sequence) order with no comparison. An occurrence 256
// ticks ahead or more waits in a binary heap — the only use a heap still has —
// and moves into the ring when its tick enters the window, before anything of
// that tick runs and before anything can be pushed to that tick directly. An
// occurrence pushed for a tick already passed belongs to the current one,
// behind what it already holds. What an occurrence would point at — a timer's
// name, an injected function, a lifetime — sits in a table and the occurrence
// carries its index.

package sim

import (
	"sync"

	"failstop/internal/model"
)

type occKind uint8

const (
	occDeliver occKind = iota + 1
	occTimer
	occInject
	occPlanCrash
	occRestart
)

// occurrence is one event-queue entry: 32 bytes, no pointers, and the four
// fields the compiler will still keep in registers — with a fifth, every copy
// goes through memory in pieces (TestQueueAndRecordLayout holds all three).
type occurrence struct {
	time int64
	seq  int64  // insertion order; total tie-break
	proc int32  // the batch receiver of an occDeliver; the process of any other
	what uint32 // the occKind in the low occKindBits, the ref above them
}

const occKindBits = 3

// occ builds an occurrence; push numbers it. ref is an occTimer's slot in the
// process's timer table, an occInject's index in Sim.injects, an occPlanCrash's
// or occRestart's in Config.Lifetimes: memory holds fewer than 2²⁹ of any.
func occ(time int64, kind occKind, proc model.ProcID, ref int) occurrence {
	return occurrence{time: time, proc: int32(proc), what: uint32(kind) | uint32(ref)<<occKindBits}
}

func (o occurrence) kind() occKind { return occKind(o.what & (1<<occKindBits - 1)) }
func (o occurrence) ref() int      { return int(o.what >> occKindBits) }

// occHeap is a binary min-heap of occurrences ordered by (time, seq): the
// calendar's overflow, for occurrences beyond its window. It stores values,
// not pointers, and implements push/pop directly instead of through
// container/heap, whose interface-based API boxes every occurrence into an
// allocation per push.
type occHeap []occurrence

func (h occHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *occHeap) pushOcc(o occurrence) {
	q := append(*h, o)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *occHeap) popOcc() occurrence {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(r, l) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return top
}

const (
	calLen     = 256 // ticks the calendar's ring looks ahead
	occPageLen = 63  // with its header a page is 2 KiB
)

// occPage is a page of one tick's occurrences. Like the record pages, occPages
// pass from run to run through a pool, never cleared: no entry at or above n
// is read.
type occPage struct {
	next *occPage // first, so it is the only word of a page the collector reads
	n    int      // entries written
	occ  [occPageLen]occurrence
}

var occPages = sync.Pool{New: func() any { return new(occPage) }}

// bucket is one tick of the calendar's ring: a FIFO of pages.
type bucket struct{ head, tail *occPage }

// calendar is the event queue described above. Every occurrence in far is at
// least calLen ticks ahead of now, so the earliest one is in the ring whenever
// the ring holds any. The ring and far's array are the bulk's: a calendar
// starts from an empty ring and leaves it empty at release.
type calendar struct {
	now   int64 // the tick being drained; its bucket is ring[now&(calLen-1)]
	rd    int   // entries already popped from that bucket's head page
	held  int   // occurrences in the ring
	ring  *[calLen]bucket
	far   occHeap
	spare *occPage // the page released last: a sparse tick goes round no pool
}

func (q *calendar) len() int { return q.held + len(q.far) }

// push queues o, a time already passed counting as the current tick.
func (q *calendar) push(o occurrence) {
	if o.time < q.now {
		o.time = q.now
	}
	if o.time-q.now >= calLen {
		q.far.pushOcc(o)
		return
	}
	b := &q.ring[o.time&(calLen-1)]
	pg := b.tail
	if pg == nil || pg.n == occPageLen {
		np := q.spare
		if q.spare = nil; np == nil {
			np = occPages.Get().(*occPage)
		}
		np.next, np.n = nil, 0
		if pg == nil {
			b.head = np
		} else {
			pg.next = np
		}
		b.tail, pg = np, np
	}
	pg.occ[pg.n] = o
	pg.n++
	q.held++
}

// pop removes and returns the earliest occurrence of a queue that holds one,
// moving now to its tick. When that leaves the current tick, the far
// occurrences whose ticks enter the window move into the ring first, in the
// heap's order: nothing could be pushed to those ticks directly before.
func (q *calendar) pop() occurrence {
	b := &q.ring[q.now&(calLen-1)]
	if b.head == nil {
		if q.held > 0 {
			for q.now++; q.ring[q.now&(calLen-1)].head == nil; q.now++ {
			}
		} else {
			q.now = q.far[0].time
		}
		for len(q.far) > 0 && q.far[0].time-q.now < calLen {
			q.push(q.far.popOcc())
		}
		b = &q.ring[q.now&(calLen-1)]
	}
	pg := b.head
	o := pg.occ[q.rd]
	q.held--
	if q.rd++; q.rd == pg.n { // read out: a later push to this tick starts a new page
		if b.head = pg.next; b.head == nil {
			b.tail = nil
		}
		q.rd = 0
		if q.spare == nil {
			q.spare = pg
		} else {
			occPages.Put(pg)
		}
	}
	return o
}

// release hands every page still held to the next run, emptying the ring.
func (q *calendar) release() {
	for i := range q.ring {
		for pg := q.ring[i].head; pg != nil; {
			next := pg.next
			occPages.Put(pg)
			pg = next
		}
		q.ring[i] = bucket{}
	}
	if q.spare != nil {
		occPages.Put(q.spare)
	}
}
