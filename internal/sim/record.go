// History. Each event is written once, as the model.Event the history returns
// (its Seq is its index, its Time the tick), into pages of 1,024 events that
// runs hand to one another through a pool and never clear: nothing is
// outgrown, re-copied or zeroed while the run records. A send's and a
// receive's event are written field by field where they land: built whole and
// passed by value, an event is stored in pieces and read back in wider ones,
// which the store buffer cannot forward (recording was then ≈ 21 % of a flood
// run at n=10). Recording is ≈ 5 % of a flood run at n=10 and materialize's
// copy into Result.History ≈ 9 % (BenchmarkSimHotPath, 169 KiB of history, on
// a 2-vCPU Xeon); three quarters of the copy's part is allocating the fresh
// array, which the runtime clears before the copy fills it.

package sim

import (
	"sync"

	"failstop/internal/model"
)

const (
	recPageBits = 10
	recPageLen  = 1 << recPageBits
)

// recPage is a page of the recording. Pages are handed from run to run
// through recPages and never cleared: a run writes every event below nrec
// before materialize reads it, and reads none above. A stale event pins at
// most its tag until the pool drops the page.
type recPage [recPageLen]model.Event

var recPages = sync.Pool{New: func() any { return new(recPage) }}

// event appends an event to the recording and returns it where it lies, its
// Seq (its index) and Time (the current tick) written. The caller writes every
// other field, field by field, as above: a page is never cleared. Send and
// deliver write theirs so; record is for the rest.
func (s *Sim) event() *model.Event {
	i := s.nrec & (recPageLen - 1)
	if i == 0 {
		s.page = recPages.Get().(*recPage)
		s.pages = append(s.pages, s.page)
	}
	e := &s.page[i]
	e.Seq, e.Time = int32(s.nrec), s.now
	s.nrec++
	return e
}

// record appends e to the recording as the event the history returns: its
// Seq is its index, its Time the current tick. It serves the events that are
// not a message's (crash, restart, failed, internal), which are the ones a
// suspicion count or a detection span can follow.
func (s *Sim) record(e model.Event) {
	at := s.event()
	e.Seq, e.Time = at.Seq, at.Time
	*at = e
	if e.Kind == model.KindInternal && e.Tag == model.TagSuspect {
		s.suspects++
	}
	if s.cfg.Spans != nil { // checked here too: it keeps the call off the per-event path
		s.core.Detection(s.now, s.curSpan, e)
	}
}

// materialize copies the recording into the history, once and at its exact
// length — in h's array when a released Result left one long enough — and
// hands the pages on to the next run.
func (s *Sim) materialize(h model.History) model.History {
	if h == nil || cap(h) < s.nrec {
		h = make(model.History, s.nrec)
	}
	h = h[:s.nrec]
	for pi, pg := range s.pages {
		copy(h[pi<<recPageBits:], pg[:])
		recPages.Put(pg)
	}
	s.pages, s.page = nil, nil
	return h
}
