package model

// Latency is the timing of one detection, failed_i(j), read off the ticks
// its history's recorder stamped on the events (Event.Time). Two readings of
// "how long a detection took" are in use and neither is the other, so each
// has its name here; with the two that say when and why it ended, a row
// carries four measures. A measure the history does not define is -1: no
// recorder stamps a tick earlier than the one before it, and on such a
// history every defined measure is at least 0.
type Latency struct {
	Detection
	// Tick is when failed_i(j) executed.
	Tick int64
	// FirstSuspicion is the ticks from the first internal suspect of j
	// anywhere in the run, before failed_i(j), to failed_i(j): the §5
	// detector's one round, as E9, E12 and A2 read it.
	FirstSuspicion int64
	// Pair is the ticks from i's own first suspect(i, j), before
	// failed_i(j), to failed_i(j).
	Pair int64
	// Quorum is the tick of the last suspTag receive in the detection's
	// quorum row: i's last hearing about j before failed_i(j). It is a tick,
	// not a span; -1 if i heard nothing about j.
	Quorum int64
	// All is set on one row per process j that is down when the history
	// ends and that every process of 1..n up at the end has detected: the
	// row of the latest of those detections (by tick, then history order),
	// which gets the ticks from j's last crash to it. A j detected before it
	// crashed (an erroneous suspicion its victim then obeyed) has none.
	All int64
}

// Latencies reads one row per failed_i(j) off the recorded run h, in history
// order, in the scan's one walk; suspTag is the tag the detector's "j
// failed" messages travel under, whose receives the quorum rows hold. A
// history naming a process outside 0..MaxProcs has none.
func Latencies(h History, suspTag string) []Latency {
	w := scratchPool.Get().(*scratch)
	var out []Latency
	if w.scan(h, nil, suspTag, readLatency).Index.Err() == nil {
		out = append(out, w.lat...)
	}
	scratchPool.Put(w)
	return out
}

// suspected notes the suspicion e, at position at in h: its target's first,
// and its pair's first.
func (w *scratch) suspected(e *Event, at int) {
	if w.fsusp[e.Target] == 0 {
		w.fsusp[e.Target] = int32(at + 1)
	}
	if w.hcol[e.Target] == 0 {
		w.block(e.Target, true)
	}
	if slot := &w.psusp[int(w.hcol[e.Target]-1)*w.ids+int(e.Proc)]; *slot == 0 {
		*slot = int32(at + 1)
	}
}

// heardAt notes the suspTag receive at position at in h as row's last.
func (w *scratch) heardAt(row, at int) {
	if row >= len(w.hlast) {
		w.hlast = grown(w.hlast, row+1)
	}
	w.hlast[row] = int32(at + 1)
}

// latency is the row of the detection d, the event e, as far as the walk up
// to it knows: everything but All.
func (w *scratch) latency(h History, d Detection, e *Event) Latency {
	l := Latency{Detection: d, Tick: e.Time, FirstSuspicion: -1, Pair: -1, Quorum: -1, All: -1}
	if at := w.fsusp[e.Target]; at != 0 {
		l.FirstSuspicion = e.Time - h[at-1].Time
	}
	if c := w.hcol[e.Target]; c != 0 {
		slot := int(c-1)*w.ids + int(e.Proc)
		if at := w.psusp[slot]; at != 0 {
			l.Pair = e.Time - h[at-1].Time
		}
		if r := w.hrow[slot]; r != 0 {
			l.Quorum = h[w.hlast[r-1]-1].Time
		}
	}
	return l
}

// crashedAll sets the All measure once the walk is over and x knows who is
// down at the end.
func (w *scratch) crashedAll(h History, x *Index) {
	for j := ProcID(1); int(j) <= x.n; j++ {
		if !x.down[j] || !x.detected(j) {
			continue
		}
		last := -1
		for i := ProcID(1); int(i) <= x.n; i++ {
			if x.down[i] {
				continue
			}
			k := x.Detection(i, j)
			if k < 0 {
				last = -1
				break
			}
			if last < 0 || w.lat[k].Tick > w.lat[last].Tick || w.lat[k].Tick == w.lat[last].Tick && k > last {
				last = k
			}
		}
		if last < 0 {
			continue
		}
		if d := w.lat[last].Tick - h[w.lcrash[j]-1].Time; d >= 0 {
			w.lat[last].All = d
		}
	}
}
