package model

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// transport reports whether e is a send or receive carrying one of tags.
func (e *Event) transport(tags []string) bool {
	return (e.Kind == KindSend || e.Kind == KindRecv) && slices.Contains(tags, e.Tag)
}

// scanTwoWalk is scan as it stood before the one walk — a first pass over
// the history to size every table, a second to fill them — kept as the
// reference the one walk is compared against.
func scanTwoWalk(h History, drop []string, suspTag string, abstract, quorums bool) *Scan {
	var all, kept ProcID
	nkeep, nd := 0, 0
	for i := range h {
		e := &h[i]
		if e.outOfRange() {
			return &Scan{Index: &Index{err: procIDViolation(i, e)}}
		}
		top := max(e.Proc, e.Peer, e.Target)
		all = max(all, top)
		if e.transport(drop) {
			continue
		}
		kept = max(kept, top)
		nkeep++
		if e.Kind == KindFailed {
			nd++
		}
	}

	n := int(kept)
	tab := make([]int32, 2*(n+1))
	x := &Index{n: n, crash: tab[:n+1], col: tab[n+1:], down: make([]bool, n+1), dets: make([]Detection, 0, nd)}
	s := &Scan{Index: x}
	if abstract {
		s.Abstract = make(History, 0, nkeep)
	}
	var hcol, hrow []int32
	var heard []uint64
	stride, words := int(all)+1, int(all)/64+1
	if quorums {
		hcol = make([]int32, stride)
		s.Quorums, s.Words = make([]uint64, nd*words), words
	}

	for i := range h {
		e := &h[i]
		if quorums && e.Kind == KindRecv && e.Tag == suspTag && e.Target != None {
			if hcol[e.Target] == 0 {
				hrow = append(hrow, make([]int32, stride)...)
				hcol[e.Target] = int32(len(hrow) / stride)
			}
			slot := &hrow[int(hcol[e.Target]-1)*stride+int(e.Proc)]
			if *slot == 0 {
				heard = append(heard, make([]uint64, words)...)
				*slot = int32(len(heard) / words)
			}
			heard[(int(*slot)-1)*words+int(e.Peer)/64] |= 1 << (uint(e.Peer) % 64)
		}
		if e.transport(drop) {
			continue
		}
		pos := i
		if abstract {
			pos = len(s.Abstract)
			s.Abstract = append(s.Abstract, *e)
			s.Abstract[pos].Seq = int32(pos)
		}
		switch {
		case e.Kind == KindCrash:
			if x.crash[e.Proc] == 0 {
				x.crash[e.Proc] = int32(pos + 1)
			}
			x.down[e.Proc] = true
		case e.Kind == KindInternal && e.Tag == TagRestart:
			x.down[e.Proc] = false
		case e.Kind == KindFailed:
			if quorums {
				q := s.Quorums[len(x.dets)*words:][:words]
				if c := hcol[e.Target]; c != 0 {
					if r := hrow[int(c-1)*stride+int(e.Proc)]; r != 0 {
						copy(q, heard[int(r-1)*words:][:words])
					}
				}
				q[int(e.Proc)/64] |= 1 << (uint(e.Proc) % 64)
			}
			if x.col[e.Target] == 0 {
				x.first = append(x.first, make([]int32, n+1)...)
				x.col[e.Target] = int32(len(x.first) / (n + 1))
			}
			if slot := &x.first[int(x.col[e.Target]-1)*(n+1)+int(e.Proc)]; *slot == 0 {
				*slot = int32(len(x.dets) + 1)
			}
			x.dets = append(x.dets, Detection{Detector: e.Proc, Detected: e.Target, Index: pos})
		}
	}
	return s
}

// reading is one of the three ways a caller reaches scan.
type reading struct {
	name              string
	abstract, quorums bool
}

var readings = []reading{{"NewScan", true, true}, {"NewIndex", false, false}, {"DropTags", true, false}}

// want is the reading as scan is asked for it.
func (r reading) want() (want int) {
	if r.abstract {
		want |= readAbstract
	}
	if r.quorums {
		want |= readQuorums
	}
	return want
}

// sameScan compares everything a caller can reach: the abstract history to
// its capacity, every table, every accessor one id past each end.
func sameScan(got, want *Scan) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("scans differ:\n got %+v\n     %+v\nwant %+v\n     %+v", got, got.Index, want, want.Index)
	}
	if cap(got.Abstract) != cap(want.Abstract) {
		return fmt.Errorf("cap(Abstract) = %d, want %d", cap(got.Abstract), cap(want.Abstract))
	}
	g, w := got.Index, want.Index
	if fmt.Sprint(g.Err()) != fmt.Sprint(w.Err()) || g.Processes() != w.Processes() || !reflect.DeepEqual(g.Detections(), w.Detections()) {
		return fmt.Errorf("Err, Processes or Detections differ: %v %d %v, want %v %d %v",
			g.Err(), g.Processes(), g.Detections(), w.Err(), w.Processes(), w.Detections())
	}
	for i := ProcID(-1); int(i) <= w.Processes()+1; i++ {
		if g.CrashIndex(i) != w.CrashIndex(i) || g.DownAtEnd(i) != w.DownAtEnd(i) {
			return fmt.Errorf("CrashIndex(%d), DownAtEnd(%d) = %d, %v, want %d, %v", i, i, g.CrashIndex(i), g.DownAtEnd(i), w.CrashIndex(i), w.DownAtEnd(i))
		}
		for j := ProcID(-1); int(j) <= w.Processes()+1; j++ {
			if g.Detection(i, j) != w.Detection(i, j) {
				return fmt.Errorf("Detection(%d, %d) = %d, want %d", i, j, g.Detection(i, j), w.Detection(i, j))
			}
		}
	}
	return nil
}

// oracleHistories is what the comparisons read: generated histories, and the
// hand-built ones the widening has to get right.
func oracleHistories() map[string]History {
	hs := map[string]History{"empty": nil}
	for seed := int64(0); seed < 60; seed++ {
		g := NewGen(seed)
		g.FailedWeight = 5 + int(seed%3)*10
		hs[fmt.Sprintf("gen-%d", seed)] = g.History(3+int(seed%9), 40+int(seed)*5)
	}
	// Rows, columns and quorum rows exist, for a small and a large process,
	// before the id that widens the tables is first named — as a sender heard
	// from, as a detector, as a detected target, as a kept peer — and every
	// table is used again afterwards.
	late := func(id ProcID) History {
		return History{
			Recv(1, 2, 1, "SUSP", 3), Recv(1, 3, 2, "SUSP", 3), Recv(2, 1, 3, "SUSP", 3), Recv(1, 2, 4, "SUSP", 4),
			Crash(3), Failed(1, 3), Recv(2, 3, 5, "HB", None), Send(1, 2, 6, "APP", None),
			Recv(1, id, 7, "SUSP", 3), Recv(1, id, 8, "SUSP", 4), Recv(2, 1, 9, "SUSP", id), Recv(id, 2, 10, "SUSP", 3),
			Failed(2, 3), Failed(id, 3), Failed(2, id), Crash(id), Failed(1, 4), Restart(id), Failed(1, 3),
			Recv(id-1, 1, 11, "SUSP", id), Failed(id-1, id), Send(4, id, 12, "APP", None),
		}.Normalize()
	}
	for _, id := range []ProcID{31, 32, 63, 64, 65, 127, 128, 200} {
		hs[fmt.Sprintf("late-%d", id)] = late(id)
	}
	// The id that widens is named by dropped traffic only: the quorum rows
	// are a word wider than the membership is.
	hs["late-dropped-only"] = History{
		Recv(1, 2, 1, "SUSP", 3), Failed(1, 3), Recv(1, 70, 2, "SUSP", 3), Recv(1, 130, 3, "HB", None), Failed(2, 3), Failed(1, 3),
	}.Normalize()
	// The empty tag is a tag: dropped when the list names it, and what a
	// suspicion travels under when suspTag is "" — from the first event on.
	hs["empty-tag-first"] = History{
		Send(1, 2, 1, "", None), Recv(2, 1, 1, "", 3), Send(1, 2, 2, "APP", None), Failed(2, 3), Recv(2, 1, 2, "APP", None), Send(3, 1, 3, "", None),
	}.Normalize()
	// Two widenings with live rows between them.
	hs["widen-twice"] = append(append(late(64), late(300)...), late(5)...).Normalize()
	// An out-of-range id at the first, a middle and the last event.
	for _, at := range []int{0, 7, 21} {
		for name, bad := range map[string]Event{"big": Recv(1, MaxProcs+1, 99, "SUSP", 3), "negative": Failed(2, -1)} {
			h := late(64)
			h[at] = bad
			hs[fmt.Sprintf("out-of-range-%s-at-%d", name, at)] = h
		}
	}
	return hs
}

// Nothing, one tag, checker.TransportTags' four, and a list with "" in it.
var oracleTagLists = [][]string{nil, {"SUSP"}, {"SUSP", "ACK", "HB", "ECHO"}, {"HB", "", "DATA"}}

// forEachReading calls f with every (history, reading, tag list) and the
// two-walk scan's answer for it.
func forEachReading(f func(name string, h History, drop []string, r reading, want *Scan)) {
	for hname, h := range oracleHistories() {
		for _, r := range readings {
			for _, drop := range oracleTagLists {
				if !r.abstract && drop != nil {
					continue // NewIndex drops nothing
				}
				f(fmt.Sprintf("%s/%s/%q", hname, r.name, drop), h, drop, r, scanTwoWalk(h, drop, "SUSP", r.abstract, r.quorums))
			}
		}
	}
}

// The one walk yields what the two walks it replaced yield, field for field.
func TestScanMatchesTwoWalkOracle(t *testing.T) {
	widened, rejected := 0, 0
	forEachReading(func(name string, h History, drop []string, r reading, want *Scan) {
		if err := sameScan(scan(h, drop, "SUSP", r.want()), want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if want.Words > 1 {
			widened++
		}
		if want.Index.Err() != nil {
			rejected++
		}
	})
	if widened == 0 || rejected == 0 {
		t.Errorf("%d readings with a second quorum word, %d rejected: the comparison does not reach them", widened, rejected)
	}
	// The exported entry points are those readings.
	for name, h := range oracleHistories() {
		tags := oracleTagLists[2]
		if err := sameScan(NewScan(h, "SUSP", tags...), scanTwoWalk(h, tags, "SUSP", true, true)); err != nil {
			t.Errorf("NewScan(%s): %v", name, err)
		}
		if err := sameScan(&Scan{Index: NewIndex(h)}, scanTwoWalk(h, nil, "", false, false)); err != nil {
			t.Errorf("NewIndex(%s): %v", name, err)
		}
		if err := sameScan(NewScan(h, "", ""), scanTwoWalk(h, []string{""}, "", true, true)); err != nil {
			t.Errorf(`NewScan(%s, "", ""): %v`, name, err)
		}
		if got, want := h.DropTags(tags...), scanTwoWalk(h, tags, "", true, false).Abstract; !reflect.DeepEqual(got, want) || cap(got) != cap(want) {
			t.Errorf("DropTags(%s) = %v (cap %d), want %v (cap %d)", name, got, cap(got), want, cap(want))
		}
	}
}

// poison fills every array of w with garbage to its capacity and leaves the
// lengths wrong: what a scan may find in a scratch another scan used.
func poison(w *scratch, seed int) {
	w.ids = seed*13 - 5
	for _, s := range []*[]int32{&w.crash, &w.hcol, &w.hrow, &w.qrow, &w.keep, &w.fsusp, &w.lcrash, &w.psusp, &w.hlast} {
		garble(s, seed, func(i int) int32 { return int32(i*31 + seed + 1) })
	}
	garble(&w.down, seed, func(int) bool { return true })
	garble(&w.heard, seed, func(i int) uint64 { return ^uint64(i) })
	garble(&w.dets, seed, func(i int) Detection { return Detection{Detector: ProcID(i + 1), Detected: ProcID(seed), Index: -i} })
	garble(&w.lat, seed, func(i int) Latency {
		return Latency{Tick: int64(i), FirstSuspicion: int64(seed), Pair: 7, Quorum: 9, All: -int64(i)}
	})
}

// garble grows *s, fills it to its capacity with junk and cuts it to a
// length that has nothing to do with what it holds.
func garble[T any](s *[]T, seed int, junk func(i int) T) {
	*s = append(*s, make([]T, 70+seed)...)
	*s = (*s)[:cap(*s)]
	for i := range *s {
		(*s)[i] = junk(i)
	}
	*s = (*s)[:(len(*s)*7+seed)%(len(*s)+1)]
}

// A scan trusts nothing it finds in its scratch: from one filled with
// garbage, lengths included, it reads what it reads from a fresh one —
// handed the scratch directly, through the pool, and through the pool from
// eight goroutines at once.
func TestScanFromPoisonedScratch(t *testing.T) {
	type job struct {
		name string
		h    History
		drop []string
		r    reading
		want *Scan
	}
	var jobs []job
	forEachReading(func(name string, h History, drop []string, r reading, want *Scan) {
		jobs = append(jobs, job{name, h, drop, r, want})
	})
	w := new(scratch)
	for k, j := range jobs {
		poison(w, k) // on top of what the scan before left
		if err := sameScan(w.scan(j.h, j.drop, "SUSP", j.r.want()), j.want); err != nil {
			t.Fatalf("%s, scratch in hand: %v", j.name, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(jobs); k += 3 { // strides overlap: goroutines read the same histories
				j := jobs[k]
				p := scratchPool.Get().(*scratch)
				poison(p, k+g)
				scratchPool.Put(p)
				if err := sameScan(scan(j.h, j.drop, "SUSP", j.r.want()), j.want); err != nil {
					t.Errorf("%s, goroutine %d: %v", j.name, g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
