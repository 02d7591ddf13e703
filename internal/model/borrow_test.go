package model

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// sameBorrowed compares a borrowed reading with the owned one of the same
// history: the abstract history and quorum rows element for element (a
// borrowed reading's arrays are the workspace's, at any capacity, and nil
// when empty if the workspace is fresh), every
// index accessor, failed-before's cycle, and — on a history whose ids are in
// range — happens-before over the history the reading indexes, the HB its
// index lends asked first in the workspace and NewHB in arrays of its own.
func sameBorrowed(got *Scan, want *Scan, indexed History) error {
	if !slices.Equal(got.Abstract, want.Abstract) {
		return fmt.Errorf("Abstract = %v, want %v", got.Abstract, want.Abstract)
	}
	if !slices.Equal(got.Quorums, want.Quorums) || got.Words != want.Words {
		return fmt.Errorf("Quorums = %v (%d words), want %v (%d)", got.Quorums, got.Words, want.Quorums, want.Words)
	}
	if err := sameIndex(got.Index, want.Index); err != nil {
		return err
	}
	if g, w := got.Index.FailedBefore().Cycle(), want.Index.FailedBefore().Cycle(); !slices.Equal(g, w) {
		return fmt.Errorf("Cycle() = %v, want %v", g, w)
	}
	if want.Index.Err() != nil {
		return nil
	}
	hb, ref := got.Index.HB(), NewHB(indexed)
	for _, p := range hbPairs(len(indexed)) {
		if g, w := hb.Before(p[0], p[1]), ref.Before(p[0], p[1]); g != w {
			return fmt.Errorf("Before(%d, %d) = %v, want %v", p[0], p[1], g, w)
		}
	}
	return nil
}

// hbPairs is which (a, b) the comparison asks: all of them on a short
// history, a spread of 400 on a long one, the first question always
// (0, n-1), which computes the clocks.
func hbPairs(n int) [][2]int {
	if n < 2 {
		return nil
	}
	out := [][2]int{{0, n - 1}}
	if n <= 20 {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				out = append(out, [2]int{a, b})
			}
		}
		return out
	}
	for k := 0; k < 400; k++ {
		out = append(out, [2]int{k * 7919 % n, k * 104729 % n})
	}
	return out
}

// indexedBy is the history a reading's positions are in: the abstract
// history if it read one, h otherwise.
func indexedBy(h History, r reading, want *Scan) History {
	if r.abstract {
		return want.Abstract
	}
	return h
}

// A borrowed reading trusts nothing in its workspace either. From a scratch
// filled with garbage — the walk's tables, the borrowed reading's own, the
// clocks and the colours, lengths included — it reads what the owned exit
// reads, and its HB and its failed-before answer as owned ones do: the
// scratch in hand, drawn through the pool, and through the pool from eight
// goroutines at once.
func TestBorrowedReadingFromPoisonedScratch(t *testing.T) {
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
		poison(w, k)
		s := w.read(j.h, j.drop, "SUSP", j.r.want(), true)
		if err := sameBorrowed(s, j.want, indexedBy(j.h, j.r, j.want)); err != nil {
			t.Fatalf("%s, scratch in hand: %v", j.name, err)
		}
		w.end()
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
				var err error
				borrow(j.h, j.drop, "SUSP", j.r.want(), func(s *Scan) {
					err = sameBorrowed(s, j.want, indexedBy(j.h, j.r, j.want))
				})
				if err != nil {
					t.Errorf("%s, goroutine %d: %v", j.name, g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The exported exits are those readings.
	for name, h := range oracleHistories() {
		tags := oracleTagLists[2]
		want := NewScan(h, "SUSP", tags...)
		ReadScan(h, "SUSP", tags, func(s *Scan) {
			if err := sameBorrowed(s, want, want.Abstract); err != nil {
				t.Errorf("ReadScan(%s): %v", name, err)
			}
		})
		wantIndex := &Scan{Index: NewIndex(h)}
		ReadIndex(h, func(x *Index) {
			if err := sameBorrowed(&Scan{Index: x}, wantIndex, h); err != nil {
				t.Errorf("ReadIndex(%s): %v", name, err)
			}
		})
	}
}

// A borrowed reading dies with its callback: kept past it, the Scan is
// empty, its Index reports errEnded and answers "none", and the HB panics —
// it reads nothing of the history it was lent for.
func TestBorrowedReadingEndsWithItsCallback(t *testing.T) {
	h := History{
		Recv(1, 2, 1, "SUSP", 3), Recv(2, 1, 2, "APP", None), Crash(3), Failed(1, 3), Failed(2, 3), Failed(3, 1), Failed(1, 2), Failed(2, 1),
	}.Normalize()
	var (
		s  *Scan
		x  *Index
		hb *HB
	)
	ReadScan(h, "SUSP", []string{"SUSP"}, func(bs *Scan) {
		s, x, hb = bs, bs.Index, bs.Index.HB()
		if x.Err() != nil || len(x.Detections()) != 5 || x.FailedBefore().Cycle() == nil || !hb.Before(2, 5) {
			t.Fatalf("inside the callback: Err %v, %d detections, cycle %v", x.Err(), len(x.Detections()), x.FailedBefore().Cycle())
		}
	})
	if s.Index != nil || s.Abstract != nil || s.Quorums != nil || s.Words != 0 {
		t.Errorf("a Scan kept past its callback holds %+v", *s)
	}
	ended := func(what string, x *Index) {
		t.Helper()
		if x.Err() != errEnded || x.Processes() != 0 || len(x.Detections()) != 0 || x.Detection(1, 3) != -1 ||
			x.CrashIndex(3) != -1 || x.DownAtEnd(3) || x.FailedBefore().Cycle() != nil || x.HB() != nil {
			t.Errorf("%s kept past its callback: Err %v, %d processes, %d detections", what, x.Err(), x.Processes(), len(x.Detections()))
		}
	}
	ended("ReadScan's Index", x)
	panics := func(what string, hb *HB) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s kept past its callback answered", what)
			}
		}()
		hb.Before(2, 5)
	}
	panics("ReadScan's HB", hb)

	ReadIndex(h, func(bx *Index) { x, hb = bx, bx.HB() })
	ended("ReadIndex's Index", x)
	panics("ReadIndex's HB", hb)

	if NewIndex(h).HB() != nil {
		t.Error("an index of its own lends a happens-before")
	}
}

// The scratch holds no map: a pooled map is emptied at the cost of the most
// it ever held, so a small reading after a large one would pay for the large
// one. Happens-before's send table and sFS2d's taint stay per-call maps.
func TestScratchHoldsNoMap(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Map:
			t.Errorf("%s is a map (%s)", path, ty)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("scratch", reflect.TypeOf(scratch{}))
}

// TestReadAllocBudget pins what a borrowed reading costs the allocator once
// its workspace is warm: nothing — the walk, the reading cut to size, the
// happens-before clocks and the failed-before search all work in the pooled
// scratch. NewScan, NewIndex and NewHB over the same history measure 8, 6
// and 3: the arrays their callers keep.
func TestReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement")
	}
	// Twelve processes chatter, then 3, 7 and 11 crash and every other
	// process detects each on a SUSP: detections, quorum rows, messages for
	// the clocks, and no failed-before cycle, whose report would be an
	// allocation of its own.
	var h History
	msg := MsgID(0)
	for r := 0; r < 60; r++ {
		if p, q := ProcID(1+r%12), ProcID(1+(r*5+3)%12); p != q {
			msg++
			h = append(h, Send(p, q, msg, "APP", None), Recv(q, p, msg, "APP", None))
		}
	}
	for _, j := range []ProcID{3, 7, 11} {
		h = append(h, Crash(j))
		for i := ProcID(1); i <= 12; i++ {
			if i%4 != 3 {
				msg++
				h = append(h, Send(i%12+1, i, msg, "SUSP", j), Recv(i, i%12+1, msg, "SUSP", j), Failed(i, j))
			}
		}
	}
	h.Normalize()
	tags := []string{"SUSP", "HB"}
	asked := 0
	read := testing.AllocsPerRun(20, func() {
		ReadScan(h, "SUSP", tags, func(s *Scan) {
			s.Index.HB().Before(0, len(s.Abstract)-1) // computes the clocks
			if s.Index.FailedBefore().Cycle() == nil && len(s.Index.Detections()) == 27 {
				asked++
			}
		})
		ReadIndex(h, func(x *Index) {
			x.HB().Before(0, len(h)-1)
			if x.FailedBefore().Cycle() == nil && len(x.Detections()) == 27 {
				asked++
			}
		})
	})
	if asked != 2*21 {
		t.Fatalf("%d of %d readings saw 27 detections and no cycle", asked, 2*21)
	}
	owned := testing.AllocsPerRun(20, func() {
		NewScan(h, "SUSP", tags...)
		NewIndex(h)
		NewHB(h)
	})
	t.Logf("%d events: ReadScan + ReadIndex with their clocks and cycle searches %.0f allocations; NewScan + NewIndex + NewHB %.0f", len(h), read, owned)
	if read > 0 {
		t.Errorf("a borrowed reading allocated %.0f times, budget 0", read)
	}
}
