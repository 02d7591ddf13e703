// The calendar against the heap it replaces: the same pushes give the same
// pops.
package sim

import (
	"math/rand"
	"testing"
)

// poisonOccPages fills the occurrence-page pool with pages whose every word
// is wrong: a fill count past the end, a chain into another poisoned page,
// entries of no kind for no process. A page used without being reset, or an
// entry read at or beyond its page's fill, then panics or moves a result.
func poisonOccPages(pages int) {
	var prev *occPage
	for i := 0; i < pages; i++ {
		pg := &occPage{next: prev, n: occPageLen + 1}
		for j := range pg.occ {
			pg.occ[j] = occurrence{time: -1, seq: -1, proc: -1, what: ^uint32(0)}
		}
		occPages.Put(pg)
		prev = pg
	}
}

// TestCalendarMatchesHeap runs seeded scripts of pushes and pops against the
// calendar and against a plain occHeap that is handed the time the clamp rule
// gives. The scripts push to the tick being drained and into the past, at the
// window's edge (255, 256 and 257 ticks ahead), and far ahead (10⁴ and 2⁴⁰
// ticks); busy stretches alternate with stretches that let the ring run empty,
// so the next pop jumps to a far tick, over the whole ring and many wraps of
// it. Three scripts in four stop with occurrences still queued, as a run does
// at MaxTime, and the ring they release — one ring, as a bulk hands it from run
// to run — the pages they release and the poisoned ones are what the next
// script draws.
func TestCalendarMatchesHeap(t *testing.T) {
	poisonOccPages(64)
	delays := []int64{0, 0, 1, 1, 2, 3, 5, 8, 10, 40, 254, 255, 256, 257, 300, 511, 512, 10_000, 1 << 40, -1, -300}
	const busyPops = 3_000
	var jumps, shared int // pops that found the ring empty; direct pushes to a tick a far occurrence had moved to
	ring := new([calLen]bucket)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := calendar{ring: ring}
		var ref occHeap
		var seq, now int64
		farTo := map[int64]bool{}
		push := func() {
			o := occ(now+delays[rng.Intn(len(delays))], occKind(1+rng.Intn(5)), 1, rng.Intn(1000))
			o.seq = seq
			seq++
			q.push(o)
			o.time = max(o.time, now)
			ref.pushOcc(o)
			if o.time-now >= calLen {
				farTo[o.time] = true
			} else if farTo[o.time] {
				shared++
			}
		}
		for i := 0; i < 50; i++ {
			push()
		}
		busy := true
		for pops := 1; q.len() > 0 && (pops <= busyPops || seed%4 == 0); pops++ {
			if len(ref) != q.len() {
				t.Fatalf("seed %d: the calendar holds %d occurrences, the heap %d", seed, q.len(), len(ref))
			}
			if q.held == 0 {
				jumps++
			}
			got, want := q.pop(), ref.popOcc()
			if got != want {
				t.Fatalf("seed %d, pop %d: the calendar gave %+v, the heap %+v", seed, pops, got, want)
			}
			now = got.time
			switch {
			case pops >= busyPops: // the rest only drains
			case busy:
				for k := rng.Intn(4); k > 0; k-- {
					push()
				}
				busy = pops%300 != 0
			default:
				busy = q.held == 0
			}
		}
		q.release()
	}
	if jumps < 100 || shared < 100 {
		t.Errorf("the scripts jumped over an empty ring %d times and pushed %d times to a tick a far occurrence had moved to: too few to tell", jumps, shared)
	}
}
