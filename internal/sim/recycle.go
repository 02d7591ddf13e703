// Recycling. A Sim is single-use, but what it built is not: the process table
// with each process's row, gate list and declared failures at their capacity,
// the handler table, the slab's pages, the link arena's chunks, the overflow
// heap's array and the generator are one bulk, which Run retires as its last
// step and New draws. Retired bulks wait on one stack that New pops, and
// concurrent runs find their own; the price is that a process keeps them
// (≈ 33 MB after a run at N=10,000) until runs draw them again. The calendar's
// ring (4 KiB of bucket heads and tails) is the bulk's too: release empties
// each bucket as it hands the bucket's pages back, so a run finds the ring as
// empty as a fresh one.
//
// New resets what it draws as if it were garbage — each process of its run
// has its flags, lists and tables emptied (its handler and gate are set by
// Run), the generator is told its seed, the arena re-carved from its first
// chunk, every slot and link written before it is read — and relies on
// retirement for two things, a nil handler table and an empty ring. Nothing it
// does scales with a run before it: the bulk holds no map, which would be
// emptied at the cost of the most it ever held (while the declared failures
// were one run-wide map, an n=10 run out of an n=10,000 run's bulk took 17–21
// times as long as out of a fresh one).
//
// The occurrence pages, the record pages and released Results stay in
// sync.Pools, which hand them between runs whatever bulk each run drew; each
// was measured in the bulk instead, in alternating pairs against the pools,
// and was dearer there. Pages held by the bulk stay live between runs, and
// flood-mesh-n10's setup_s rose from 0.44–0.49 to 0.82–0.97 ms (6 of 6
// pairs). A released Result tied to the bulk retired last, the pool taking it
// only when that bulk held one already, raised sweep-grid's alloc_kb_per_run
// from 10.88 to 10.91 (6 of 6 pairs) and its runs_per_s did not rise.
//
// The *Sim is never pooled: its counters are what a Config.Metrics registry
// reads, and a span recorder or a timeline belongs to the caller in the same
// way. So it holds nothing run-sized, ≈ 1 KiB; its steps count into a plain
// host.Tally that Run publishes into those atomic counters as the clock
// advances, so no message pays a locked add. Once Run has returned, At,
// CrashAt and SetHandler panic, and a node.Context — the procCtx — is some
// other run's: it was already valid only for the callback it was handed to. A
// Result is its caller's for good unless the caller gives it back with
// Release.
//
// The generator's stream is rand.New(rand.NewSource(Seed))'s, draw for draw —
// every pinned history was recorded from it, so it is reproduced (rng.go), not
// replaced — but its 607-word register is filled at the first draw, not by
// New: a run whose delays all come from Config.Delay never pays for it, and
// one that draws pays a fifth of what math/rand's seeding costs.

package sim

import (
	"sync"

	"failstop/internal/node"
)

// bulk is everything run-sized that is dead when Run returns. Run retires it as
// its last step and New draws one, so a run inherits the capacity of the one
// before it. It holds no map (see above): New must cost what its own run
// needs.
type bulk struct {
	rng      *delayRand
	handlers []node.Handler  // index 1..N; Run copies each into its procCtx
	ctxs     []procCtx       // index 1..N
	arenas   [][]channel     // every chunk links are carved from, in carving order
	slab     []*slabPage     // every in-flight message copy, linked per channel
	drain    []*channel      // deliverBatch's scratch: the batch being drained, sorted
	ring     *[calLen]bucket // the calendar's ring, empty between runs
	far      occHeap         // the calendar's overflow array, while no run holds it
}

// retired is the stack of bulks that finished runs left, held by value. It
// never drops one — a sync.Pool does at a collection, and hides one from a
// goroutine that has changed Ps — so runs one after another hand their bulk
// on and allocate the same whatever the collector or the scheduler does. It
// holds at most as many bulks as there were Runs in flight at once.
var retired struct {
	sync.Mutex
	bulks []bulk
}

// drawBulk pops the bulk retired last, or returns a zero bulk (nil rng) when
// there is none.
func drawBulk() bulk {
	retired.Lock()
	defer retired.Unlock()
	n := len(retired.bulks) - 1
	if n < 0 {
		return bulk{}
	}
	b := retired.bulks[n]
	retired.bulks[n] = bulk{} // the stack's array must not pin a bulk in use
	retired.bulks = retired.bulks[:n]
	return b
}

// retire hands the bulk to the next run. It is Run's last step and no
// deferred one: a run that panicked retires nothing. blockedChannels has
// already let go of the handlers' contexts and the queued payloads; with the
// handlers cleared the bulk points at nothing outside itself, and with its
// fields nil on s a late At, SetHandler or CrashAt panics.
func (s *Sim) retire() {
	clear(s.handlers)
	s.far, s.queue.ring, s.queue.far = s.queue.far, nil, nil
	retired.Lock()
	retired.bulks = append(retired.bulks, s.bulk)
	retired.Unlock()
	s.bulk = bulk{}
}

var results sync.Pool // of *Result, each released by its sole owner

// Release gives the result's memory — the arrays of History, Blocked and
// Metrics — to a later Run. Only the sole owner of the result may call it, and
// the caller must not read the result, its History included, afterwards: any
// Run on any goroutine may be rewriting it. Nothing requires the call; a
// result that is not released is the garbage collector's, as ever. Releasing a
// zero Result is harmless; releasing one twice panics.
func (r *Result) Release() {
	if r.released {
		panic("sim: Result released twice")
	}
	*r = Result{History: r.History[:0], Blocked: r.Blocked[:0], Metrics: r.Metrics[:0], released: true}
	results.Put(r)
}
