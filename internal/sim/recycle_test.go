// Recycling: a run draws its bulk from the run before it, and a Result whose
// sole owner released it is the next run's. These tests hand runs the most
// hostile memory another run can leave — and garbage over what New does not
// promise to find clean — and hold the pinned digests against it.
package sim

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/recovery"
)

// drainPools empties what this goroutine can reach of both pools.
func drainPools() {
	for drawBulk() != nil {
	}
	for results.Get() != nil {
	}
}

// hostileStopped leaves a bulk as full as a run can: it stops at MaxEvents
// with every channel into the gate refused, the even senders' channels into
// process 2 parked, one process crashed, one down with its restart still in
// the overflow heap beside the gate's timer, and failed_i(j) recorded for
// every pair.
func hostileStopped(t *testing.T) {
	const n = 12
	s := New(Config{
		N: n, Seed: 5, MaxEvents: 900, Recovery: recovery.Durable,
		Link: func(from, to model.ProcID, _ node.Payload, _ int64) node.LinkDecision {
			return node.LinkDecision{Park: to == 2 && from%2 == 0}
		},
		Lifetimes: []recovery.Lifetime{{Proc: 4, Crash: 3, Restart: 1 << 30}},
	})
	s.SetHandler(1, &timedGate{openAt: 1 << 30})
	for p := model.ProcID(2); p <= n; p++ {
		p, ticks := p, 0
		s.SetHandler(p, &scriptHandler{
			init: func(ctx node.Context) { ctx.SetTimer("go", 1) },
			onTimer: func(ctx node.Context, _ string) {
				for q := model.ProcID(1); q <= n; q++ {
					if q != p {
						ctx.Send(q, node.Payload{Tag: "APP", Subject: p})
						ctx.EmitFailed(q)
					}
				}
				if ticks++; p == 5 && ticks == 3 {
					ctx.CrashSelf()
				}
				ctx.SetTimer("go", 1)
			},
		})
	}
	res := s.Run()
	reasons := map[string]int{}
	for _, b := range res.Blocked {
		reasons[b.Reason]++
	}
	if res.Stop != StopMaxEvents || reasons[ReasonGated] == 0 || reasons[ReasonParked] == 0 || reasons[ReasonReceiverCrashed] == 0 {
		t.Fatalf("hostile run: stop %v, blocked by reason %v; want max-events and all three reasons", res.Stop, reasons)
	}
}

// maxTimeStopped stops a flood at MaxTime with occurrences still in the
// calendar's ring, which its bulk hands on: the next run must find it empty.
func maxTimeStopped(t *testing.T) {
	const n = 10
	s := New(Config{N: n, Seed: 3, MaxTime: 12})
	for p := model.ProcID(1); p <= n; p++ {
		s.SetHandler(p, &floodHandler{rounds: 50})
	}
	if res := s.Run(); res.Stop != StopMaxTime || s.queue.held == 0 {
		t.Fatalf("flood: stop %v with %d occurrences in the ring; want max-time with some", res.Stop, s.queue.held)
	}
}

// freeListDrained delivers every message into a handler that sends until
// the slab's free list is empty, and once more, while the slot the message
// was delivered from is not yet freed: were that slot on the free list, the
// first send would take it, and freeing it after OnMessage would hand one
// slot to two messages. Each payload carries its link's sequence number, and
// every message must arrive once, in order.
func freeListDrained(t *testing.T) {
	const n, budget = 6, 600
	s := New(Config{N: n, Seed: 11})
	sent, got := map[[2]model.ProcID]int{}, map[[2]model.ProcID]int{}
	next := make([]model.ProcID, n+1) // each sender's next receiver, round robin
	left := budget
	send := func(ctx node.Context) {
		from := ctx.Self()
		if next[from] = next[from]%n + 1; next[from] == from {
			next[from] = next[from]%n + 1
		}
		link := [2]model.ProcID{from, next[from]}
		ctx.Send(link[1], node.Payload{Tag: "SEQ", Subject: model.ProcID(sent[link])})
		sent[link]++
		left--
	}
	drains := 0
	for p := model.ProcID(1); p <= n; p++ {
		s.SetHandler(p, &scriptHandler{
			init: send,
			onMsg: func(ctx node.Context, from model.ProcID, pl node.Payload) {
				link := [2]model.ProcID{from, ctx.Self()}
				if int(pl.Subject) != got[link] {
					t.Fatalf("link %v: message %d arrived as %d", link, got[link], pl.Subject)
				}
				got[link]++
				for left > 0 {
					drained := s.free == noSlot
					send(ctx)
					if drained {
						drains++
						break
					}
				}
			},
		})
	}
	if res := s.Run(); res.Stop != StopDrained || len(res.Blocked) != 0 || !reflect.DeepEqual(got, sent) || drains == 0 {
		t.Fatalf("drained free list: stop %v, blocked %v, %d free lists drained; received %v of %v", res.Stop, res.Blocked, drains, got, sent)
	}
}

// hostileRuns are the runs whose bulks the golden scenarios inherit: larger
// than all but one of them and smaller than that one, smaller than all, full
// at the stop, stopped at MaxTime with its ring in use, one whose handlers
// drain the slab's free list from OnMessage, and one with Spans on
// (goldenLinkMix; every other one hands the Spans-on golden scenario a bulk
// that had none).
var hostileRuns = []struct {
	name string
	run  func(t *testing.T)
}{
	{"gossip n=400", func(*testing.T) { runTopoFlood(400, 8, 2, 9, nil) }},
	{"flood n=2", func(*testing.T) { runFlood(2, 3, 1) }},
	{"stopped full", hostileStopped},
	{"stopped at MaxTime", maxTimeStopped},
	{"free list drained", freeListDrained},
	{"spans on", func(*testing.T) { goldenLinkMix() }},
}

// canary is a pair no run records: New clears the failed set of a bulk it
// draws, so a bulk that still holds it was not drawn.
var canary = [2]model.ProcID{-1, -1}

// scribble writes garbage over everything in b that New does not promise to
// find clean — all of it but the handlers, which retirement leaves nil, the
// calendar's ring, which it leaves empty, and the capacities — at full
// capacity and with every length at its capacity.
func scribble(b *bulk) {
	ch := &channel{from: -1, to: -1, head: 1 << 20, tail: 1 << 20, n: 9, scheduled: true, gated: true, parked: true}
	ch.due = ch
	poison := &timedGate{openAt: -1, trusted: -1}
	ctxs := b.ctxs[:cap(b.ctxs)]
	for i := range ctxs {
		c := &ctxs[i]
		gated, row := c.gated[:cap(c.gated)], c.row[:cap(c.row)]
		for j := range gated {
			gated[j] = ch
		}
		for j := range row {
			row[j] = ch
		}
		*c = procCtx{s: new(Sim), p: -9, crashed: true, down: true, h: poison, gate: poison, gated: gated, row: row}
		for j := range c.openBuf {
			c.openBuf[j] = dueBatch{at: -5, head: ch}
		}
		for j := range c.timerBuf {
			c.timerBuf[j] = timerSlot{name: "tick", armed: int64(j)}
		}
		c.open, c.timers = c.openBuf[:], c.timerBuf[:]
	}
	for _, pg := range b.slab {
		for j := range pg {
			pg[j] = pendingMsg{payload: node.Payload{Tag: "POISON", Subject: -1}, behind: -7, id: -1, next: 1 << 20}
		}
	}
	for i := range b.arenas {
		b.arenas[i] = b.arenas[i][:cap(b.arenas[i])]
		for j := range b.arenas[i] {
			b.arenas[i][j] = *ch
		}
	}
	b.drain = b.drain[:cap(b.drain)]
	for i := range b.drain {
		b.drain[i] = ch
	}
	b.far = b.far[:cap(b.far)]
	for i := range b.far {
		b.far[i] = occurrence{time: -1, seq: -1, proc: -1, what: ^uint32(0)}
	}
	for i := model.ProcID(-2); i <= 16; i++ {
		for j := model.ProcID(-2); j <= 16; j++ {
			b.failed[[2]model.ProcID{i, j}] = true
		}
	}
	*b.rng = delayRand{seed: -1, filled: true, tap: 1 << 20, feed: -1}
	for i := range b.rng.vec {
		b.rng.vec[i] = -1
	}
}

// TestGoldenHistoriesFromPoisonedBulk runs every pinned scenario out of the
// bulk each hostile run retired, as it was left and with garbage over it: a
// digest moves if New reads anything inherited before writing it. A mutation
// that keeps a row's length, a crashed or down flag, a failed pair or the
// generator's position fails here.
func TestGoldenHistoriesFromPoisonedBulk(t *testing.T) {
	// One P: New asks the pool first, and a bulk another test's goroutines left
	// with a P that drainPools did not run on must not be drawn in place of the
	// hostile one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runs, drawn := 0, 0
	for _, hostile := range hostileRuns {
		for _, garbage := range []bool{false, true} {
			for _, tc := range goldenCases {
				drainPools()
				hostile.run(t)
				b := drawBulk()
				b.failed[canary] = true
				if garbage {
					scribble(b)
				}
				lastBulk.Store(b)
				if got := tc.run(); got != tc.want {
					t.Errorf("%s out of the bulk of %q (garbage %v): digest %q, want %q", tc.name, hostile.name, garbage, got, tc.want)
				}
				runs++
				if !b.failed[canary] {
					drawn++
				}
			}
		}
	}
	if drawn != runs {
		t.Errorf("%d of %d golden runs drew the hostile bulk put for them", drawn, runs)
	}
}

// TestBulkOutlivesCollections: runs one after another hand their bulk on
// whatever the collector does in between. Two collections empty a sync.Pool;
// were the bulk only there, what a run allocates — 10 k or 65 k times at
// N=10,000 — would depend on when the process last collected.
func TestBulkOutlivesCollections(t *testing.T) {
	drainPools()
	runFlood(10, 2, 1)
	kept := lastBulk.Load()
	if kept == nil {
		t.Fatal("the run's bulk was not retired to lastBulk, which was empty")
	}
	runtime.GC()
	runtime.GC()
	if s := New(Config{N: 10, Seed: 1}); &s.ctxs[0] != &kept.ctxs[:1][0] {
		t.Error("after two collections New did not draw the bulk the run before it retired")
	}
}

// TestResultNotAliasedByLaterRuns: a Result that was not released is its
// holder's for good, whatever later runs on the goroutine draw and release.
func TestResultNotAliasedByLaterRuns(t *testing.T) {
	res := chatterSim(5, 99).Run()
	if len(res.History) == 0 || len(res.Blocked) == 0 {
		t.Fatalf("scenario recorded %d events and %d blocked channels, want some of both", len(res.History), len(res.Blocked))
	}
	keep := *res
	keep.History, keep.Blocked, keep.Metrics = slices.Clone(res.History), slices.Clone(res.Blocked), slices.Clone(res.Metrics)
	for i := 0; i < 200; i++ {
		r := chatterSim(2+i%17, int64(i)).Run()
		if i%3 != 0 {
			r.Release()
		}
	}
	if !reflect.DeepEqual(*res, keep) {
		t.Errorf("an unreleased Result changed under 200 later runs:\n got %+v\nwant %+v", *res, keep)
	}
}

// TestReleasedResultIsRewritten: the next owner of a released Result sees its
// own run and nothing of the longer one before it, and a run longer than the
// inherited array allocates its own.
func TestReleasedResultIsRewritten(t *testing.T) {
	drainPools()
	long := runFlood(10, 20, 1)
	longLen := len(long.History)
	long.Release()
	short := goldenFailed()
	if !raceEnabled && cap(short.History) < longLen {
		t.Errorf("history capacity %d: the released %d-event array was not drawn", cap(short.History), longLen)
	}
	for i, e := range short.History {
		if int(e.Seq) != i {
			t.Fatalf("History[%d].Seq = %d", i, e.Seq)
		}
	}
	if got, want := digestResult(short), "31b87425723b5cb4/111"; got != want {
		t.Errorf("run into a released Result: digest %q, want %q", got, want)
	}
	short.Release()
	if got, want := digestResult(runFlood(10, 20, 1)), goldenCases[0].want; got != want {
		t.Errorf("run longer than the released Result: digest %q, want %q", got, want)
	}
}

// TestBulkNotRetiredOnPanic: a run that panics keeps its bulk, half-used as
// it is, out of the pool.
func TestBulkNotRetiredOnPanic(t *testing.T) {
	s := New(Config{N: 3, Seed: 1})
	for p := model.ProcID(1); p <= 3; p++ {
		s.SetHandler(p, &scriptHandler{
			init: func(ctx node.Context) {
				ctx.Send(1+ctx.Self()%3, node.Payload{Tag: "m"})
				ctx.SetTimer("boom", 5)
			},
			onTimer: func(ctx node.Context, _ string) { panic("boom") },
		})
	}
	mine := &s.ctxs[0]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the handler's panic", r)
			}
		}()
		s.Run()
	}()
	if s.ctxs == nil {
		t.Error("the panicked run's bulk is off its Sim")
	}
	for {
		b := drawBulk()
		if b == nil {
			break
		}
		if cap(b.ctxs) > 0 && &b.ctxs[:1][0] == mine {
			t.Error("the panicked run's bulk is in the pool")
		}
	}
	for _, tc := range goldenCases {
		if got := tc.run(); got != tc.want {
			t.Errorf("%s after a panicked run: digest %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCallsAfterRunPanic: what a finished Sim would write to is another
// run's, and a Result can be released once.
func TestCallsAfterRunPanic(t *testing.T) {
	s := newSim(t, 2, 1)
	res := s.Run()
	new(Result).Release() // a zero Result: harmless
	res.Release()
	for _, tc := range []struct {
		want string
		call func()
	}{
		{"sim: At after Run", func() { s.At(1, 1, func(node.Context) {}) }},
		{"sim: CrashAt after Run", func() { s.CrashAt(1, 1) }},
		{"sim: SetHandler after Run", func() { s.SetHandler(1, idle()) }},
		{"sim: Run called twice", func() { s.Run() }},
		{"sim: Result released twice", res.Release},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("recovered %v, want %q", r, tc.want)
				}
			}()
			tc.call()
		}()
	}
	drainPools() // res is in the pool and in this test's hands: let no run draw it
}
