// Golden histories: "byte-identical" as a tier-1 property. Every digest in
// the table below was captured at the commit before the transport state was
// rebuilt (rows, message slab, recycled batches) and held through the
// rebuild of the event queue, the timer table and the recording (32-byte
// occurrences, slot-indexed timers, paged records materialised once) and the
// move to tick order (calendar queue, intrusive batches, one-line slots), over
// scenarios chosen to reach each ordering contract the simulator keeps:
// same-(tick, receiver) batches draining in ascending sender order, gated
// channels re-evaluated in ascending sender order, the reorder-before-tail
// swap and multi-copy enqueue on one channel in one tick, deliveries into a
// down process, and both horizon truncations. A change that moves any of
// them changes a digest.
package sim

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// digestResult hashes everything a run reports that the transport rewrite
// could move: every field of every event (Time and Seq included), the end
// time and stop reason, the blocked-channel report, the metrics snapshot and
// the sampled timeline, plus any extras the scenario hands in (span streams,
// handler-side delivery logs).
func digestResult(res *Result, extras ...any) string {
	h := fnv.New64a()
	for _, e := range res.History {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%s|%d\n", e.Seq, e.Proc, e.Kind, e.Peer, e.Target, e.Msg, e.Tag, e.Time)
	}
	fmt.Fprintf(h, "end=%d stop=%d\n", res.EndTime, res.Stop)
	fmt.Fprintf(h, "blocked=%+v\n", res.Blocked)
	fmt.Fprintf(h, "metrics=%+v\n", res.Metrics)
	fmt.Fprintf(h, "timeline=%+v\n", capturedTimeline(res.Timeline))
	for _, x := range extras {
		fmt.Fprintf(h, "extra=%+v\n", x)
	}
	return fmt.Sprintf("%016x/%d", h.Sum64(), len(res.History))
}

// capturedTimeline is the timeline as the digests were captured: each
// series' name, cadence, evictions and points, without the Peak the series
// gained later.
func capturedTimeline(tl []obs.TimelineSeries) any {
	type series struct {
		Name    string
		Every   int64
		Dropped int
		Points  []obs.TimelinePoint
	}
	out := make([]series, len(tl))
	for i, s := range tl {
		out[i] = series{s.Name, s.Every, s.Dropped, s.Points}
	}
	return out
}

// timedGate refuses APP messages from every sender above its `trusted`
// watermark until its "open" timer fires; OPEN messages raise the watermark
// one sender at a time. Several channels into it are gated at once, so the
// order in which afterEvent re-evaluates them decides the receive order.
type timedGate struct {
	openAt  int64
	open    bool
	trusted model.ProcID
	got     []string
}

func (h *timedGate) Init(ctx node.Context) { ctx.SetTimer("open", h.openAt) }
func (h *timedGate) OnTimer(ctx node.Context, name string) {
	h.open = true
}
func (h *timedGate) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	if p.Tag == "OPEN" && p.Subject > h.trusted {
		h.trusted = p.Subject
	}
	h.got = append(h.got, fmt.Sprintf("%d:%s@%d", from, p.Tag, ctx.Now()))
}
func (h *timedGate) Accepts(from model.ProcID, p node.Payload) bool {
	return h.open || p.Tag != "APP" || from <= h.trusted
}

// goldenGated: processes 2..6 each stream APP messages at the gate (process
// 1) over several ticks; process 7 raises the gate's watermark step by step,
// and the gate's own timer finally opens it for everyone.
func goldenGated() (*Result, []string) {
	const n = 7
	s := New(Config{N: n, Seed: 7, MinDelay: 1, MaxDelay: 4})
	g := &timedGate{openAt: 60}
	s.SetHandler(1, g)
	for p := model.ProcID(2); p <= 6; p++ {
		left := 6
		s.SetHandler(p, &scriptHandler{
			init: func(ctx node.Context) { ctx.SetTimer("app", 1) },
			onTimer: func(ctx node.Context, _ string) {
				ctx.Send(1, node.Payload{Tag: "APP", Subject: ctx.Self()})
				ctx.Send(1, node.Payload{Tag: "NOTE"})
				if left--; left > 0 {
					ctx.SetTimer("app", 5)
				}
			},
		})
	}
	step := model.ProcID(1)
	s.SetHandler(7, &scriptHandler{
		init: func(ctx node.Context) { ctx.SetTimer("raise", 12) },
		onTimer: func(ctx node.Context, _ string) {
			step++
			ctx.Send(1, node.Payload{Tag: "OPEN", Subject: step})
			if step < 4 {
				ctx.SetTimer("raise", 9)
			}
		},
	})
	return s.Run(), g.got
}

// goldenLinkMix drives scripted link decisions through the same channel in
// the same tick: every sender bursts eight messages per timer tick at each
// of two receivers, and the LinkFn cycles each channel through drop, park
// (late, on one channel only), extra delay, duplicates, reorder, replace and
// replay — including reorder+duplicates and replace+replay on one send. A
// timeline and a rate-1 span recorder ride along.
func goldenLinkMix() (*Result, []obs.Span) {
	const n = 4
	calls := make(map[[2]model.ProcID]int)
	link := func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		k := [2]model.ProcID{from, to}
		c := calls[k]
		calls[k] = c + 1
		ghost := node.Payload{Tag: "GHOST", Subject: from}
		switch c % 11 {
		case 1:
			return node.LinkDecision{Duplicates: 2}
		case 2:
			return node.LinkDecision{Reorder: true}
		case 3:
			return node.LinkDecision{ExtraDelay: 6}
		case 4:
			return node.LinkDecision{Drop: true}
		case 5:
			return node.LinkDecision{Reorder: true, Duplicates: 1}
		case 6:
			return node.LinkDecision{Replace: &node.Replacement{Payload: node.Payload{Tag: "FORGED", Subject: to}, Note: "corrupt"}}
		case 7:
			return node.LinkDecision{Replay: &node.ReplayedCopy{Payload: ghost, Delay: 3}}
		case 8:
			return node.LinkDecision{
				Replace: &node.Replacement{Payload: node.Payload{Tag: "FORGED2"}, Note: "equiv=g1"},
				Replay:  &node.ReplayedCopy{Payload: ghost, Delay: 1},
				Reorder: true,
			}
		case 9:
			// Park one channel, late: everything behind it stays blocked, and
			// later reorders swap in behind a parked head.
			if from == 3 && to == 1 && c > 20 {
				return node.LinkDecision{Park: true}
			}
			return node.LinkDecision{ExtraDelay: 1, Duplicates: 1, Reorder: true}
		}
		return node.LinkDecision{}
	}
	spans := obs.NewSpanRecorder(11, 1)
	s := New(Config{
		N: n, Seed: 11, MinDelay: 1, MaxDelay: 6, Link: link,
		Spans: spans, Timeline: obs.NewTimeline(3, 64), Metrics: obs.NewRegistry(),
	})
	for p := model.ProcID(1); p <= n; p++ {
		p := p
		left := 5
		s.SetHandler(p, &scriptHandler{
			init: func(ctx node.Context) { ctx.SetTimer("burst", int64(p)) },
			onTimer: func(ctx node.Context, _ string) {
				for i := 0; i < 8; i++ {
					ctx.Send(1+p%n, node.Payload{Tag: "M", Subject: model.ProcID(i)})
					ctx.Send(1+(p+1)%n, node.Payload{Tag: "K", Subject: model.ProcID(i)})
				}
				if left--; left > 0 {
					ctx.SetTimer("burst", 2)
				}
			},
		})
	}
	return s.Run(), spans.Spans()
}

// goldenRestartStorm is BenchmarkSimRestartStorm's scenario: two processes
// cycle crash/restart under durable recovery while eight flood at everyone,
// so deliveries land in down processes, timers die and are re-armed, and
// snapshots round-trip.
func goldenRestartStorm() (*Result, []int) {
	const n, rounds = 10, 30
	s := New(Config{
		N: n, Seed: 3, MaxTime: 300,
		Lifetimes: []recovery.Lifetime{
			{Proc: n, Crash: 5, Restart: 15, Period: 20},
			{Proc: n - 1, Crash: 10, Restart: 20, Period: 20},
		},
		Recovery: recovery.Durable,
	})
	for p := 1; p <= n-2; p++ {
		s.SetHandler(model.ProcID(p), &floodHandler{rounds: rounds})
	}
	a, b := &counterHandler{}, &restartTicker{}
	s.SetHandler(n-1, a)
	s.SetHandler(n, b)
	return s.Run(), []int{a.count, a.restarts, b.fired, b.restarts}
}

// restartTicker re-arms a timer across restarts and answers every flood
// message, so a crash kills a live timer and a restart brings it back.
type restartTicker struct {
	fired, restarts int
}

func (h *restartTicker) Init(ctx node.Context) { ctx.SetTimer("tick", 3) }
func (h *restartTicker) OnTimer(ctx node.Context, name string) {
	h.fired++
	ctx.SetTimer("tick", 3)
	ctx.SetTimer("never", 1)
	ctx.CancelTimer("never")
}
func (h *restartTicker) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	ctx.Send(from, node.Payload{Tag: "echo"})
}
func (h *restartTicker) Snapshot() []byte { return []byte{byte(h.fired)} }
func (h *restartTicker) OnRestart(ctx node.Context, state []byte) {
	h.restarts++
	h.Init(ctx)
}

// goldenFailed: every process declares each of the others failed twice over
// (failed_i(j) is single-shot, so half of them record nothing), tells it so,
// and one crashes itself mid-way; what arrives at the crashed one stays queued.
// Its digest was captured at 299166e, before runs recycled one another's
// failed sets and crash flags.
func goldenFailed() *Result {
	const n = 6
	s := New(Config{N: n, Seed: 21, MinDelay: 1, MaxDelay: 5})
	for p := model.ProcID(1); p <= n; p++ {
		p := p
		s.SetHandler(p, &scriptHandler{
			init: func(ctx node.Context) { ctx.SetTimer("accuse", int64(p)) },
			onTimer: func(ctx node.Context, _ string) {
				for q := model.ProcID(1); q <= n; q++ {
					if q == p {
						continue
					}
					ctx.EmitFailed(q)
					ctx.Send(q, node.Payload{Tag: "F", Subject: q})
					ctx.EmitFailed(q)
				}
				if p == 3 {
					ctx.CrashSelf()
				}
			},
			onMsg: func(ctx node.Context, from model.ProcID, pl node.Payload) {
				ctx.EmitInternal("accused", from)
			},
		})
	}
	return s.Run()
}

// goldenCases is the table of pinned runs: a scenario and the digest it must
// produce.
var goldenCases = []struct {
	name string
	run  func() string
	want string
}{
	{"flood n=10 rounds=20", func() string { return digestResult(runFlood(10, 20, 1)) }, "9b0e9ed0cf30b78b/3600"},
	{"flood n=10 rounds=40 long delays", func() string {
		return digestResult(runFloodCfg(Config{N: 10, Seed: 5, MinDelay: 1, MaxDelay: 200}, 40))
	}, "e61fbbd73242d7d4/7200"},
	{"chatter n=5 seed=99", func() string { return digestResult(chatterSim(5, 99).Run()) }, "a067285ef182c9a5/385"},
	{"gated until timer", func() string {
		res, got := goldenGated()
		return digestResult(res, got)
	}, "c048fbf16466b2ee/126"},
	{"link mix same channel same tick", func() string {
		res, spans := goldenLinkMix()
		return digestResult(res, spans)
	}, "c998d1f23697380e/764"},
	{"durable restart storm", func() string {
		res, counts := goldenRestartStorm()
		return digestResult(res, counts)
	}, "e02839ee29ea6ab9/4318"},
	{"max-events truncated", func() string {
		return digestResult(runFloodCfg(Config{N: 10, Seed: 2, MaxEvents: 777}, 20))
	}, "e4cf89bc09be148c/781"},
	{"max-time truncated", func() string {
		return digestResult(runFloodCfg(Config{N: 10, Seed: 2, MaxTime: 13}, 20))
	}, "41af54fa9771a268/1690"},
	{"failed twice and a crash", func() string { return digestResult(goldenFailed()) }, "31b87425723b5cb4/111"},
	{"gossip n=500 fanout=6", func() string {
		res, _ := runTopoFlood(500, 6, 3, 4, nil)
		return digestResult(res)
	}, "86d1ec8916dd1305/35820"},
}

func TestGoldenHistories(t *testing.T) {
	for _, tc := range goldenCases {
		if got := tc.run(); got != tc.want {
			t.Errorf("%s: digest %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestGoldenHistoriesFromPoisonedPages runs the pinned scenarios on several
// goroutines at once, out of record pages and occurrence pages filled with
// garbage: an event or a bucket entry read before the run wrote it, or a page
// two live runs share, moves a digest (or indexes a table out of range). Run
// it under -race.
func TestGoldenHistoriesFromPoisonedPages(t *testing.T) {
	poisonOccPages(256)
	for i := 0; i < 256; i++ {
		pg := new(recPage)
		for j := range pg {
			pg[j] = model.Event{Seq: -1, Proc: -1, Kind: ^model.Kind(0), Peer: -1, Target: -1, Msg: -1, Tag: "poison", Time: -1}
		}
		recPages.Put(pg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tc := range goldenCases {
				if got := tc.run(); got != tc.want {
					t.Errorf("%s: digest %q from poisoned pages, want %q", tc.name, got, tc.want)
				}
			}
		}()
	}
	wg.Wait()
}
