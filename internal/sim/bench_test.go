// Micro-benchmarks of the simulator hot path: the send → schedule →
// deliver → timer loop that every scenario run in a sweep turns around
// millions of times. The flood workload is pure harness — inert protocol
// logic — so ns/op and allocs/op measure the simulator itself, not the
// handlers.
//
// Run with: go test ./internal/sim -bench=SimHotPath -benchmem
package sim

import (
	"reflect"
	"runtime"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// floodHandler broadcasts to every peer on each of its first rounds timer
// ticks and counts deliveries. It exercises sends, channel scheduling,
// deliveries, and timer set/fire — the four occurrence paths — with no
// protocol logic on top.
type floodHandler struct {
	rounds int
	got    int
}

func (h *floodHandler) Init(ctx node.Context) { ctx.SetTimer("tick", 1) }

func (h *floodHandler) OnTimer(ctx node.Context, name string) {
	for p := 1; p <= ctx.N(); p++ {
		if model.ProcID(p) != ctx.Self() {
			ctx.Send(model.ProcID(p), node.Payload{Tag: "flood", Subject: ctx.Self()})
		}
	}
	h.rounds--
	if h.rounds > 0 {
		ctx.SetTimer("tick", 1)
	}
}

func (h *floodHandler) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	h.got++
}

// runFlood executes one n-process, rounds-round flood and returns its
// result (for sanity checks outside the timed loop).
func runFlood(n, rounds int, seed int64) *Result {
	return runFloodObs(n, rounds, seed, nil)
}

// runFloodObs is runFlood with a metrics registry attached.
func runFloodObs(n, rounds int, seed int64, reg *obs.Registry) *Result {
	return runFloodCfg(Config{N: n, Seed: seed, Metrics: reg}, rounds)
}

// runFloodCfg runs the flood on every process of an arbitrary Config.
func runFloodCfg(cfg Config, rounds int) *Result {
	s := New(cfg)
	for p := 1; p <= cfg.N; p++ {
		s.SetHandler(model.ProcID(p), &floodHandler{rounds: rounds})
	}
	return s.Run()
}

// BenchmarkSimHotPath is the headline simulator micro-benchmark: one full
// flood run per iteration (n=10, 20 rounds: 1800 sends and deliveries plus
// 200 timers). allocs/op here is the per-run allocation budget the sweep
// engine pays for every (cell, seed) scenario.
func BenchmarkSimHotPath(b *testing.B) {
	const n, rounds = 10, 20
	want := runFlood(n, rounds, 1)
	if want.Sent != n*(n-1)*rounds || want.Delivered != want.Sent {
		b.Fatalf("flood sent %d delivered %d, want %d", want.Sent, want.Delivered, n*(n-1)*rounds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runFlood(n, rounds, int64(i))
		if res.Stop != StopDrained {
			b.Fatalf("stop = %v", res.Stop)
		}
	}
	b.ReportMetric(float64(n*(n-1)*rounds)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkSimHotPathObs is BenchmarkSimHotPath with a metrics registry
// attached: the observability plane's overhead on the hottest path. The
// instruments are embedded zero-value atomics, so attaching a registry
// costs registration (a handful of map inserts per run) and no allocation
// per message; TestObsAllocBudget gates its allocs/op at ≤ 16 over the bare
// one. A send or a receive is a plain add into the simulator's host.Tally,
// registry or not; the locked adds are Run's, one per counter that moved,
// each time the clock advances.
func BenchmarkSimHotPathObs(b *testing.B) {
	const n, rounds = 10, 20
	want := runFloodObs(n, rounds, 1, obs.NewRegistry())
	if want.Sent != n*(n-1)*rounds || want.Delivered != want.Sent {
		b.Fatalf("flood sent %d delivered %d, want %d", want.Sent, want.Delivered, n*(n-1)*rounds)
	}
	if want.Metrics.Value("sim_sent_total") != int64(want.Sent) {
		b.Fatalf("metrics disagree with result: %s", want.Metrics)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runFloodObs(n, rounds, int64(i), obs.NewRegistry())
		if res.Stop != StopDrained {
			b.Fatalf("stop = %v", res.Stop)
		}
	}
	b.ReportMetric(float64(n*(n-1)*rounds)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// TestObsAllocBudget is the in-tree version of the CI gate: attaching a
// registry to the hot path may add at most 16 allocations per run (it adds
// 9: the registrations). The budget is absolute — a percentage of a base
// that keeps falling would turn the next fixed-cost cut into a false alarm:
// the base is 14 now that a run inherits its bulk, and nothing about a
// registry decides whether it does.
func TestObsAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement")
	}
	const n, rounds = 10, 20
	bare := testing.AllocsPerRun(20, func() { runFlood(n, rounds, 1) })
	withObs := testing.AllocsPerRun(20, func() { runFloodObs(n, rounds, 1, obs.NewRegistry()) })
	if withObs > bare+16 {
		t.Errorf("metrics-on hot path allocates %.0f/run, bare %.0f/run: over the 16-allocation budget", withObs, bare)
	}
}

// TestRegistryReadDuringRun: a registry read while a long flood runs on
// another goroutine sees every counter only grow and never more receives than
// sends (Run publishes as its clock advances, Sent before Delivered), and once
// Run has returned it reads what Result.Metrics does.
func TestRegistryReadDuringRun(t *testing.T) {
	reg := obs.NewRegistry()
	stop, read := make(chan struct{}), make(chan obs.Metrics)
	go func() {
		var prev obs.Metrics
		for stopped := false; !stopped; {
			select {
			case <-stop:
				stopped = true
			default:
			}
			ms := reg.Snapshot() // after stop: the reading once Run has returned
			for _, m := range prev {
				if now := ms.Value(m.Name); m.Kind == obs.KindCounter && now < m.Value {
					t.Errorf("%s read %d after %d", m.Name, now, m.Value)
				}
			}
			if sent, got := ms.Value("sim_sent_total"), ms.Value("sim_delivered_total"); got > sent {
				t.Errorf("read %d deliveries of %d sends", got, sent)
			}
			prev = ms
		}
		read <- prev
	}()
	res := runFloodObs(10, 400, 1, reg)
	close(stop)
	if last := <-read; !reflect.DeepEqual(last, res.Metrics) {
		t.Errorf("registry read %v after the run, Result.Metrics %v", last, res.Metrics)
	}
	if want := 10 * 9 * 400; res.Sent != want || res.Delivered != want {
		t.Errorf("the flood sent %d and delivered %d, want %d each", res.Sent, res.Delivered, want)
	}
}

// allocsAndKiB measures one call of fn: heap allocations and KiB allocated,
// each the mean over runs calls, in the steady state — after a call that
// leaves its bulk and pages in the pools, and on one P like
// testing.AllocsPerRun, so that what a call retires is what the next draws.
func allocsAndKiB(runs int, fn func()) (allocs, kib float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up: lazy runtime state and the first bulk are not the run's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(runs)
}

// TestSimHotPathAllocBudget pins the sweep-cell-sized run's allocation
// floor in absolute terms, at what it measures plus a tenth: out of the bulk
// of the run before it, the n=10 × 20-round flood (1,800 messages) takes 15
// allocations and 178 KiB, 169 of them the history it returns and does not
// release — the Sim, its Result, history and snapshot, the ten handlers —
// where a run that built its own bulk took 84 and 334 KiB (and 16 while a
// retired bulk was boxed for a pool). A message costs no allocation of its
// own: doubling the rounds adds one or two, the longer history's size class
// (and a record or occurrence page or two when a collection has just emptied
// the pools, which is what the budgets round up for).
func TestSimHotPathAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement")
	}
	const n = 10
	allocs20, kib20 := allocsAndKiB(20, func() { runFlood(n, 20, 1) })
	t.Logf("n=%d × 20 rounds: %.1f allocations, %.1f KiB per run", n, allocs20, kib20)
	if allocs20 > 16 || kib20 > 196 {
		t.Errorf("n=%d × 20 rounds allocates %.0f times, %.0f KiB per run: over the 16 / 196 KiB budget", n, allocs20, kib20)
	}
	allocs40, _ := allocsAndKiB(20, func() { runFlood(n, 40, 1) })
	if extra := allocs40 - allocs20; extra > 8 {
		t.Errorf("1,800 more messages cost %.0f more allocations (%.0f -> %.0f), want <= 8: a message allocates again",
			extra, allocs20, allocs40)
	}
}

// TestSimWideDelayAllocBudget is the wide-delay regime's floor: nearly every
// message is its own delivery batch, most due beyond the calendar's window —
// the regime that lives in the overflow heap — and a batch allocates nothing:
// 278 allocations for 20,160 messages (each receiver's list of open batches
// doubling as it outgrows its inline twelve; the rows, the slab and the heap's
// array are the last run's — 860 when they were not), plus a tenth.
func TestSimWideDelayAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement")
	}
	allocs := testing.AllocsPerRun(3, func() { runWideDelay(1) })
	if allocs > 306 {
		t.Errorf("wide-delay flood allocates %.0f times for %d messages: over the 306 budget", allocs, wideDelayMsgs)
	}
}

// BenchmarkSimRestartStorm prices the crash-recovery machinery: a flood
// workload in which two processes cycle crash/restart on periodic
// lifetimes under durable recovery, so each iteration pays for the down
// transitions, snapshot save/restore round trips, in-flight delivery
// drops, and timer-generation sweeps on top of the ordinary hot path.
func BenchmarkSimRestartStorm(b *testing.B) {
	const n, rounds = 10, 30
	run := func(seed int64) *Result {
		s := New(Config{
			N: n, Seed: seed, MaxTime: 300,
			Lifetimes: []recovery.Lifetime{
				{Proc: n, Crash: 5, Restart: 15, Period: 20},
				{Proc: n - 1, Crash: 10, Restart: 20, Period: 20},
			},
			Recovery: recovery.Durable,
		})
		for p := 1; p <= n-2; p++ {
			s.SetHandler(model.ProcID(p), &floodHandler{rounds: rounds})
		}
		s.SetHandler(n-1, &counterHandler{})
		s.SetHandler(n, &counterHandler{})
		return s.Run()
	}
	want := run(1)
	if want.Restarts == 0 || want.Recovered != want.Restarts {
		b.Fatalf("Restarts=%d Recovered=%d, want equal and > 0", want.Restarts, want.Recovered)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run(int64(i))
		if res.Restarts == 0 {
			b.Fatalf("seed %d: storm never restarted", i)
		}
	}
	b.ReportMetric(float64(want.Restarts)*float64(b.N)/b.Elapsed().Seconds(), "restarts/s")
}

// BenchmarkSimTimerChurn isolates the timer path: one process re-arming
// (and cancelling) named timers with no messages at all — the heartbeat
// layer's dominant simulator load, and the calendar's worst case: two
// occurrences to a tick, so a bucket's page is taken and given back for each.
func BenchmarkSimTimerChurn(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{N: 2, Seed: int64(i)})
		s.SetHandler(1, &timerChurnHandler{left: 1000})
		s.SetHandler(2, &floodHandler{})
		res := s.Run()
		if res.Stop != StopDrained {
			b.Fatalf("stop = %v", res.Stop)
		}
	}
}

// timerChurnHandler re-arms two timers left times, cancelling one each
// tick so both the fire and the stale-generation paths run.
type timerChurnHandler struct {
	left int
}

func (h *timerChurnHandler) Init(ctx node.Context) {
	ctx.SetTimer("beat", 1)
}

func (h *timerChurnHandler) OnTimer(ctx node.Context, name string) {
	h.left--
	if h.left <= 0 {
		return
	}
	ctx.SetTimer("beat", 1)
	ctx.SetTimer("probe", 2)
	ctx.CancelTimer("probe")
}

func (h *timerChurnHandler) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {}

// runWideDelay executes the wide-delay flood: a full mesh whose message
// delays spread over far more ticks than a receiver has links, so nearly
// every message is its own delivery batch and every receiver holds one open
// due time per incoming link at once.
func runWideDelay(seed int64) *Result {
	return runFloodCfg(Config{N: 64, Seed: seed, MinDelay: 1, MaxDelay: 2000}, 5)
}

// wideDelayMsgs is the message count of one runWideDelay run.
const wideDelayMsgs = 64 * 63 * 5

// BenchmarkSimWideDelay guards the regime no bench/ workload covers: the
// per-receiver list of open batches is long (one entry per incoming link)
// and churns on every message, so a lookup that is linear in the list — or
// a batch that allocates — shows up here as ns/msg and allocs/op.
func BenchmarkSimWideDelay(b *testing.B) {
	want := runWideDelay(1)
	if want.Sent != wideDelayMsgs || want.Delivered != want.Sent {
		b.Fatalf("flood sent %d delivered %d, want %d", want.Sent, want.Delivered, wideDelayMsgs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := runWideDelay(int64(i)); res.Stop != StopDrained {
			b.Fatalf("stop = %v", res.Stop)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/wideDelayMsgs, "ns/msg")
}

// failedHandler declares the last k processes but itself failed in Init, each
// twice: the second call of a pair is the single-shot rule's to swallow.
type failedHandler struct{ k int }

func (h failedHandler) Init(ctx node.Context) {
	for j := ctx.N() - h.k + 1; j <= ctx.N(); j++ {
		if model.ProcID(j) != ctx.Self() {
			ctx.EmitFailed(model.ProcID(j))
			ctx.EmitFailed(model.ProcID(j))
		}
	}
}
func (failedHandler) OnTimer(node.Context, string)                       {}
func (failedHandler) OnMessage(node.Context, model.ProcID, node.Payload) {}

// runFailed runs n processes that each declare the last k failed: 27
// detections at n=10, k=3, and 39,996 at n=10,000, k=4.
func runFailed(n, k int) *Result {
	s := New(Config{N: n, Seed: 1})
	for p := 1; p <= n; p++ {
		s.SetHandler(model.ProcID(p), failedHandler{k})
	}
	return s.Run()
}

// BenchmarkSimSmallAfterLarge prices an n=10 run with 27 detections out of a
// fresh bulk ("before") and out of the bulk an n=10,000 run with 39,996
// detections retired ("after"): what New resets must scale with the run that
// draws the bulk, not with the largest run the process has made, so the two
// read alike.
func BenchmarkSimSmallAfterLarge(b *testing.B) {
	for _, tc := range []struct {
		name  string
		large bool
	}{{"before", false}, {"after", true}} {
		b.Run(tc.name, func(b *testing.B) {
			drainPools()
			if tc.large {
				if res := runFailed(10_000, 4); len(res.History) != 39_996 {
					b.Fatalf("the large run recorded %d events, want 39,996", len(res.History))
				}
			}
			if res := runFailed(10, 3); len(res.History) != 27 {
				b.Fatalf("the small run recorded %d events, want 27", len(res.History))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runFailed(10, 3).Release()
			}
		})
	}
}
