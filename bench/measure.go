//sfs:allow detwallclock the harness measures host time per op; nothing it reads reaches a simulation

package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// metric is one named reading with its unit, as BENCHMARK.json lists it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. With tracing off Metrics
// holds every end-to-end metric; with tracing on, every per-layer metric.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"` // timed ops behind op_ms_p50
	Digest    string            `json:"sim_digest"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runParams are one run's settings.
type runParams struct {
	seed    int64
	seconds float64
	smoke   bool
}

// cycleAcc pools the simulated statistics of the first cycle of ops. All of
// it is simulated, so it repeats exactly for a fixed seed.
type cycleAcc struct {
	runs, sent, events int
	ticks              int64
	counts             layerCounts
	stats              simStats
	digest             digest
	haveHistory        bool
}

func (a *cycleAcc) add(r *opResult) {
	a.runs += r.runs
	a.sent += r.sent
	a.ticks += r.endTicks
	a.events += r.events
	a.counts.add(r.counts)
	a.digest.add(int64(r.sent))
	a.digest.add(int64(r.delivered))
	a.digest.add(r.endTicks)
	a.digest.add(int64(r.events))
	for _, v := range r.mix {
		a.digest.add(v)
	}
	if r.hist != nil {
		a.haveHistory = true
		a.stats.add(r.hist, r.n)
	}
}

// simDigest closes the accumulator: the pooled tick samples go in last.
// Ops whose runs finish on other goroutines hand over no history (their
// sample order would depend on scheduling), so their digest is the
// per-op statistics alone.
func (a *cycleAcc) simDigest() digest {
	d := a.digest
	if a.haveHistory {
		a.stats.fold(&d)
	}
	return d
}

// loopResult is what one closed loop of ops measured.
type loopResult struct {
	failed   int
	firstErr error
	ops      []opRec
	host     *hostSpeed
	runs     int
	sent     int
	mallocs  uint64 // Go heap allocations of the ops (the bursts' taken off)
	bytes    uint64
	cycleLen int
	cycle    cycleAcc
	// cycleMsgsIn is the tracer's msgsIn at the end of the first cycle, so
	// ratios against the first cycle's simulated counts are exact.
	cycleMsgsIn [numLayers]int64
}

// opRec is one executed op: its host time as measured, what it did, and how
// many reference bursts had been taken when it began.
type opRec struct {
	host       time.Duration
	runs, msgs int
	bursts     int
}

// loop runs ops back to back from this goroutine — a closed loop of one
// client — in whole passes over the cycle's seeds, until budget has passed,
// with a reference burst before the first op, after every refEvery of op
// time, and after the last.
func loop(op opFn, cycle int, p runParams, budget time.Duration, host *hostSpeed, tr *tracer) *loopResult {
	lr := &loopResult{ops: make([]opRec, 0, 1<<14), cycleLen: cycle, host: host}
	if tr != nil {
		tr.stats = &lr.cycle.stats
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ownMallocs, ownBytes := host.mallocs, host.size
	host.burst()
	var sinceBurst time.Duration
	start := time.Now()
	for i := 0; i%cycle != 0 || i == 0 || time.Since(start) < budget; i++ {
		r := op(i, p.seed+int64(i%cycle), tr)
		if r.err != nil {
			lr.failed++
			if lr.firstErr == nil {
				lr.firstErr = fmt.Errorf("op %d: %w", i, r.err)
			}
		}
		lr.ops = append(lr.ops, opRec{host: r.host, runs: r.runs, msgs: r.delivered, bursts: len(host.speeds)})
		lr.runs += r.runs
		lr.sent += r.sent
		if i < cycle {
			lr.cycle.add(&r)
		}
		if tr != nil && i == cycle-1 { // the first cycle is complete
			lr.cycleMsgsIn = tr.msgsIn
			tr.stats = nil
		}
		if sinceBurst += r.host; sinceBurst >= refEvery {
			host.burst()
			sinceBurst = 0
		}
	}
	host.burst()
	runtime.ReadMemStats(&m1)
	lr.mallocs = m1.Mallocs - m0.Mallocs - (host.mallocs - ownMallocs)
	lr.bytes = m1.TotalAlloc - m0.TotalAlloc - (host.size - ownBytes)
	return lr
}

// refMs returns op i's host time in milliseconds at reference speed.
func (lr *loopResult) refMs(i int) float64 {
	o := lr.ops[i]
	return float64(o.host) / 1e6 * lr.host.between(o.bursts)
}

// minGroup is the least reference-speed time a group of passes covers: long
// enough to hold many GC cycles, so its rate includes the collector's share.
const minGroup = 250.0 // ms

// throughput returns runs and delivered messages per second at reference
// speed, counting only time inside ops: the median over groups, a group
// being a stretch of whole passes over the cycle's seeds — so every group
// did the same simulated work.
func (lr *loopResult) throughput() (runsPerS, msgsPerS float64) {
	var rs, ms []float64
	var runs, msgs int
	var t float64
	for i := range lr.ops {
		if i%lr.cycleLen == 0 && t >= minGroup {
			rs, ms = append(rs, float64(runs)/t*1e3), append(ms, float64(msgs)/t*1e3)
			runs, msgs, t = 0, 0, 0
		}
		runs += lr.ops[i].runs
		msgs += lr.ops[i].msgs
		t += lr.refMs(i)
	}
	if len(rs) == 0 || t >= minGroup {
		rs, ms = append(rs, float64(runs)/t*1e3), append(ms, float64(msgs)/t*1e3)
	}
	return median(rs), median(ms)
}

// opMsP50 is the host time of the typical op at reference speed: the
// median, over the seeds of the cycle, of the lower quartile of each seed's
// executions. An op's time is bimodal (a collection runs into it or not)
// and its plain median sits in the gap between the modes, moving 12–27 %
// between identical runs; so each seed is compared only with itself, and the
// mode without the collector is the one reported. runs_per_s is the metric
// that carries the collector.
func (lr *loopResult) opMsP50() float64 {
	perSeed := make([][]float64, lr.cycleLen)
	for i := range lr.ops {
		perSeed[i%lr.cycleLen] = append(perSeed[i%lr.cycleLen], lr.refMs(i))
	}
	typical := make([]float64, lr.cycleLen)
	for s, times := range perSeed {
		typical[s] = percentile(times, 0.25)
	}
	return median(typical)
}

// rawMs returns every op's host time in milliseconds, as measured.
func (lr *loopResult) rawMs() []float64 {
	out := make([]float64, len(lr.ops))
	for i, o := range lr.ops {
		out[i] = float64(o.host) / 1e6
	}
	return out
}

// setUp generates the workload's inputs and runs op 0 twice, untimed: the
// two must agree on every simulated statistic (the determinism the whole
// benchmark leans on), and they double as the warm-up. It returns the op
// and how long all of that took, at reference speed.
func setUp(w workload, p runParams, host *hostSpeed) (opFn, float64, error) {
	runtime.GC() // every set-up starts from a collected heap
	host.burst()
	start := time.Now()
	op := w.setup(p.seed, p.smoke)
	var digests [2]digest
	for k := range digests {
		r := op(0, p.seed, nil)
		if r.err != nil {
			return nil, 0, fmt.Errorf("set-up: op 0: %w", r.err)
		}
		var a cycleAcc
		a.add(&r)
		digests[k] = a.simDigest()
	}
	took := time.Since(start)
	if digests[0] != digests[1] {
		return nil, 0, fmt.Errorf("set-up: op 0 is not deterministic: sim_digest %016x then %016x", uint64(digests[0]), uint64(digests[1]))
	}
	host.burst()
	return op, took.Seconds() * host.between(len(host.speeds)-1), nil
}

// measuredSetUp sets up several times and reports the median duration: one
// set-up of the small workloads is a few milliseconds, which a single
// reading on a shared host cannot resolve.
func measuredSetUp(w workload, p runParams, host *hostSpeed) (opFn, float64, error) {
	op, first, err := setUp(w, p, host)
	if err != nil || p.smoke {
		return op, first, err
	}
	reps := max(3, min(int(math.Ceil(1/first)), 25))
	times := []float64{first}
	for len(times) < reps {
		var d float64
		if op, d, err = setUp(w, p, host); err != nil {
			return nil, 0, err
		}
		times = append(times, d)
	}
	return op, median(times), nil
}

func (w workload) cycleFor(p runParams) int {
	if p.smoke {
		return w.smokeCycle
	}
	return w.cycle
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func newResult(w workload, p runParams, traced bool) *result {
	return &result{Workload: w.name, Seed: p.seed, Traced: traced, Metrics: map[string]metric{}}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) finish(lr *loopResult) {
	r.Attempted, r.Failed = len(lr.ops), lr.failed
	r.Correct = lr.failed == 0
	r.Samples = len(lr.ops)
	r.Digest = fmt.Sprintf("%016x", uint64(lr.cycle.simDigest()))
	if lr.firstErr != nil {
		r.FirstErr = lr.firstErr.Error()
	}
}

// measure is the timed, untraced run of one workload: every end-to-end
// metric, nothing else running in the process.
func measure(w workload, p runParams) (*result, error) {
	host := newHostSpeed(p.smoke)
	op, setupS, err := measuredSetUp(w, p, host)
	if err != nil {
		return nil, err
	}
	lr := loop(op, w.cycleFor(p), p, time.Duration(p.seconds*float64(time.Second)), host, nil)
	res := newResult(w, p, false)
	res.finish(lr)
	runsPerS, msgsPerS := lr.throughput()
	res.set("setup_s", "s", setupS)
	res.set("runs_per_s", "1/s", runsPerS)
	res.set("msgs_per_s", "1/s", msgsPerS)
	res.set("op_ms_p50", "ms", lr.opMsP50())
	res.set("allocs_per_run", "count", ratio(float64(lr.mallocs), float64(lr.runs)))
	res.set("alloc_kb_per_run", "KiB", ratio(float64(lr.bytes)/1024, float64(lr.runs)))
	res.set("msgs_per_run", "count", ratio(float64(lr.cycle.sent), float64(lr.cycle.runs)))
	res.set("sim_ticks_per_run", "ticks", ratio(float64(lr.cycle.ticks), float64(lr.cycle.runs)))
	return res, nil
}
