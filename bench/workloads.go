//sfs:allow detwallclock every op times the program call it makes; host time is the benchmark's output and never reaches a simulation

package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"failstop"
	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/reliable"
	"failstop/internal/rewrite"
	"failstop/internal/sim"
	"failstop/internal/sweep"
	"failstop/internal/topo"
)

// workload is one named set of inputs. Names are fixed: later issues cite
// them as (end-to-end metric, workload).
type workload struct {
	name string // why each exists: BENCHMARK.json, and README.md at length
	// cycle is how many distinct seeds the workload turns over: op i runs
	// seed base + i mod cycle. Simulated statistics pool over the first
	// cycle only, so they do not depend on how many ops the host fits into
	// the measured time. smokeCycle replaces it under -smoke.
	cycle, smokeCycle int
	// setup generates the workload's inputs from the seed and returns the
	// op to time. Everything an op needs beyond its own seed is built here.
	setup func(seed int64, smoke bool) opFn
}

// opFn runs op number i of a workload (a closed loop: the harness calls it
// back to back from one goroutine). tr is nil in the timed, untraced runs.
type opFn func(i int, seed int64, tr *tracer) opResult

// opResult is what one op produced. Only host is host time; everything
// else is simulated and repeats exactly for a fixed seed.
type opResult struct {
	host            time.Duration // host time inside the program's calls
	runs            int           // simulated executions (check-replay: histories)
	sent, delivered int           // simulated messages
	endTicks        int64         // Σ simulated end time over the op's runs
	events          int           // Σ history length
	hist            model.History // the run's history, when the op has exactly one
	n               int           // process count of hist
	mix             []int64       // further simulated statistics for sim_digest
	counts          layerCounts
	err             error // a failed correctness check
}

// layerCounts are the per-layer work counts an op's result carries.
type layerCounts struct {
	decided, dropped       int64 // netadv
	retransmits, ackedDups int64 // reliable
	byzDetected, byzMasked int64 // byz
	timers, linksLive      int64 // sim
}

func (c *layerCounts) add(o layerCounts) {
	c.decided += o.decided
	c.dropped += o.dropped
	c.retransmits += o.retransmits
	c.ackedDups += o.ackedDups
	c.byzDetected += o.byzDetected
	c.byzMasked += o.byzMasked
	c.timers += o.timers
	c.linksLive += o.linksLive
}

func countsOf(res *sim.Result, planeMetrics obs.Metrics) layerCounts {
	return layerCounts{
		decided:     planeMetrics.Value("plane_decided_total"),
		dropped:     int64(res.Dropped),
		retransmits: int64(res.Retransmits),
		ackedDups:   int64(res.AckedDuplicates),
		byzDetected: int64(res.ByzDetected),
		byzMasked:   int64(res.ByzMasked),
		timers:      res.Metrics.Value("sim_timers_fired_total"),
		linksLive:   res.Metrics.Value("sim_links_live"),
	}
}

// fromSim fills the simulated fields of r from one run's result.
func (r *opResult) fromSim(res *sim.Result, n int) {
	r.runs = 1
	r.sent, r.delivered = res.Sent, res.Delivered
	r.endTicks = res.EndTime
	r.events = len(res.History)
	r.hist, r.n = res.History, n
}

var workloads = []workload{
	{
		name:  "flood-mesh-n10",
		cycle: 256, smokeCycle: 4,
		setup: setupFloodMesh,
	},
	{
		name:  "flood-gossip-n10k",
		cycle: 2, smokeCycle: 1,
		setup: setupFloodGossip,
	},
	{
		name:  "detect-sfs-n20",
		cycle: 128, smokeCycle: 4,
		setup: setupDetect,
	},
	{
		name:  "stack-faulty-n10",
		cycle: 32, smokeCycle: 2,
		setup: setupStackFaulty,
	},
	{
		name:  "sweep-grid",
		cycle: 4, smokeCycle: 1,
		setup: setupSweepGrid,
	},
	{
		name:  "check-replay",
		cycle: 32, smokeCycle: 4,
		setup: setupCheckReplay,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// floodHandler broadcasts to every peer on each of its first rounds timer
// ticks and counts deliveries: sends, channel scheduling, deliveries and
// timer set/fire with no protocol logic on top. With a topology it floods
// its overlay neighbours only.
type floodHandler struct {
	top    *topo.Topology
	rounds int
	got    int
}

func (h *floodHandler) Init(ctx node.Context) { ctx.SetTimer("tick", 1) }

func (h *floodHandler) OnTimer(ctx node.Context, name string) {
	self := ctx.Self()
	if h.top != nil {
		h.top.ForEachPeer(self, func(p model.ProcID) {
			ctx.Send(p, node.Payload{Tag: "flood", Subject: self})
		})
	} else {
		for p := 1; p <= ctx.N(); p++ {
			if model.ProcID(p) != self {
				ctx.Send(model.ProcID(p), node.Payload{Tag: "flood", Subject: self})
			}
		}
	}
	h.rounds--
	if h.rounds > 0 {
		ctx.SetTimer("tick", 1)
	}
}

func (h *floodHandler) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) { h.got++ }

// runFlood is the op of both flood workloads: build a simulator, attach n
// flood handlers, run to quiescence, and check the closed-form counts.
func runFlood(cfg sim.Config, top *topo.Topology, rounds, want int, tr *tracer) opResult {
	var r opResult
	var res *sim.Result
	t0 := time.Now()
	timed(tr, layerHarness, func() {
		var s *sim.Sim
		timed(tr, layerSim, func() { s = sim.New(cfg) })
		for p := 1; p <= cfg.N; p++ {
			s.SetHandler(model.ProcID(p), shim(tr, &floodHandler{top: top, rounds: rounds}, layerApp, layerSim))
		}
		timed(tr, layerSim, func() { res = s.Run() })
	})
	r.host = time.Since(t0)
	tr.reduce()
	r.fromSim(res, cfg.N)
	r.hist = nil // no detections to extract, and 320k events are not worth scanning
	r.counts = countsOf(res, nil)
	if res.Stop != sim.StopDrained || res.Sent != want || res.Delivered != want {
		r.err = fmt.Errorf("flood: stop=%v sent=%d delivered=%d, want drained and %d", res.Stop, res.Sent, res.Delivered, want)
	}
	return r
}

func setupFloodMesh(seed int64, smoke bool) opFn {
	const n, rounds = 10, 20
	return func(i int, seed int64, tr *tracer) opResult {
		return runFlood(sim.Config{N: n, Seed: seed}, nil, rounds, n*(n-1)*rounds, tr)
	}
}

func setupFloodGossip(seed int64, smoke bool) opFn {
	n, rounds := 10000, 2
	if smoke {
		n = 400
	}
	top := topo.MustNew(topo.Spec{Kind: topo.KindGossip, Fanout: 8, Seed: seed}, n)
	want := int(top.Links()) * rounds
	return func(i int, seed int64, tr *tracer) opResult {
		return runFlood(sim.Config{N: n, Seed: seed}, top, rounds, want, tr)
	}
}

// stackSpec describes one protocol stack the way cluster.Options does.
type stackSpec struct {
	sim sim.Config
	det core.Config
	fd  func() core.Component
	rel reliable.Options
	byz byz.Options
}

// stack is the traced mirror of cluster.Cluster: the same wiring
// (core.NewDetector → byz.Wrap → reliable.Wrap → Sim.SetHandler) with a
// timing shim at every seam. The timed runs never use it — they call
// cluster.New and failstop.NewCluster — and sim_digest must come out equal
// both ways, which is the proof that the shims are inert.
type stack struct {
	tr   *tracer
	sim  *sim.Sim
	dets []*core.Detector
	eps  []*reliable.Endpoint
	bzs  []*byz.Endpoint
}

func buildStack(tr *tracer, sp stackSpec) *stack {
	n := sp.det.N
	sp.sim.N = n
	sp.sim.Link = linkShim(tr, sp.sim.Link)
	st := &stack{
		tr:   tr,
		dets: make([]*core.Detector, n+1),
		eps:  make([]*reliable.Endpoint, n+1),
		bzs:  make([]*byz.Endpoint, n+1),
	}
	timed(tr, layerSim, func() { st.sim = sim.New(sp.sim) })
	for p := model.ProcID(1); int(p) <= n; p++ {
		var comp core.Component
		if sp.fd != nil {
			comp = &componentShim{inner: sp.fd(), tr: tr}
		}
		var d *core.Detector
		timed(tr, layerCore, func() { d = core.NewDetector(sp.det, comp, nil) })
		st.dets[p] = d
		below := layerSim // the layer d's context calls land in
		if sp.rel.Enabled {
			below = layerReliable
		}
		if sp.byz.Enabled {
			below = layerByz
		}
		h := shim(tr, d, layerCore, below)
		if sp.byz.Enabled {
			var bz *byz.Endpoint
			timed(tr, layerByz, func() { bz = byz.Wrap(h, sp.byz) })
			bz.SetConvict(func(ctx node.Context, culprit model.ProcID) { d.Suspect(ctx, culprit) })
			st.bzs[p] = bz
			below = layerSim
			if sp.rel.Enabled {
				below = layerReliable
			}
			h = shim(tr, bz, layerByz, below)
		}
		if sp.rel.Enabled {
			var ep *reliable.Endpoint
			timed(tr, layerReliable, func() { ep = reliable.Wrap(h, sp.rel) })
			st.eps[p] = ep
			h = shim(tr, ep, layerReliable, layerSim)
		}
		st.sim.SetHandler(p, h)
	}
	return st
}

// SuspectAt mirrors cluster.SuspectAt: the injected broadcast flows through
// the same context chain a handler callback would be handed.
func (st *stack) SuspectAt(t int64, i, j model.ProcID) {
	d, ep, bz := st.dets[i], st.eps[i], st.bzs[i]
	st.sim.At(t, i, func(ctx node.Context) {
		ctx = hostCtx(st.tr, ctx, layerSim)
		if ep != nil {
			ctx = hostCtx(st.tr, ep.Context(ctx), layerReliable)
		}
		if bz != nil {
			ctx = hostCtx(st.tr, bz.Context(ctx), layerByz)
		}
		timed(st.tr, layerCore, func() { d.Suspect(ctx, j) })
	})
}

func (st *stack) CrashAt(t int64, p model.ProcID) { st.sim.CrashAt(t, p) }

// injector is what a fault schedule is applied to: a cluster.Cluster, or
// its traced mirror.
type injector interface {
	CrashAt(t int64, p model.ProcID)
	SuspectAt(t int64, i, j model.ProcID)
}

func inject(into injector, faults []sweep.Fault) {
	for _, f := range faults {
		switch f.Kind {
		case sweep.FaultCrash:
			into.CrashAt(f.At, f.Proc)
		case sweep.FaultSuspect:
			into.SuspectAt(f.At, f.Proc, f.Target)
		}
	}
}

func (st *stack) run() (res *sim.Result) {
	timed(st.tr, layerSim, func() { res = st.sim.Run() })
	return res
}

func mustSchedule(name string) sweep.Schedule {
	s, ok := sweep.Builtin(name)
	if !ok {
		panic("bench: no builtin schedule " + name)
	}
	return s
}

// runScheduled runs one (n, t) cluster under a sweep schedule: through
// cluster.New when untraced, through the shimmed stack when traced.
func runScheduled(nt sweep.NT, sched sweep.Schedule, seed int64, tr *tracer) *sim.Result {
	cfg := sim.Config{N: nt.N, Seed: seed}
	if sched.Delay != nil {
		cfg.Delay = sched.Delay(nt, seed)
	}
	det := core.Config{N: nt.N, T: nt.T, Protocol: core.SimulatedFailStop}
	var faults []sweep.Fault
	if sched.Faults != nil {
		faults = sched.Faults(nt, seed)
	}
	if tr != nil {
		var st *stack
		timed(tr, layerCluster, func() {
			st = buildStack(tr, stackSpec{sim: cfg, det: det})
			inject(st, faults)
		})
		return st.run()
	}
	c := cluster.New(cluster.Options{Sim: cfg, Det: det})
	inject(c, faults)
	return c.Run()
}

func setupDetect(seed int64, smoke bool) opFn {
	nt := sweep.NT{N: 20, T: 3}
	crash := mustSchedule("crash")
	wantFailed := (nt.N - nt.T) * nt.T
	return func(i int, seed int64, tr *tracer) opResult {
		var r opResult
		var res *sim.Result
		t0 := time.Now()
		timed(tr, layerHarness, func() { res = runScheduled(nt, crash, seed, tr) })
		r.host = time.Since(t0)
		tr.reduce()
		r.fromSim(res, nt.N)
		r.counts = countsOf(res, nil)
		failed := 0
		for _, e := range res.History {
			if e.Kind == model.KindFailed {
				failed++
			}
		}
		if !res.Quiescent() || failed != wantFailed {
			r.err = fmt.Errorf("detect: quiescent=%v failed events=%d, want true and %d", res.Quiescent(), failed, wantFailed)
		}
		return r
	}
}

func setupStackFaulty(seed int64, smoke bool) opFn {
	const n, t = 10, 3
	plan, err := failstop.BuiltinFaultPlan("flaky-quorum", n, t)
	if err != nil {
		panic(err)
	}
	opts := failstop.Options{
		N: n, T: t, MaxTime: 1500,
		HeartbeatEvery: 25, HeartbeatTimeout: 80,
		Faults:    &plan,
		Reliable:  failstop.ReliableOptions{Enabled: true},
		Byzantine: failstop.ByzantineOptions{Enabled: true},
	}
	return func(i int, seed int64, tr *tracer) opResult {
		var r opResult
		var res *sim.Result
		var verdicts []checker.Verdict
		var planeMetrics obs.Metrics
		o := opts
		o.Seed = seed
		t0 := time.Now()
		if tr == nil {
			c := failstop.NewCluster(o)
			c.CrashAt(100, n)
			rep := c.Run()
			r.host = time.Since(t0)
			res = &sim.Result{
				History: rep.History, EndTime: rep.EndTime, Sent: rep.Sent, Delivered: rep.Delivered,
				Dropped: rep.Dropped, Retransmits: rep.Retransmits, AckedDuplicates: rep.AckedDuplicates,
				ByzDetected: rep.ByzDetected, ByzMasked: rep.ByzMasked, Metrics: rep.Metrics,
			}
			verdicts, planeMetrics = rep.Verdicts, rep.Metrics
		} else {
			timed(tr, layerHarness, func() { res, verdicts, planeMetrics = tracedFacadeRun(tr, o) })
			r.host = time.Since(t0)
			tr.reduce()
		}
		r.fromSim(res, n)
		r.counts = countsOf(res, planeMetrics)
		for _, v := range verdicts {
			switch v.Property {
			case "sFS2b", "sFS2c", "sFS2d":
				if !v.Holds {
					r.err = fmt.Errorf("stack: %s", v)
				}
			}
			r.mix = append(r.mix, boolBit(v.Holds))
		}
		return r
	}
}

// tracedFacadeRun is failstop.NewCluster + CrashAt(100, n) + Run assembled
// from the internal packages with a shim at every seam, Figure-1 verdicts
// included.
func tracedFacadeRun(tr *tracer, o failstop.Options) (*sim.Result, []checker.Verdict, obs.Metrics) {
	var plane *netadv.Plane
	timed(tr, layerNetadv, func() { plane = netadv.NewPlane(*o.Faults, o.N, o.Seed) })
	var st *stack
	timed(tr, layerCluster, func() {
		st = buildStack(tr, stackSpec{
			sim: sim.Config{Seed: o.Seed, MaxTime: o.MaxTime, Link: plane.Decide, Lifetimes: o.Faults.Lifetimes()},
			det: core.Config{N: o.N, T: o.T, Protocol: core.SimulatedFailStop},
			fd: func() core.Component {
				return &fd.Heartbeat{Interval: o.HeartbeatEvery, Timeout: o.HeartbeatTimeout}
			},
			rel: o.Reliable,
			byz: o.Byzantine,
		})
		st.CrashAt(100, model.ProcID(o.N))
	})
	res := st.run()
	var ab model.History
	timed(tr, layerModel, func() {
		ab = res.History.DropTags(core.TagSusp, fd.TagHeartbeat, reliable.TagAck, byz.TagEcho)
	})
	var verdicts []checker.Verdict
	timed(tr, layerChecker, func() {
		verdicts = checker.SFS(ab)
		verdicts = append(verdicts, checker.FS2(ab))
		verdicts = append(verdicts, checker.WitnessProperty(res.History, core.TagSusp, o.T))
	})
	return res, verdicts, obs.Merge(res.Metrics, plane.Metrics())
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sweepTrace is the traced sweep-grid op's shared state: sweep workers call
// the Runner and Observe hooks concurrently.
type sweepTrace struct {
	scheds    []sweep.Schedule
	mu        sync.Mutex
	total     *tracer                 // the op's tracer; worker tracers merge into it
	open      map[*sim.Result]runMark // runs between Runner return and Observe
	accounted int64                   // host ns covered by worker spans
}

type runMark struct {
	tr         *tracer
	start, end time.Time
	n          int
}

func setupSweepGrid(seed int64, smoke bool) opFn {
	grid := []sweep.NT{{N: 8, T: 2}, {N: 10, T: 3}, {N: 12, T: 3}, {N: 15, T: 3}}
	seeds := 8
	if smoke {
		grid, seeds = grid[:2], 2
	}
	scheds := []sweep.Schedule{mustSchedule("false-suspicion"), mustSchedule("crash")}
	wantRuns := len(grid) * len(scheds) * seeds
	workers := runtime.GOMAXPROCS(0)
	var mix []int64
	return func(i int, seed int64, tr *tracer) opResult {
		var r opResult
		spec := sweep.Spec{
			Grid: grid, Schedules: scheds,
			Seeds: sweep.SeedRange{Start: seed * int64(seeds), Count: seeds},
			Check: true,
		}
		var strace *sweepTrace
		if tr != nil {
			strace = &sweepTrace{total: tr, open: map[*sim.Result]runMark{}, scheds: scheds}
			spec.Runner, spec.Observe = strace.runner, strace.observe
		}
		var rep *sweep.Report
		var err error
		t0 := time.Now()
		timed(tr, layerSweep, func() { rep, err = sweep.Run(spec, sweep.Options{Workers: workers}) })
		r.host = time.Since(t0)
		if tr != nil {
			// The op's span ran on this goroutine while the workers ran the
			// cells on theirs. Scale it to the worker time the sweep had and
			// take off what the workers' own spans account for: what is left
			// with sweep is accumulate, merge, channel hand-off and idling.
			tr.reduce()
			tr.self[layerSweep] += int64(r.host)*int64(workers-1) - strace.accounted
		}
		if err != nil {
			r.err = err
			return r
		}
		mix = mix[:0]
		r.runs = rep.Runs
		for ci := range rep.Cells {
			c := &rep.Cells[ci]
			r.sent += int(c.Obs["sim_sent_total"])
			r.delivered += int(c.Obs["sim_delivered_total"])
			r.counts.timers += c.Obs["sim_timers_fired_total"]
			mix = append(mix, int64(c.Runs), int64(c.Quiescent), int64(c.Checked))
			for _, v := range c.EndTimeSamples {
				r.endTicks += int64(v)
				mix = append(mix, int64(v))
			}
			for _, v := range c.EventSamples {
				r.events += int(v)
				mix = append(mix, int64(v))
			}
			for _, prop := range sweep.Properties {
				mix = append(mix, int64(c.Holds[prop]))
			}
			for _, prop := range []string{"FS1", "sFS2a", "sFS2b", "sFS2c", "sFS2d"} {
				if !c.HoldsAll(prop) {
					r.err = fmt.Errorf("sweep: %s does not hold on every run of %v", prop, c.Cell)
				}
			}
		}
		r.mix = mix
		if rep.Runs != wantRuns {
			r.err = fmt.Errorf("sweep: %d runs, want %d", rep.Runs, wantRuns)
		}
		return r
	}
}

// runner is the traced sweep's Spec.Runner: the default stack, built and
// run around the shims, on a tracer of its own (one per run, because
// workers run cells concurrently).
func (s *sweepTrace) runner(cell sweep.Cell, seed int64) sweep.RunOutput {
	var sched sweep.Schedule
	for _, sc := range s.scheds {
		if sc.Name == cell.Schedule {
			sched = sc
		}
	}
	tr := newTracer()
	var res *sim.Result
	start := time.Now()
	timed(tr, layerHarness, func() { res = runScheduled(cell.NT, sched, seed, tr) })
	tr.reduce()
	end := time.Now()
	s.mu.Lock()
	s.open[res] = runMark{tr: tr, start: start, end: end, n: cell.NT.N}
	s.mu.Unlock()
	return sweep.RunOutput{Result: res, Obs: res.Metrics}
}

// observe is the traced sweep's Spec.Observe. The engine calls it on the
// worker that ran the cell, right after it has checked the history, so the
// interval since the Runner returned is the checker's (plus the engine's
// record-keeping for the run).
func (s *sweepTrace) observe(cell sweep.Cell, seed int64, out sweep.RunOutput) map[string]bool {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.open[out.Result]
	delete(s.open, out.Result)
	m.tr.self[layerChecker] += int64(now.Sub(m.end))
	m.tr.calls[layerChecker]++
	s.accounted += int64(now.Sub(m.start))
	s.total.merge(m.tr)
	if s.total.stats != nil {
		s.total.stats.add(out.Result.History, m.n)
	}
	return nil
}

// replayCase is one recorded run of the check-replay corpus.
type replayCase struct {
	full, abstract model.History
	n              int
	sent, received int
	endTicks       int64
}

func setupCheckReplay(seed int64, smoke bool) opFn {
	nt := sweep.NT{N: 20, T: 3}
	size := 32
	if smoke {
		size = 4
	}
	crash, falseSusp := mustSchedule("crash"), mustSchedule("false-suspicion")
	corpus := make([]replayCase, size)
	for k := range corpus {
		sched := crash
		if k%2 == 1 {
			sched = falseSusp
		}
		res := runScheduled(nt, sched, seed+int64(k), nil)
		if !res.Quiescent() {
			panic(fmt.Sprintf("bench: check-replay corpus run %d did not quiesce", k))
		}
		corpus[k] = replayCase{
			full:     res.History,
			abstract: res.History.DropTags(core.TagSusp),
			n:        nt.N,
			sent:     res.Sent,
			received: res.Delivered,
			endTicks: res.EndTime,
		}
	}
	return func(i int, seed int64, tr *tracer) opResult {
		c := &corpus[i%len(corpus)]
		var r opResult
		var verdicts []checker.Verdict
		var out model.History
		var gerr, verr error
		t0 := time.Now()
		timed(tr, layerHarness, func() {
			timed(tr, layerChecker, func() { verdicts = checker.All(c.full, core.TagSusp, nt.T) })
			timed(tr, layerRewrite, func() {
				out, _, gerr = rewrite.Graph(c.abstract)
				if gerr == nil {
					verr = rewrite.Verify(c.abstract, out)
				}
			})
		})
		r.host = time.Since(t0)
		tr.reduce()
		r.runs, r.sent, r.delivered = 1, c.sent, c.received
		r.endTicks, r.events = c.endTicks, len(c.full)
		r.hist, r.n = c.full, c.n
		for _, v := range verdicts {
			if !v.Holds && v.Property != "FS2" {
				r.err = fmt.Errorf("replay: %s", v)
			}
			r.mix = append(r.mix, boolBit(v.Holds))
		}
		r.mix = append(r.mix, int64(len(out)))
		switch {
		case gerr != nil:
			r.err = fmt.Errorf("replay: rewrite.Graph: %w", gerr)
		case verr != nil:
			r.err = fmt.Errorf("replay: rewrite.Verify: %w", verr)
		}
		return r
	}
}
