//sfs:allow detwallclock probes time calls into each layer's exported functions; the readings are benchmark output only

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"failstop"
	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/experiments"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
	"failstop/internal/rewrite"
	"failstop/internal/sim"
	"failstop/internal/sweep"
	"failstop/internal/topo"
	"failstop/internal/trace"
)

// prober measures single layers from outside: it times calls into a
// layer's exported functions, or runs one fixed link workload with one more
// layer switched on per rung (a ladder) and reports the step over the rung
// below. Every probe does a fixed amount of work from a fixed seed, so its
// counts repeat exactly and its times are medians over reps repetitions.
type prober struct {
	res   *result
	seed  int64
	smoke bool
}

// reps scales a probe's repetition count down to 1 under -smoke.
func (pr *prober) reps(n int) int {
	if pr.smoke {
		return 1
	}
	return n
}

// timeOf returns the median host time of reps calls of fn, after one
// untimed call to warm it.
func (pr *prober) timeOf(reps int, fn func()) time.Duration {
	return pr.interleaved(reps, fn)[0]
}

// interleaved times every one of fns reps times, taking turns, and returns
// each one's median: the rungs of a ladder are compared with each other, so
// they must see the same stretches of a noisy host.
func (pr *prober) interleaved(reps int, fns ...func()) []time.Duration {
	reps = pr.reps(reps)
	ds := make([][]float64, len(fns))
	for r := -1; r < reps; r++ { // round -1 warms up, untimed
		for i, fn := range fns {
			t0 := time.Now()
			fn()
			if r >= 0 {
				ds[i] = append(ds[i], float64(time.Since(t0)))
			}
		}
	}
	out := make([]time.Duration, len(fns))
	for i := range out {
		out[i] = time.Duration(median(ds[i]))
	}
	return out
}

// allocsOf returns the Go heap allocations and bytes of one call of fn.
func allocsOf(fn func()) (count, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runProbes fills res with every workload-independent per-layer metric. It
// fails if a layer's output is wrong: a probe is also a correctness check.
func runProbes(res *result, p runParams) error {
	pr := &prober{res: res, seed: p.seed, smoke: p.smoke}
	for _, probe := range []func() error{
		pr.sim, pr.large, pr.netadv, pr.ladder, pr.byz, pr.core, pr.cluster,
		pr.history, pr.obs, pr.sweep, pr.recovery, pr.experiments,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// newFlood builds a mesh flood simulator ready to Run.
func newFlood(cfg sim.Config, top *topo.Topology, rounds int) *sim.Sim {
	s := sim.New(cfg)
	for p := 1; p <= cfg.N; p++ {
		s.SetHandler(model.ProcID(p), &floodHandler{top: top, rounds: rounds})
	}
	return s
}

// timerChurn re-arms two timers left times, cancelling one each tick, so
// both the fire and the stale-generation paths run and no message is sent.
type timerChurn struct{ left int }

func (h *timerChurn) Init(ctx node.Context) { ctx.SetTimer("beat", 1) }
func (h *timerChurn) OnTimer(ctx node.Context, name string) {
	h.left--
	if h.left <= 0 {
		return
	}
	ctx.SetTimer("beat", 1)
	ctx.SetTimer("probe", 2)
	ctx.CancelTimer("probe")
}
func (h *timerChurn) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {}

func (pr *prober) sim() error {
	const n, rounds, msgs = 10, 20, 10 * 9 * 20
	cfg := sim.Config{N: n, Seed: pr.seed}
	pr.res.set("sim.new_us.n10", "us", us(pr.timeOf(200, func() { sim.New(cfg) })))
	a, _ := allocsOf(func() { sim.New(cfg) })
	pr.res.set("sim.new_allocs.n10", "count", a)

	var s *sim.Sim
	var runNs []float64
	for i := 0; i < pr.reps(40)+1; i++ {
		s = newFlood(cfg, nil, rounds)
		t0 := time.Now()
		r := s.Run()
		runNs = append(runNs, float64(time.Since(t0)))
		if r.Delivered != msgs {
			return fmt.Errorf("probe sim: flood delivered %d, want %d", r.Delivered, msgs)
		}
	}
	pr.res.set("sim.run_ns_per_msg.n10", "ns", median(runNs[1:])/msgs)
	s = newFlood(cfg, nil, rounds)
	a, _ = allocsOf(func() { s.Run() })
	pr.res.set("sim.run_allocs_per_msg.n10", "count", a/msgs)

	const fires = 1000
	d := pr.timeOf(20, func() {
		ts := sim.New(sim.Config{N: 2, Seed: pr.seed})
		ts.SetHandler(1, &timerChurn{left: fires})
		ts.SetHandler(2, &floodHandler{})
		ts.Run()
	})
	pr.res.set("sim.timer_ns_per_fire", "ns", float64(d)/fires)
	return nil
}

// large prices the simulator and the topology layer at N=10,000: one
// gossip overlay, one two-round flood over it.
func (pr *prober) large() error {
	n, rounds := 10000, 2
	if pr.smoke {
		n = 400
	}
	spec := topo.Spec{Kind: topo.KindGossip, Fanout: 8, Seed: pr.seed}
	var top *topo.Topology
	pr.res.set("topo.new_ms.gossip_n10k", "ms", ms(pr.timeOf(2, func() { top = topo.MustNew(spec, n) })))
	pr.res.set("topo.links.gossip_n10k", "count", float64(top.Links()))
	visited := 0
	d := pr.timeOf(3, func() {
		visited = 0
		for p := 1; p <= n; p++ {
			top.ForEachPeer(model.ProcID(p), func(model.ProcID) { visited++ })
		}
	})
	pr.res.set("topo.foreach_peer_ns", "ns", ratio(float64(d), float64(visited)))

	s := newFlood(sim.Config{N: n, Seed: pr.seed}, top, rounds)
	var r *sim.Result
	t0 := time.Now()
	a, b := allocsOf(func() { r = s.Run() })
	d = time.Since(t0)
	want := int(top.Links()) * rounds
	if r.Delivered != want {
		return fmt.Errorf("probe large: flood delivered %d, want %d", r.Delivered, want)
	}
	pr.res.set("sim.run_ns_per_msg.n10k", "ns", float64(d)/float64(want))
	pr.res.set("sim.run_allocs_per_msg.n10k", "count", a/float64(want))
	pr.res.set("sim.bytes_per_msg.n10k", "B", b/float64(want))
	pr.res.set("sim.links_live.n10k", "count", float64(r.Metrics.Value("sim_links_live")))
	return nil
}

func (pr *prober) netadv() error {
	flaky, err := failstop.BuiltinFaultPlan("flaky-quorum", 10, 3)
	if err != nil {
		return err
	}
	pr.res.set("netadv.new_plane_us", "us", us(pr.timeOf(200, func() { netadv.NewPlane(flaky, 10, pr.seed) })))

	const calls = 20000
	decide := func(plan netadv.Plan, from model.ProcID, p node.Payload) (ns, allocs float64) {
		pl := netadv.NewPlane(plan, 10, pr.seed)
		run := func() {
			for i := 0; i < calls; i++ {
				pl.Decide(from, 2, p, int64(i))
			}
		}
		d := pr.timeOf(5, run)
		a, _ := allocsOf(run)
		return float64(d) / calls, a / calls
	}
	app := node.Payload{Tag: "APP"}
	susp := node.Payload{Tag: core.TagSusp, Subject: 3, Data: []byte(`{"suspect":3}`)}
	byzRules := []netadv.ByzRule{
		{Victim: 5, Tags: []string{core.TagSusp}, Corrupt: 1},
		{Victim: 4, Tags: []string{core.TagSusp}, Equivocate: [][]model.ProcID{{1, 2}, {3, 6}}},
	}
	ns, _ := decide(netadv.Plan{Rules: []netadv.Rule{{From: 1 << 40, Cut: true}}}, 1, app)
	pr.res.set("netadv.decide_ns.quiet", "ns", ns)
	ns, a := decide(netadv.Plan{Rules: []netadv.Rule{{Drop: 0.1, JitterMax: 5}, {Duplicate: 0.05, Reorder: 0.02}}}, 1, app)
	pr.res.set("netadv.decide_ns.faulty", "ns", ns)
	pr.res.set("netadv.decide_allocs.faulty", "count", a)
	ns, _ = decide(netadv.Plan{Byz: byzRules}, 1, app)
	pr.res.set("netadv.decide_ns.byz_quiet", "ns", ns)
	ns, _ = decide(netadv.Plan{Byz: []netadv.ByzRule{{Victim: 5, Corrupt: 1, Replay: 0.2, ReplayDelay: 50}}}, 5, susp)
	pr.res.set("netadv.decide_ns.byz_faulty", "ns", ns)
	return nil
}

// idle is a handler that does nothing; sink counts what reaches it.
type idle struct{}

func (idle) Init(node.Context)                                  {}
func (idle) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (idle) OnTimer(node.Context, string)                       {}

type sink struct{ got int }

func (s *sink) Init(node.Context)                                  {}
func (s *sink) OnMessage(node.Context, model.ProcID, node.Payload) { s.got++ }
func (s *sink) OnTimer(node.Context, string)                       {}

// ladder runs the fixed link workload of internal/reliable's benchmark — 2
// processes, 200 application sends at ticks 1..200 — with one more layer
// switched on per rung: bare link, + a quiet fault plane, + reliable
// delivery at drop 0, + the byz interposer with nothing to convict. Each
// layer's price is its rung minus the rung below, per message.
func (pr *prober) ladder() error {
	const sends = 200
	payload := node.Payload{Tag: core.TagApp, Data: []byte("payload")}
	var failure error
	rung := func(level int) func() {
		return func() {
			cfg := sim.Config{N: 2, Seed: pr.seed, MaxTime: 100000}
			if level >= 1 {
				cfg.Link = netadv.NewPlane(netadv.Plan{Rules: []netadv.Rule{{From: 1 << 40, Cut: true}}}, 2, pr.seed).Decide
			}
			s := sim.New(cfg)
			rec := &sink{}
			var from, to node.Handler = idle{}, rec
			wrap := func(ctx node.Context) node.Context { return ctx }
			if level >= 3 {
				bf := byz.Wrap(from, byz.Options{Enabled: true})
				from, to = bf, byz.Wrap(to, byz.Options{Enabled: true})
				wrap = bf.Context
			}
			if level >= 2 {
				inner := wrap
				rf := reliable.Wrap(from, reliable.Options{Enabled: true})
				from, to = rf, reliable.Wrap(to, reliable.Options{Enabled: true})
				wrap = func(ctx node.Context) node.Context { return inner(rf.Context(ctx)) }
			}
			s.SetHandler(1, from)
			s.SetHandler(2, to)
			for k := 1; k <= sends; k++ {
				s.At(int64(k), 1, func(ctx node.Context) { wrap(ctx).Send(2, payload) })
			}
			r := s.Run()
			if rec.got != sends || r.Retransmits != 0 || r.ByzDetected != 0 {
				failure = fmt.Errorf("probe ladder rung %d: released %d of %d, %d retransmits, %d convictions", level, rec.got, sends, r.Retransmits, r.ByzDetected)
			}
		}
	}
	rungs := []func(){rung(0), rung(1), rung(2), rung(3)}
	ds := pr.interleaved(40, rungs...)
	var as [4]float64
	for level, fn := range rungs {
		as[level], _ = allocsOf(fn)
	}
	if failure != nil {
		return failure
	}
	step := func(i int) (ns, allocs float64) {
		return float64(ds[i]-ds[i-1]) / sends, (as[i] - as[i-1]) / sends
	}
	pr.res.set("sim.ladder_ns_per_msg.bare", "ns", float64(ds[0])/sends)
	ns, _ := step(1)
	pr.res.set("netadv.ladder_ns_per_msg.quiet", "ns", ns)
	ns, a := step(2)
	pr.res.set("reliable.ladder_ns_per_msg.drop0", "ns", ns)
	pr.res.set("reliable.ladder_allocs_per_msg.drop0", "count", a)
	ns, a = step(3)
	pr.res.set("byz.ladder_ns_per_msg.quiet", "ns", ns)
	pr.res.set("byz.ladder_allocs_per_msg.quiet", "count", a)
	return nil
}

// captureCtx is a host context that keeps what is sent through it and
// otherwise does nothing: enough of a host to drive one endpoint by hand.
type captureCtx struct {
	self model.ProcID
	n    int
	sent []node.Payload
}

func (c *captureCtx) Self() model.ProcID                  { return c.self }
func (c *captureCtx) N() int                              { return c.n }
func (c *captureCtx) Now() int64                          { return 0 }
func (c *captureCtx) Send(_ model.ProcID, p node.Payload) { c.sent = append(c.sent, p) }
func (c *captureCtx) SetTimer(string, int64)              {}
func (c *captureCtx) CancelTimer(string)                  {}
func (c *captureCtx) EmitFailed(model.ProcID)             {}
func (c *captureCtx) CrashSelf()                          {}
func (c *captureCtx) EmitInternal(string, model.ProcID)   {}

func (pr *prober) byz() error {
	// deliver_ns: Endpoint.OnMessage on frames a sending endpoint sealed
	// beforehand — authenticate, replay-check, release. A fresh receiver per
	// window keeps the sequence numbers unseen.
	const window = 64
	opts := byz.Options{Enabled: true}
	sendCtx := &captureCtx{self: 1, n: 5}
	sender := byz.Wrap(idle{}, opts)
	sender.Init(sendCtx)
	for i := 0; i < window; i++ {
		sender.Context(sendCtx).Send(2, node.Payload{Tag: core.TagApp, Data: []byte(`{"round":1}`)})
	}
	frames := sendCtx.sent
	rec := &sink{}
	recvCtx := &captureCtx{self: 2, n: 5}
	d := pr.timeOf(200, func() {
		ep := byz.Wrap(rec, opts)
		ep.Init(recvCtx)
		for _, f := range frames {
			ep.OnMessage(recvCtx, 1, f)
		}
	})
	if len(frames) != window || rec.got == 0 || rec.got%window != 0 {
		return fmt.Errorf("probe byz: %d frames sealed, %d released", len(frames), rec.got)
	}
	pr.res.set("byz.deliver_ns", "ns", float64(d)/window)

	// The byzantine-minority plan: do convictions happen and mask?
	const n, t = 5, 2
	plan, err := failstop.BuiltinFaultPlan("byzantine-minority", n, t)
	if err != nil {
		return err
	}
	runs := pr.reps(20)
	var detected, masked int
	for k := 0; k < runs; k++ {
		c := failstop.NewCluster(failstop.Options{
			N: n, T: t, Seed: pr.seed + int64(k), Faults: &plan,
			Byzantine: failstop.ByzantineOptions{Enabled: true},
		})
		c.SuspectAt(30, 5, 3)
		rep := c.Run()
		detected += rep.ByzDetected
		masked += rep.ByzMasked
	}
	if detected == 0 {
		return fmt.Errorf("probe byz: no conviction in %d byzantine-minority runs", runs)
	}
	pr.res.set("byz.probe_detected_per_run", "count", float64(detected)/float64(runs))
	pr.res.set("byz.probe_masked_per_run", "count", float64(masked)/float64(runs))
	return nil
}

// oneCrash builds and runs one crash detection at (n, t): the highest
// process crashes at tick 2 and process 1 suspects it at tick 50.
func oneCrash(n, t int, seed int64) *sim.Result {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: n, Seed: seed},
		Det: core.Config{N: n, T: t, Protocol: core.SimulatedFailStop},
	})
	c.CrashAt(2, model.ProcID(n))
	c.SuspectAt(50, 1, model.ProcID(n))
	return c.Run()
}

func (pr *prober) core() error {
	for _, sz := range []struct {
		n, t, reps int
		name       string
	}{{5, 2, 40, "n5"}, {20, 3, 20, "n20"}, {40, 3, 8, "n40"}} {
		var st simStats
		var sent int
		seed := pr.seed
		d := pr.timeOf(sz.reps, func() {
			r := oneCrash(sz.n, sz.t, seed)
			seed++
			st.add(r.History, sz.n)
			sent += r.Sent
		})
		if st.undetected != 0 || st.failed == 0 {
			return fmt.Errorf("probe core %s: %d failed events, %d pairs undetected", sz.name, st.failed, st.undetected)
		}
		pr.res.set("core.round_us."+sz.name, "us", us(d))
		if sz.name != "n20" { // n=20 is the detect-sfs-n20 workload itself
			pr.res.set("core.detect_ticks_p50."+sz.name, "ticks", tickPercentile(st.detect, 0.5))
			pr.res.set("core.msgs_per_detection."+sz.name, "count", ratio(float64(sent), float64(st.failed)))
		}
	}
	return nil
}

func (pr *prober) cluster() error {
	opts := cluster.Options{
		Sim: sim.Config{N: 20, Seed: pr.seed},
		Det: core.Config{N: 20, T: 3, Protocol: core.SimulatedFailStop},
	}
	pr.res.set("cluster.new_us.n20", "us", us(pr.timeOf(100, func() { cluster.New(opts) })))
	a, _ := allocsOf(func() { cluster.New(opts) })
	pr.res.set("cluster.new_allocs.n20", "count", a)
	plan, err := failstop.BuiltinFaultPlan("flaky-quorum", 10, 3)
	if err != nil {
		return err
	}
	full := failstop.Options{
		N: 10, T: 3, Seed: pr.seed, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80,
		Faults: &plan, Reliable: failstop.ReliableOptions{Enabled: true}, Byzantine: failstop.ByzantineOptions{Enabled: true},
	}
	pr.res.set("cluster.new_us.stack", "us", us(pr.timeOf(100, func() { failstop.NewCluster(full) })))
	return nil
}

// history prices everything that reads a recorded history: the checker,
// the Theorem 5 rewriters, the model's own passes and the trace codec.
func (pr *prober) history() error {
	crash, falseSusp := mustSchedule("crash"), mustSchedule("false-suspicion")
	h20 := runScheduled(sweep.NT{N: 20, T: 3}, crash, pr.seed, nil).History
	big := 40
	if pr.smoke {
		big = 24 // checker.All grows steeply with n; n=40 alone takes half a second
	}
	h40 := runScheduled(sweep.NT{N: big, T: 3}, crash, pr.seed, nil).History
	hfs := runScheduled(sweep.NT{N: 20, T: 3}, falseSusp, pr.seed, nil).History
	ab20, abfs := h20.DropTags(core.TagSusp), hfs.DropTags(core.TagSusp)

	pr.res.set("checker.sfs_us.n20", "us", us(pr.timeOf(20, func() { checker.SFS(ab20) })))
	pr.res.set("checker.witness_us.n20", "us", us(pr.timeOf(10, func() { checker.WitnessProperty(h20, core.TagSusp, 3) })))
	all := pr.timeOf(10, func() { checker.All(h20, core.TagSusp, 3) })
	pr.res.set("checker.all_us.n20", "us", us(all))
	pr.res.set("checker.all_us.n40", "us", us(pr.timeOf(1, func() { checker.All(h40, core.TagSusp, 3) })))
	pr.res.set("checker.ns_per_event", "ns", float64(all)/float64(len(h20)))
	a, _ := allocsOf(func() { checker.All(h20, core.TagSusp, 3) })
	pr.res.set("checker.allocs_per_history", "count", a)
	if v, ok := checker.AllHold(checker.All(h20, core.TagSusp, 3)); !ok {
		return fmt.Errorf("probe checker: %s", v)
	}

	var out model.History
	var gerr error
	pr.res.set("rewrite.graph_us.n20", "us", us(pr.timeOf(10, func() { out, _, gerr = rewrite.Graph(abfs) })))
	if gerr != nil {
		return fmt.Errorf("probe rewrite: Graph: %w", gerr)
	}
	var st rewrite.Stats
	var serr error
	pr.res.set("rewrite.swaps_us.n20", "us", us(pr.timeOf(10, func() { _, st, serr = rewrite.Swaps(abfs) })))
	if serr != nil {
		return fmt.Errorf("probe rewrite: Swaps: %w", serr)
	}
	pr.res.set("rewrite.moved_per_history", "count", float64(st.Moves))
	var verr error
	pr.res.set("rewrite.verify_us.n20", "us", us(pr.timeOf(10, func() { verr = rewrite.Verify(abfs, out) })))
	if verr != nil {
		return fmt.Errorf("probe rewrite: Verify: %w", verr)
	}

	pr.res.set("model.droptags_us.n20", "us", us(pr.timeOf(50, func() { h20.DropTags(core.TagSusp) })))
	var valid error
	pr.res.set("model.validate_us.n20", "us", us(pr.timeOf(20, func() { valid = h20.Validate() })))
	if valid != nil {
		return fmt.Errorf("probe model: %w", valid)
	}
	var buf bytes.Buffer
	var werr error
	hdr := trace.Header{Version: trace.FormatVersion, N: 20, T: 3, Seed: pr.seed}
	pr.res.set("trace.write_us.n20", "us", us(pr.timeOf(10, func() {
		buf.Reset()
		werr = trace.Write(&buf, hdr, h20)
	})))
	if werr != nil {
		return fmt.Errorf("probe trace: write: %w", werr)
	}
	pr.res.set("trace.bytes_per_event", "B", float64(buf.Len())/float64(len(h20)))
	var back model.History
	var rerr error
	pr.res.set("trace.read_us.n20", "us", us(pr.timeOf(10, func() { _, back, rerr = trace.Read(bytes.NewReader(buf.Bytes())) })))
	if rerr != nil || len(back) != len(h20) {
		return fmt.Errorf("probe trace: read back %d of %d events: %v", len(back), len(h20), rerr)
	}
	return nil
}

// obs is the observability ladder: the mesh flood bare, then with a metrics
// registry, with spans at rate 1, and with a timeline. Every end-to-end
// workload runs with all three off, so an obs change should move only these.
func (pr *prober) obs() error {
	const n, rounds, msgs = 10, 20, 10 * 9 * 20
	base := sim.Config{N: n, Seed: pr.seed}
	rungs := []func(){
		func() { newFlood(base, nil, rounds).Run() },
		func() { c := base; c.Metrics = obs.NewRegistry(); newFlood(c, nil, rounds).Run() },
		func() { c := base; c.Spans = obs.NewSpanRecorder(pr.seed, 1); newFlood(c, nil, rounds).Run() },
		func() { c := base; c.Timeline = obs.NewTimeline(1, 0); newFlood(c, nil, rounds).Run() },
	}
	ds := pr.interleaved(30, rungs...)
	var as [4]float64
	for i, fn := range rungs {
		as[i], _ = allocsOf(fn)
	}
	pr.res.set("obs.metrics_ladder_ns_per_msg", "ns", float64(ds[1]-ds[0])/msgs)
	pr.res.set("obs.metrics_ladder_allocs_per_run", "count", as[1]-as[0])
	pr.res.set("obs.spans_ladder_ns_per_msg.rate1", "ns", float64(ds[2]-ds[0])/msgs)
	pr.res.set("obs.spans_ladder_allocs_per_msg.rate1", "count", (as[2]-as[0])/msgs)
	pr.res.set("obs.timeline_ladder_ns_per_msg", "ns", float64(ds[3]-ds[0])/msgs)

	reg := obs.NewRegistry()
	c := base
	c.Metrics = reg
	r := newFlood(c, nil, rounds).Run()
	var snap obs.Metrics
	pr.res.set("obs.snapshot_us", "us", us(pr.timeOf(200, func() { snap = reg.Snapshot() })))
	if snap.Value("sim_sent_total") != int64(r.Sent) {
		return fmt.Errorf("probe obs: registry reads %d sent, run %d", snap.Value("sim_sent_total"), r.Sent)
	}
	pr.res.set("obs.merge_us", "us", us(pr.timeOf(200, func() { obs.Merge(snap, r.Metrics) })))
	return nil
}

func (pr *prober) sweep() error {
	spec := sweep.Spec{
		Grid:      []sweep.NT{{N: 8, T: 2}, {N: 10, T: 3}, {N: 12, T: 3}, {N: 15, T: 3}},
		Schedules: []sweep.Schedule{mustSchedule("false-suspicion"), mustSchedule("crash")},
		Seeds:     sweep.SeedRange{Start: pr.seed, Count: 8},
		Check:     true,
	}
	if pr.smoke {
		spec.Grid, spec.Seeds.Count = spec.Grid[:1], 2
	}
	runs := float64(spec.Runs())
	var rep *sweep.Report
	var err error
	sweepOf := func(sp sweep.Spec, workers int) func() {
		return func() {
			r, e := sweep.Run(sp, sweep.Options{Workers: workers})
			if e != nil {
				err = e
			} else {
				rep = r
			}
		}
	}
	unchecked := spec
	unchecked.Check = false
	// The same cells built, run and checked with no engine around them.
	direct := func() {
		for _, nt := range spec.Grid {
			for _, sched := range spec.Schedules {
				for k := 0; k < spec.Seeds.Count; k++ {
					r := runScheduled(nt, sched, spec.Seeds.Start+int64(k), nil)
					if r.Quiescent() {
						checker.All(r.History, core.TagSusp, nt.T)
					}
				}
			}
		}
	}
	nproc := runtime.GOMAXPROCS(0)
	ds := pr.interleaved(5, sweepOf(spec, nproc), sweepOf(unchecked, 1), direct, sweepOf(spec, 1))
	if err != nil {
		return fmt.Errorf("probe sweep: %w", err)
	}
	wN, noCheck, plain, w1 := ds[0], ds[1], ds[2], ds[3]
	pr.res.set("sweep.runs_per_s.w1", "1/s", runs/w1.Seconds())
	pr.res.set("sweep.runs_per_s.wN", "1/s", runs/wN.Seconds())
	pr.res.set("sweep.parallel_efficiency", "ratio", w1.Seconds()/(wN.Seconds()*float64(nproc)))
	pr.res.set("sweep.check_share", "ratio", 1-noCheck.Seconds()/w1.Seconds())
	pr.res.set("sweep.overhead_us_per_run", "us", us(w1-plain)/runs)
	a, _ := allocsOf(func() { _, err = sweep.Run(spec, sweep.Options{Workers: 1}) })
	pr.res.set("sweep.allocs_per_run", "count", a/runs)
	pr.res.set("sweep.cells_expand_us", "us", us(pr.timeOf(50, func() { spec.Cells() })))

	shards := make([]*sweep.Report, 2)
	for i := range shards {
		sp := spec
		sp.Shard = sweep.Shard{Index: i, Count: len(shards)}
		if shards[i], err = sweep.Run(sp, sweep.Options{Workers: 1}); err != nil {
			return fmt.Errorf("probe sweep: shard %d: %w", i, err)
		}
	}
	var merged *sweep.Report
	pr.res.set("sweep.merge_ms", "ms", ms(pr.timeOf(20, func() { merged, err = sweep.Merge(shards...) })))
	if err != nil || merged.Runs != rep.Runs {
		return fmt.Errorf("probe sweep: merge: %v", err)
	}
	var buf bytes.Buffer
	pr.res.set("sweep.write_json_ms", "ms", ms(pr.timeOf(10, func() {
		buf.Reset()
		err = rep.WriteJSON(&buf)
	})))
	if err != nil {
		return fmt.Errorf("probe sweep: write: %w", err)
	}
	pr.res.set("sweep.report_bytes", "B", float64(buf.Len()))
	pr.res.set("sweep.read_json_ms", "ms", ms(pr.timeOf(10, func() { _, err = sweep.ReadJSON(bytes.NewReader(buf.Bytes())) })))
	if err != nil {
		return fmt.Errorf("probe sweep: read: %w", err)
	}
	return nil
}

// keeper is a flood handler that survives restarts with a snapshot, so the
// restart storm has something to recover.
type keeper struct{ floodHandler }

func (k *keeper) Snapshot() []byte { return []byte{byte(k.rounds)} }
func (k *keeper) OnRestart(ctx node.Context, state []byte) {
	if len(state) == 1 {
		k.rounds = int(state[0])
	}
	k.Init(ctx)
}

// recovery prices the crash-recovery machinery: the mesh flood with two
// processes cycling crash/restart under durable recovery, minus the same
// flood left alone, per restart.
func (pr *prober) recovery() error {
	const n, rounds = 10, 30
	var r *sim.Result
	run := func(storm bool) func() {
		return func() {
			cfg := sim.Config{N: n, Seed: pr.seed, MaxTime: 300}
			if storm {
				cfg.Recovery = recovery.Durable
				cfg.Lifetimes = []recovery.Lifetime{
					{Proc: n, Crash: 5, Restart: 15, Period: 20},
					{Proc: n - 1, Crash: 10, Restart: 20, Period: 20},
				}
			}
			s := sim.New(cfg)
			for p := 1; p <= n; p++ {
				s.SetHandler(model.ProcID(p), &keeper{floodHandler{rounds: rounds}})
			}
			r = s.Run()
		}
	}
	ds := pr.interleaved(30, run(false), run(true))
	plain, storm := ds[0], ds[1]
	if r.Restarts == 0 {
		return fmt.Errorf("probe recovery: the storm never restarted")
	}
	pr.res.set("recovery.restart_us", "us", us(storm-plain)/float64(r.Restarts))
	pr.res.set("recovery.recovered_ratio", "ratio", float64(r.Recovered)/float64(r.Restarts))
	return nil
}

// experiments runs every registry entry once (E1–E16, A1–A3; only E9, the
// protocol-cost claim, under -smoke); the benchmark fails if any of the
// paper's claims stops reproducing.
func (pr *prober) experiments() error {
	ids := experiments.IDs()
	if pr.smoke {
		ids = []string{"E9"}
	}
	reg := experiments.Registry()
	t0 := time.Now()
	for _, id := range ids {
		if r := reg[id](); !r.OK {
			return fmt.Errorf("experiment %s (%s) did not reproduce", r.ID, r.Title)
		}
	}
	pr.res.set("experiments.all_s", "s", time.Since(t0).Seconds())
	return nil
}
