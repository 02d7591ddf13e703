package failstop_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"failstop"
	"failstop/internal/byz"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/obs"
	"failstop/internal/reliable"
)

// stackDraw is one generated run through both interposers — reliable links
// under the Byzantine→crash layer — or through one of them or neither, on a
// network that loses, duplicates, reorders and delays messages, cuts links or
// holds their traffic until a heal, with a script of crashes and suspicions
// and up to two processes the plan crashes and restarts. The plan has at most
// one Byzantine rule, whose victim is the one sender that misbehaves: every
// conviction of another process is a fault — except where
// checkGeneratedStack's exemptions say the layer convicts an honest one by
// design.
type stackDraw struct {
	opts     failstop.Options
	crashes  []scriptCrash
	suspects []scriptSuspect
}

type scriptCrash struct {
	at int64
	p  failstop.ProcID
}

type scriptSuspect struct {
	at   int64
	i, j failstop.ProcID
}

func (d stackDraw) String() string {
	return fmt.Sprintf("n=%d t=%d seed=%d maxtime=%d delay=%d..%d hb=%d/%d reliable=%v byz=%v topo=%s rules=%+v procs=%+v byzrules=%+v recovery=%v crashes=%v suspects=%v",
		d.opts.N, d.opts.T, d.opts.Seed, d.opts.MaxTime, d.opts.MinDelay, d.opts.MaxDelay, d.opts.HeartbeatEvery, d.opts.HeartbeatTimeout,
		d.opts.Reliable.Enabled, d.opts.Byzantine.Enabled, topoLabel(d.opts.Topology), d.opts.Faults.Rules, d.opts.Faults.Procs, d.opts.Faults.Byz, d.opts.Recovery, d.crashes, d.suspects)
}

// topoLabel names a topology option: nil, the zero spec, or the spec's name.
func topoLabel(sp *failstop.TopoSpec) string {
	switch {
	case sp == nil:
		return "nil"
	case *sp == failstop.TopoSpec{}:
		return "{}"
	}
	return sp.Name()
}

// drawer reads a draw's choices from bytes. Past their end every choice is
// 0, so any byte string — a fuzzer's input or a seed's expansion — is a draw.
type drawer struct{ b []byte }

// intn returns a choice in 0..n-1, reading as many bytes as n needs.
func (d *drawer) intn(n int) int {
	v := 0
	for span := 1; span < n; span <<= 8 {
		v <<= 8
		if len(d.b) > 0 {
			v |= int(d.b[0])
			d.b = d.b[1:]
		}
	}
	return v % n
}

// prob returns a probability in 0..0.5, in steps of 0.05.
func (d *drawer) prob() float64 { return float64(d.intn(11)) / 20 }

// generatedTags are the tags a rule may select: the detector's suspicions,
// the heartbeats, the witnesses' echoes and the reliable layer's acks.
var generatedTags = []string{failstop.DefaultSuspTag, fd.TagHeartbeat, byz.TagEcho, reliable.TagAck}

// drawStack turns bytes into a draw: n in 3..8, T up to Corollary 8's bound,
// a horizon, heartbeats or none, one to three network rules (each lossy and
// noisy, a Cut or a Hold, over every link, a split into groups or a few
// pairs, always or in a window, a Cut or Hold's always bounded), a script whose
// victims — processes crashed or suspected — number at most T, and at least
// one when there are no heartbeats, and zero to two process rules with
// restarts under amnesia or durable recovery (the restarts reach the
// detector's and the interposers' OnRestart), over both interposers, the
// reliable layer alone, the Byzantine layer alone or a bare stack, with the
// default delays or a delay spread of 150–350 ticks. Without the reliable
// layer a duplicated frame reaches the Byzantine layer undeduplicated, and a
// duplicated heartbeat reaches the detector: heartbeats cross both layers
// unsequenced and unsealed. Under the wide spread a copy can land hundreds of
// ticks after its original. Then the run draws its
// topology: none, the complete graph named, a gossip overlay or a small
// hierarchy, dropped if it cannot shape the draw's n, and zero or one
// Byzantine rule (drawByzRule). Last, one draw in four runs in lockstep: its
// MinDelay is its MaxDelay (10, the simulator's default bound, stated, when
// the draw kept the default delays), so every copy sent in a tick that no
// rule delays lands in one tick, and due batches reach full in-degree under
// gates, reorders and restarts.
func drawStack(data []byte) stackDraw {
	d := &drawer{b: data}
	n := 3 + d.intn(6)
	t := 1 + d.intn(max(failstop.MaxTolerable(n), 1))
	opts := failstop.Options{
		N: n, T: t, Seed: int64(d.intn(1 << 16)),
		MaxTime:   400 + 100*int64(d.intn(12)),
		Reliable:  failstop.ReliableOptions{Enabled: true},
		Byzantine: failstop.ByzantineOptions{Enabled: true},
	}
	if d.intn(2) == 1 {
		opts.HeartbeatEvery = 10 + int64(d.intn(31))
		// A timeout of 0 never suspects: heartbeats flow, and only the
		// script makes victims.
		if d.intn(2) == 1 {
			opts.HeartbeatTimeout = opts.HeartbeatEvery * int64(4+d.intn(5))
		}
	}
	plan := &failstop.FaultPlan{Name: "generated"}
	for k := 1 + d.intn(3); k > 0; k-- {
		var r failstop.FaultRule
		switch d.intn(4) {
		case 2:
			r.Cut = true
		case 3:
			r.Hold = true
		default:
			r.Drop, r.Duplicate, r.Reorder = d.prob(), d.prob(), d.prob()
			r.JitterMax = int64(d.intn(4)) * 5
			if r.Drop == 0 && r.Duplicate == 0 && r.Reorder == 0 && r.JitterMax == 0 {
				r.JitterMax = 3 // Plan.Validate refuses a rule with no effect
			}
		}
		for _, tag := range generatedTags {
			if d.intn(3) == 0 {
				r.Tags = append(r.Tags, tag)
			}
		}
		r.Links = drawLinks(d, n)
		window := d.intn(3)
		if window == 0 && (r.Cut || r.Hold) {
			window = 1 // a Cut or Hold heals: Hold must, and a Cut forever starves the run
		}
		switch window {
		case 1:
			r.From = int64(d.intn(int(opts.MaxTime / 2)))
			r.Until = r.From + 1 + int64(d.intn(int(opts.MaxTime/2)))
		case 2:
			r.From = int64(d.intn(100))
			r.Period = 10 + int64(d.intn(91))
			if r.Hold {
				r.ActiveFor = 1 + int64(d.intn(int(r.Period-1))) // a held window must close
			} else {
				r.ActiveFor = 1 + int64(d.intn(int(r.Period)))
			}
		}
		plan.Rules = append(plan.Rules, r)
	}
	opts.Faults = plan
	draw := stackDraw{opts: opts}
	victims := d.intn(t + 1)
	if victims == 0 && opts.HeartbeatEvery == 0 {
		victims = 1 // with no victim and no heartbeat the run sends nothing
	}
	for k := victims; k > 0; k-- {
		victim := failstop.ProcID(1 + d.intn(n))
		at := 1 + int64(d.intn(int(opts.MaxTime/2)))
		kind := d.intn(3)
		if kind == 0 && opts.HeartbeatEvery == 0 {
			kind = 2 // without heartbeats only a suspicion notices a crash
		}
		switch kind {
		case 0:
			draw.crashes = append(draw.crashes, scriptCrash{at, victim})
		case 1:
			draw.suspects = append(draw.suspects, scriptSuspect{at, other(victim, d.intn(n-1)), victim})
		default:
			draw.crashes = append(draw.crashes, scriptCrash{at, victim})
			draw.suspects = append(draw.suspects, scriptSuspect{at + int64(d.intn(50)), other(victim, d.intn(n-1)), victim})
		}
	}
	// Zero to two process rules, each on a process of its own, crash their
	// victim and bring it back — once, or every Period ticks — blank or from
	// its snapshot.
	if k := d.intn(3); k > 0 {
		draw.opts.Recovery = []failstop.RecoveryMode{failstop.RecoveryAmnesia, failstop.RecoveryDurable}[d.intn(2)]
		first := failstop.ProcID(1 + d.intn(n))
		for _, p := range []failstop.ProcID{first, other(first, d.intn(n-1))}[:k] {
			r := failstop.ProcFaultRule{Proc: p, CrashAt: 1 + int64(d.intn(int(opts.MaxTime/2)))}
			if d.intn(2) == 0 {
				r.RestartAt = r.CrashAt + 1 + int64(d.intn(100))
			} else {
				r.Period = 20 + int64(d.intn(81))
				r.ActiveFor = 1 + int64(d.intn(int(r.Period-1)))
				if d.intn(2) == 1 {
					r.Until = r.CrashAt + int64(d.intn(int(opts.MaxTime)))
				}
			}
			plan.Procs = append(plan.Procs, r)
		}
	}
	switch d.intn(4) {
	case 1:
		draw.opts.Reliable, draw.opts.Byzantine = failstop.ReliableOptions{}, failstop.ByzantineOptions{}
	case 2:
		draw.opts.Byzantine = failstop.ByzantineOptions{}
	case 3:
		draw.opts.Reliable = failstop.ReliableOptions{}
	}
	if d.intn(2) == 1 {
		draw.opts.MaxDelay = 100 + 50*int64(1+d.intn(5))
	}
	switch d.intn(4) {
	case 1:
		draw.opts.Topology = &failstop.TopoSpec{Kind: failstop.TopoFull}
	case 2:
		draw.opts.Topology = &failstop.TopoSpec{Kind: failstop.TopoGossip, Fanout: 1 + d.intn(n-1), Seed: int64(d.intn(1 << 16))}
	case 3:
		draw.opts.Topology = &failstop.TopoSpec{Kind: failstop.TopoHier, Regions: 1 + d.intn(2), Racks: 1 + d.intn(2)}
	}
	draw.dropMisfitTopology()
	if d.intn(2) == 1 {
		plan.Byz = []failstop.ByzFaultRule{drawByzRule(d, n)}
		if plan.Validate(n) != nil {
			plan.Byz = nil
		}
	}
	if d.intn(4) == 3 {
		if draw.opts.MaxDelay == 0 {
			draw.opts.MaxDelay = 10
		}
		draw.opts.MinDelay = draw.opts.MaxDelay
	}
	return draw
}

// drawByzRule draws one Byzantine rule on a drawn victim, active from a tick
// in 0..99: it corrupts, equivocates to two non-empty groups of the other
// processes, or replays 400 ticks late, on the detector's suspicions, on
// every tag, echoes included, or on the heartbeats only.
func drawByzRule(d *drawer, n int) failstop.ByzFaultRule {
	r := failstop.ByzFaultRule{Victim: failstop.ProcID(1 + d.intn(n)), From: int64(d.intn(100))}
	switch d.intn(3) {
	case 0:
		r.Corrupt = 0.1 * float64(1+d.intn(5))
	case 1:
		var others []failstop.ProcID
		for q := failstop.ProcID(1); int(q) <= n; q++ {
			if q != r.Victim {
				others = append(others, q)
			}
		}
		k := 1 + d.intn(n-2)
		r.Equivocate = [][]failstop.ProcID{others[:k:k], others[k:]}
	default:
		r.Replay, r.ReplayDelay = 0.1*float64(1+d.intn(5)), 400
	}
	switch d.intn(3) {
	case 0:
		r.Tags = []string{failstop.DefaultSuspTag}
	case 2:
		r.Tags = []string{fd.TagHeartbeat}
	}
	return r
}

// dropMisfitTopology runs the draw on the complete graph if Options.Validate
// refuses its topology at its n.
func (d *stackDraw) dropMisfitTopology() {
	if d.opts.Topology != nil && d.opts.Validate() != nil {
		d.opts.Topology = nil
	}
}

// drawLinks draws a rule's link selector: every link, a split of some of
// 1..n into disjoint non-empty groups (the rest form the residual group), or
// one to three directed pairs.
func drawLinks(d *drawer, n int) failstop.LinkSet {
	var ls failstop.LinkSet
	switch d.intn(3) {
	case 1:
		groups := make([][]failstop.ProcID, 1+d.intn(3))
		for p := failstop.ProcID(1); int(p) <= n; p++ {
			if g := d.intn(len(groups) + 1); g < len(groups) {
				groups[g] = append(groups[g], p)
			}
		}
		for _, g := range groups {
			if len(g) > 0 {
				ls.Groups = append(ls.Groups, g)
			}
		}
	case 2:
		for k := 1 + d.intn(3); k > 0; k-- {
			from := failstop.ProcID(1 + d.intn(n))
			ls.Pairs = append(ls.Pairs, failstop.Link{From: from, To: other(from, d.intn(n-1))})
		}
	}
	return ls
}

// other returns the k-th process (from 0) of 1..n other than p.
func other(p failstop.ProcID, k int) failstop.ProcID {
	if q := failstop.ProcID(1 + k); q < p {
		return q
	}
	return failstop.ProcID(2 + k)
}

// inject schedules the draw's script on c.
func (d stackDraw) inject(c *failstop.Cluster) {
	for _, cr := range d.crashes {
		c.CrashAt(cr.at, cr.p)
	}
	for _, s := range d.suspects {
		c.SuspectAt(s.at, s.i, s.j)
	}
}

// checkGeneratedStack holds one draw to its properties: both validators
// accept it; every conviction (a byz-detect span) names the Byzantine rule's
// victim, and without a rule, or with one that reaches only the heartbeats
// (which cross the Byzantine layer unsealed, so nothing of theirs is
// evidence), there is none, since the Byzantine layer
// discards a repeated frame however late it lands and no honest sender can
// look like an equivocator — unless a process restarts with amnesia (its
// reused broadcast ids can name other content than the first incarnation's,
// an equivocation by design) or an Equivocate rule reaches the victim's
// echoes (a lying witness, which can frame an honest origin: the limit the
// byz package comment states); sFS2c and sFS2d hold, and sFS2b does whenever
// at most T processes are detected (Theorem 7's quorums then intersect
// across every failed-before cycle there can be); on the complete graph the
// run digests alike with the topology nil, {} and full, and detects within
// one round once its plan is removed (checkOneRound); and the run digests
// the same twice, the second time after a run of another shape
// (poisonDraw), whose recycled simulator state the second run inherits.
func checkGeneratedStack(t *testing.T, d stackDraw) {
	t.Helper()
	if err := d.opts.Validate(); err != nil {
		t.Fatalf("Options.Validate refused a draw: %v\n%v", err, d)
	}
	if err := d.opts.Faults.Validate(d.opts.N); err != nil {
		t.Fatalf("Plan.Validate refused a draw: %v\n%v", err, d)
	}
	o := d.opts
	o.Spans = failstop.NewSpanRecorder(o.Seed, 0) // records every conviction
	c := failstop.NewCluster(o)
	d.inject(c)
	rep := c.Run()
	sameVerdictsAsReport(t, rep, d, "")
	victim := model.None
	lyingWitness := false
	for _, r := range d.opts.Faults.Byz {
		victim = r.Victim
		if slices.Equal(r.Tags, []string{fd.TagHeartbeat}) {
			victim = model.None // a heartbeat crosses unsealed: it is no evidence
		}
		lyingWitness = len(r.Equivocate) > 0 && (len(r.Tags) == 0 || slices.Contains(r.Tags, byz.TagEcho))
	}
	if d.opts.Recovery != failstop.RecoveryAmnesia && !lyingWitness {
		for _, s := range rep.Spans {
			if s.Kind == obs.SpanByzDetect && s.Peer != victim {
				t.Errorf("process %d convicted %d (%s) at %d; the Byzantine victim is %d\n%v", s.Proc, s.Peer, s.Note, s.Time, victim, d)
			}
		}
	}
	detected := map[model.ProcID]bool{}
	for _, det := range rep.History.Detections() {
		detected[det.Detected] = true
	}
	sfs := true // sFS2a-d all hold: Theorem 5's premise
	for _, v := range rep.Verdicts {
		if strings.HasPrefix(v.Property, "sFS2") {
			sfs = sfs && v.Holds
		}
		switch {
		case v.Property == "sFS2b" && len(detected) > d.opts.T:
		case v.Property == "sFS2b", v.Property == "sFS2c", v.Property == "sFS2d":
			if !v.Holds {
				t.Errorf("%s with %d processes detected\n%v", v, len(detected), d)
			}
		}
	}
	// Theorem 5: a run that satisfies sFS is indistinguishable from a
	// fail-stop one. RewriteToFS builds that run and verifies it itself.
	if sfs {
		if _, err := failstop.RewriteToFS(rep.Abstract); err != nil {
			t.Errorf("sFS2a-d hold but no isomorphic fail-stop run: %v\n%v", err, d)
		}
	}
	a := stackDigest(t, d.opts, "", d.inject)
	if d.opts.Topology == nil || d.opts.Topology.IsFull() {
		// The complete graph has one representation: nil, the zero spec
		// and the named full spec run alike.
		for _, full := range []*failstop.TopoSpec{nil, {}, {Kind: failstop.TopoFull}} {
			o := d.opts
			o.Topology = full
			if b := stackDigest(t, o, "", d.inject); a != b {
				t.Errorf("complete graph as %s digests %s, as %s %s\n%v", topoLabel(full), b, topoLabel(d.opts.Topology), a, d)
			}
		}
		checkOneRound(t, d)
	}
	p := poisonDraw(d)
	stackDigest(t, p.opts, "", p.inject)
	if b := stackDigest(t, d.opts, "", d.inject); a != b {
		t.Errorf("one draw ran twice digests %s then, after %v, %s\n%v", a, p, b, d)
	}
	pc := failstop.NewCluster(p.opts)
	p.inject(pc)
	failstop.CheckAll(pc.Run().History, failstop.DefaultSuspTag, p.opts.T) // leaves its tables in the pooled workspace
	sameVerdictsAsReport(t, rep, d, fmt.Sprintf(", after checking %v,", p))
}

// sameVerdictsAsReport holds failstop.CheckAll, which reads the run through
// the checker's borrowed scan and pooled tables, to the report's verdicts,
// read off the facade's owned scan: property by property, Holds and Detail.
func sameVerdictsAsReport(t *testing.T, rep failstop.Report, d stackDraw, when string) {
	t.Helper()
	all := failstop.CheckAll(rep.History, failstop.DefaultSuspTag, d.opts.T)
	for _, want := range rep.Verdicts {
		k := slices.IndexFunc(all, func(v failstop.Verdict) bool { return v.Property == want.Property })
		if k < 0 || all[k] != want {
			t.Errorf("CheckAll%s gives %v where the report has %s\n%v", when, all, want, d)
			return
		}
	}
}

// checkOneRound runs the draw with its plan removed and recovery off, so
// every link delivers within MaxDelay, and holds each detection's
// FirstSuspicion to E9's one round, 4 × MaxDelay: a SUSP frame, its echo,
// the SUSP of the process that joins, and that SUSP's echo.
func checkOneRound(t *testing.T, d stackDraw) {
	t.Helper()
	o := d.opts
	o.Faults, o.Recovery = nil, failstop.RecoveryOff
	c := failstop.NewCluster(o)
	d.inject(c)
	maxDelay := o.MaxDelay
	if maxDelay == 0 {
		maxDelay = 10 // the simulator's default delays are 1..10
	}
	for _, l := range model.Latencies(c.Run().History, failstop.DefaultSuspTag) {
		if l.FirstSuspicion > 4*maxDelay {
			t.Errorf("on fault-free links failed_%d(%d) at %d took %d ticks from the first suspicion, over 4 × MaxDelay = %d\n%v",
				l.Detector, l.Detected, l.Tick, l.FirstSuspicion, 4*maxDelay, d)
		}
	}
}

// poisonDraw returns a draw of another shape than d: more processes, another
// plan, and at least one process that crashes and restarts. Run between two
// runs of d, it retires the bulk the second one draws, so that run starts
// from tables, slab, links and timers another run left behind.
func poisonDraw(d stackDraw) stackDraw {
	for seed := uint64(d.opts.Seed) + 1; ; seed++ {
		p := drawStack(seedBytes(seed))
		if len(p.opts.Faults.Procs) > 0 {
			p.opts.N = max(p.opts.N, d.opts.N) + 1 // the draw's ids and T stay valid at a larger n
			p.dropMisfitTopology()                 // a hierarchy may not
			return p
		}
	}
}

// seedBytes expands a seed into the bytes of a draw.
func seedBytes(seed uint64) []byte {
	b := make([]byte, 128)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], model.Mix(seed*0x9e3779b97f4a7c15+uint64(i)))
	}
	return b
}

// TestGeneratedStackRuns holds fixed draws to the generator's properties:
// seeds 1–30; 73, 201 and 257, byz-only draws on the wide delay spread
// whose late network duplicates a 100-tick replay timeout took for replays
// of honest senders; and 612, both layers at n = 6 with a rule corrupting
// process 4's heartbeats, which convicted it on a bad heartbeat MAC while
// the Byzantine layer sealed heartbeats.
func TestGeneratedStackRuns(t *testing.T) {
	var seeds []uint64
	for seed := uint64(1); seed <= 30; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range append(seeds, 73, 201, 257, 612) {
		d := drawStack(seedBytes(seed))
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkGeneratedStack(t, d) })
	}
}

// FuzzGeneratedStackRun reads a draw from the fuzzer's bytes.
func FuzzGeneratedStackRun(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seedBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkGeneratedStack(t, drawStack(data)) })
}
