package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/quorum"
	"failstop/internal/topo"
)

// mapDetector is the detector as it stood before the rounds table — one
// instance of the §5 protocol spread over four maps keyed by target, their
// keys sorted wherever order shows — kept as the reference the table is
// compared against. It hosts no fd component, and its application is the one
// hook the comparison needs (onFailed, which may suspect).
type mapDetector struct {
	cfg      Config
	onFailed func(ctx node.Context, j model.ProcID)

	self      model.ProcID
	pool      quorum.Pool
	threshold int
	crashed   bool
	suspected map[model.ProcID]bool
	counts    map[model.ProcID]quorum.Set
	detected  map[model.ProcID]bool
	quorums   map[model.ProcID][]model.ProcID
	pending   []pendingCount
}

func newMapDetector(cfg Config) *mapDetector {
	return &mapDetector{
		cfg:       cfg.withDefaults(),
		suspected: make(map[model.ProcID]bool),
		counts:    make(map[model.ProcID]quorum.Set),
		detected:  make(map[model.ProcID]bool),
		quorums:   make(map[model.ProcID][]model.ProcID),
	}
}

func (d *mapDetector) OnCrash(node.Context) { d.crashed = true }

func (d *mapDetector) Snapshot() []byte {
	snap := detectorSnapshot{
		Suspected: sortedTrueKeys(d.suspected),
		Detected:  d.DetectedSet(),
	}
	for _, target := range sortedMapKeys(d.counts) {
		snap.Counts = append(snap.Counts, countSnapshot{
			Target: target, Senders: d.counts[target].Members(),
		})
	}
	for _, target := range sortedMapKeys(d.quorums) {
		members := make([]model.ProcID, len(d.quorums[target]))
		copy(members, d.quorums[target])
		snap.Quorums = append(snap.Quorums, countSnapshot{Target: target, Senders: members})
	}
	b, err := json.Marshal(snap)
	if err != nil {
		panic(fmt.Sprintf("core: encoding detector snapshot: %v", err))
	}
	return b
}

func (d *mapDetector) OnRestart(ctx node.Context, state []byte) {
	d.crashed = false
	d.suspected = make(map[model.ProcID]bool)
	d.counts = make(map[model.ProcID]quorum.Set)
	d.detected = make(map[model.ProcID]bool)
	d.quorums = make(map[model.ProcID][]model.ProcID)
	d.pending = nil
	if len(state) > 0 {
		var snap detectorSnapshot
		if err := json.Unmarshal(state, &snap); err == nil {
			for _, j := range snap.Suspected {
				d.suspected[j] = true
			}
			for _, j := range snap.Detected {
				d.detected[j] = true
			}
			for _, c := range snap.Counts {
				set := d.newSenderSet()
				for _, s := range c.Senders {
					if s >= 1 && int(s) <= d.cfg.N {
						set.Add(s)
					}
				}
				d.counts[c.Target] = set
			}
			for _, q := range snap.Quorums {
				members := make([]model.ProcID, len(q.Senders))
				copy(members, q.Senders)
				d.quorums[q.Target] = members
			}
		}
	}
	d.Init(ctx)
}

func sortedTrueKeys(m map[model.ProcID]bool) []model.ProcID {
	var out []model.ProcID
	for j, ok := range m {
		if ok {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func sortedMapKeys[V any](m map[model.ProcID]V) []model.ProcID {
	out := make([]model.ProcID, 0, len(m))
	for j := range m {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func (d *mapDetector) Init(ctx node.Context) {
	d.self = ctx.Self()
	d.pool = quorum.PoolOf(d.cfg.Topology, d.self, d.cfg.N, d.cfg.T)
	d.threshold = d.cfg.QuorumSize
	if d.threshold == 0 {
		d.threshold = d.pool.MinSize()
	}
}

func (d *mapDetector) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	if !d.crashed && p.Tag == TagSusp {
		d.onSusp(ctx, from, p.Subject, p.Data)
	}
}

func (d *mapDetector) Accepts(from model.ProcID, p node.Payload) bool {
	if d.crashed || p.Tag != TagApp || d.cfg.Protocol == Unilateral {
		return true
	}
	if d.cfg.StrictGating {
		return !d.Detecting()
	}
	for target, senders := range d.counts {
		if senders.Has(from) && !d.detected[target] {
			return false
		}
	}
	return true
}

func (d *mapDetector) Suspect(ctx node.Context, j model.ProcID) {
	if d.crashed || j == d.self || j == model.None || d.suspected[j] || d.detected[j] {
		return
	}
	d.suspected[j] = true
	ctx.EmitInternal(model.TagSuspect, j)
	switch d.cfg.Protocol {
	case Unilateral:
		d.complete(ctx, j, []model.ProcID{d.self})
		return
	case SimulatedFailStop, Cheap:
		d.broadcastSusp(ctx, j)
	}
	switch d.cfg.Protocol {
	case Unilateral:
	case Cheap:
		d.complete(ctx, j, []model.ProcID{d.self})
	case SimulatedFailStop:
		d.countSusp(ctx, j, d.self)
		if d.cfg.Policy == AllButSuspected {
			d.reevaluateAll(ctx)
		}
	}
}

func (d *mapDetector) broadcastSusp(ctx node.Context, j model.ProcID) {
	var data []byte
	if d.cfg.Piggyback {
		data = encodeProcIDs(d.DetectedSet())
	}
	d.ForEachPeer(func(q model.ProcID) {
		ctx.Send(q, node.Payload{Tag: TagSusp, Subject: j, Data: data})
	})
}

func (d *mapDetector) ForEachPeer(fn func(q model.ProcID)) {
	if top := d.cfg.Topology; top != nil {
		top.ForEachPeer(d.self, fn)
		return
	}
	for q := model.ProcID(1); int(q) <= d.cfg.N; q++ {
		if q != d.self {
			fn(q)
		}
	}
}

func (d *mapDetector) onSusp(ctx node.Context, sender, x model.ProcID, data []byte) {
	if x == d.self {
		ctx.CrashSelf()
		d.crashed = true
		return
	}
	switch d.cfg.Protocol {
	case SimulatedFailStop:
		d.Suspect(ctx, x)
		if d.crashed {
			return
		}
		if d.cfg.Piggyback {
			if deps := d.unmetDeps(data); len(deps) > 0 {
				d.pending = append(d.pending, pendingCount{sender: sender, target: x, deps: deps})
				return
			}
		}
		d.countSusp(ctx, x, sender)
	case Cheap:
		d.Suspect(ctx, x)
	case Unilateral:
	}
}

func (d *mapDetector) countSusp(ctx node.Context, j, sender model.ProcID) {
	if d.detected[j] || !d.pool.Counts(sender) {
		return
	}
	set := d.counts[j]
	if set == nil {
		set = d.newSenderSet()
		d.counts[j] = set
	}
	set.Add(sender)
	d.maybeComplete(ctx, j)
}

func (d *mapDetector) newSenderSet() quorum.Set {
	return make(quorum.Set, quorum.Words(d.cfg.N))
}

func (d *mapDetector) maybeComplete(ctx node.Context, j model.ProcID) {
	if d.crashed || d.detected[j] || !d.suspected[j] {
		return
	}
	set := d.counts[j]
	switch d.cfg.Policy {
	case FixedQuorum:
		if set.Len() < d.threshold {
			return
		}
	case AllButSuspected:
		complete := true
		d.ForEachPeer(func(q model.ProcID) {
			if complete && !d.suspected[q] && !set.Has(q) {
				complete = false
			}
		})
		if !complete {
			return
		}
	}
	d.complete(ctx, j, set.Members())
}

func (d *mapDetector) reevaluateAll(ctx node.Context) {
	for _, j := range sortedTrueKeys(d.suspected) {
		if d.crashed {
			return
		}
		if !d.detected[j] {
			d.maybeComplete(ctx, j)
		}
	}
}

func (d *mapDetector) complete(ctx node.Context, j model.ProcID, quorumSet []model.ProcID) {
	d.detected[j] = true
	d.quorums[j] = quorumSet
	ctx.EmitFailed(j)
	if d.onFailed != nil {
		d.onFailed(ctx, j)
	}
	if d.cfg.Piggyback {
		d.drainPending(ctx)
	}
}

func (d *mapDetector) unmetDeps(data []byte) []model.ProcID {
	if len(data) == 0 {
		return nil
	}
	var out []model.ProcID
	for _, dep := range decodeProcIDs(data) {
		if !d.detected[dep] && dep != d.self {
			out = append(out, dep)
		}
	}
	return out
}

func (d *mapDetector) drainPending(ctx node.Context) {
	for {
		progressed := false
		rest := d.pending[:0]
		for _, pc := range d.pending {
			if d.crashed {
				return
			}
			met := true
			for _, dep := range pc.deps {
				if !d.detected[dep] {
					met = false
					break
				}
			}
			if met {
				d.countSusp(ctx, pc.target, pc.sender)
				progressed = true
			} else {
				rest = append(rest, pc)
			}
		}
		d.pending = rest
		if !progressed {
			return
		}
	}
}

func (d *mapDetector) Detecting() bool {
	for j, susp := range d.suspected {
		if susp && !d.detected[j] {
			return true
		}
	}
	return false
}

func (d *mapDetector) SendApp(ctx node.Context, to model.ProcID, data []byte) {
	if d.crashed {
		return
	}
	ctx.Send(to, node.Payload{Tag: TagApp, Data: data})
}

func (d *mapDetector) Detected(j model.ProcID) bool { return d.detected[j] }
func (d *mapDetector) Suspects(j model.ProcID) bool { return d.suspected[j] }
func (d *mapDetector) Crashed() bool                { return d.crashed }

func (d *mapDetector) DetectedSet() []model.ProcID {
	out := make([]model.ProcID, 0, len(d.detected))
	for j, ok := range d.detected {
		if ok {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func (d *mapDetector) Quorums() map[model.ProcID][]model.ProcID {
	out := make(map[model.ProcID][]model.ProcID, len(d.quorums))
	for j, q := range d.quorums {
		cp := make([]model.ProcID, len(q))
		copy(cp, q)
		out[j] = cp
	}
	return out
}

// protocolLayer is what a script drives and compares: *Detector and
// *mapDetector both are one.
type protocolLayer interface {
	OnMessage(ctx node.Context, from model.ProcID, p node.Payload)
	node.Gate
	node.CrashListener
	node.Restarter
	Suspect(ctx node.Context, j model.ProcID)
	SendApp(ctx node.Context, to model.ProcID, data []byte)
	Detected(j model.ProcID) bool
	Suspects(j model.ProcID) bool
	Crashed() bool
	Detecting() bool
	DetectedSet() []model.ProcID
	Quorums() map[model.ProcID][]model.ProcID
}

// scriptCtx is the host of one detector under script: it records every
// event the detector emits, in order, and nothing else happens.
type scriptCtx struct {
	node.Context
	self model.ProcID
	n    int
	log  []string
}

func (c *scriptCtx) Self() model.ProcID { return c.self }
func (c *scriptCtx) N() int             { return c.n }
func (c *scriptCtx) Send(to model.ProcID, p node.Payload) {
	c.log = append(c.log, fmt.Sprintf("send %d %s %d %v", to, p.Tag, p.Subject, p.Data))
}
func (c *scriptCtx) EmitFailed(j model.ProcID) { c.log = append(c.log, fmt.Sprintf("failed %d", j)) }
func (c *scriptCtx) CrashSelf()                { c.log = append(c.log, "crash") }
func (c *scriptCtx) EmitInternal(tag string, j model.ProcID) {
	c.log = append(c.log, fmt.Sprintf("%s %d", tag, j))
}

// chainApp is the application of the comparison: on failed_self(j) it
// suspects another process, above j or below it, from inside OnFailed — the
// call that opens a round while complete, maybeComplete and reevaluateAll
// are on the stack.
type chainApp struct{ n int }

func (a chainApp) next(j model.ProcID) model.ProcID {
	return (j+model.ProcID(a.n)/2)%model.ProcID(a.n) + 1
}

func (chainApp) Init(node.Context, *Detector)                               {}
func (chainApp) OnAppMessage(node.Context, *Detector, model.ProcID, []byte) {}
func (chainApp) OnTimer(node.Context, *Detector, string)                    {}
func (a chainApp) OnFailed(ctx node.Context, d *Detector, j model.ProcID) {
	d.Suspect(ctx, a.next(j))
}

// oracleConfigs is the product the script runs over: protocol × policy ×
// Piggyback × StrictGating × {complete graph, gossip pool}, each with and
// without the chaining application.
func oracleConfigs(n, t int) []Config {
	gossip := topo.MustNew(topo.Spec{Kind: topo.KindGossip, Fanout: 2, Seed: 5}, n)
	var out []Config
	for _, proto := range []Protocol{SimulatedFailStop, Cheap, Unilateral} {
		for _, policy := range []QuorumPolicy{FixedQuorum, AllButSuspected} {
			for _, top := range []*topo.Topology{nil, gossip} {
				for bits := 0; bits < 4; bits++ {
					out = append(out, Config{
						N: n, T: t, Protocol: proto, Policy: policy, Topology: top,
						Piggyback: bits&1 != 0, StrictGating: bits&2 != 0,
					})
				}
			}
		}
	}
	return out
}

// TestDetectorMatchesMapOracle drives the table and the maps it replaced
// through the same generated scripts — suspicions, "j failed" from arbitrary
// senders with arbitrary piggybacked detections, application sends, gate
// probes, crashes, and durable and amnesia restarts — under an application
// that suspects from inside OnFailed, and after every step requires the same
// emitted events, the same snapshot bytes and the same answers from every
// accessor. The one stated difference: a baseline (Cheap, Unilateral) now
// snapshots its {self} under "counts" as well as under "quorums".
func TestDetectorMatchesMapOracle(t *testing.T) {
	const n, tol, self = 5, 2, model.ProcID(3)
	const steps = 60
	for ci, cfg := range oracleConfigs(n, tol) {
		scripts := 24
		if cfg.Protocol != SimulatedFailStop || testing.Short() {
			scripts = 6 // a baseline has no quorum to wait for: fewer ways to go
		}
		for script := 0; script < scripts; script++ {
			seed := int64(ci*1000 + script)
			rng := rand.New(rand.NewSource(seed))
			// Every (quorum size, application) pair comes round in six
			// scripts: Theorem 7's minimum, and quorums of one and two,
			// which complete — and so nest — far more often.
			cfg.QuorumSize = script % 3
			chain := script%2 == 1
			det, dctx, ref, rctx := oraclePair(cfg, self, chain)
			for step := 0; step < steps; step++ {
				what := runOracleStep(rng, n, det, dctx, ref, rctx)
				if err := compareLayers(cfg, n, det, dctx, ref, rctx); err != nil {
					t.Fatalf("config %d (%+v) chain=%v seed %d step %d (%s): %v", ci, cfg, chain, seed, step, what, err)
				}
			}
		}
	}

	// The ordered scripts: eleven rounds, one for each other process of
	// twelve, opened in descending, ascending and outside-in target order —
	// at the front, the end and the middle of the table — by a suspicion of
	// self's and by a neighbour's "j failed" in turn (a Unilateral detector
	// ignores those: it suspects every time); then each target is announced by
	// one more sender, which finds every round again.
	const wide, wideSelf = 12, model.ProcID(6)
	next := func(p model.ProcID) model.ProcID { // the process after p that is not self
		if p = p%wide + 1; p == wideSelf {
			p++
		}
		return p
	}
	var down, up, inward []model.ProcID
	for j := next(wide); len(up) < wide-1; j = next(j) {
		down, up = append([]model.ProcID{j}, down...), append(up, j)
	}
	for i := range up {
		if i%2 == 0 {
			inward = append(inward, up[i/2])
		} else {
			inward = append(inward, down[i/2])
		}
	}
	for ci, cfg := range oracleConfigs(wide, 3) {
		for oi, order := range [][]model.ProcID{down, up, inward} {
			chain := (ci+oi)%2 == 1
			det, dctx, ref, rctx := oraclePair(cfg, wideSelf, chain)
			both := func(f func(l protocolLayer, ctx *scriptCtx)) { f(det, dctx); f(ref, rctx) }
			for lap := 0; lap < 2; lap++ {
				for i, j := range order {
					if lap == 0 && (i%2 == 0 || cfg.Protocol == Unilateral) {
						both(func(l protocolLayer, ctx *scriptCtx) { l.Suspect(ctx, j) })
					} else {
						from := next(j)
						if lap == 1 {
							from = next(from)
						}
						both(func(l protocolLayer, ctx *scriptCtx) {
							l.OnMessage(ctx, from, node.Payload{Tag: TagSusp, Subject: j})
						})
					}
					if err := compareLayers(cfg, wide, det, dctx, ref, rctx); err != nil {
						t.Fatalf("config %d (%+v) chain=%v order %v lap %d target %d: %v", ci, cfg, chain, order, lap, j, err)
					}
				}
				if len(det.rounds) != len(order) {
					t.Fatalf("config %d (%+v) chain=%v order %v: %d rounds after lap %d, want %d", ci, cfg, chain, order, len(det.rounds), lap, len(order))
				}
			}
		}
	}
}

// oraclePair returns the table and the maps for one script of self's, each
// with its own context and initialized, under the chaining application or none.
func oraclePair(cfg Config, self model.ProcID, chain bool) (*Detector, *scriptCtx, *mapDetector, *scriptCtx) {
	app := chainApp{n: cfg.N}
	var det *Detector
	if chain {
		det = NewDetector(cfg, nil, app)
	} else {
		det = NewDetector(cfg, nil, nil)
	}
	ref := newMapDetector(cfg)
	if chain {
		ref.onFailed = func(ctx node.Context, j model.ProcID) { ref.Suspect(ctx, app.next(j)) }
	}
	dctx := &scriptCtx{self: self, n: cfg.N}
	rctx := &scriptCtx{self: self, n: cfg.N}
	det.Init(dctx)
	ref.Init(rctx)
	return det, dctx, ref, rctx
}

// runOracleStep applies one generated step to both layers and names it.
func runOracleStep(rng *rand.Rand, n int, det protocolLayer, dctx *scriptCtx, ref protocolLayer, rctx *scriptCtx) string {
	both := func(f func(l protocolLayer, ctx *scriptCtx)) { f(det, dctx); f(ref, rctx) }
	proc := func() model.ProcID { return model.ProcID(1 + rng.Intn(n)) }
	switch k := rng.Intn(20); {
	case k < 5:
		j := model.ProcID(rng.Intn(n + 1)) // None and self included
		both(func(l protocolLayer, ctx *scriptCtx) { l.Suspect(ctx, j) })
		return fmt.Sprintf("suspect %d", j)
	case k < 14:
		from, x := model.ProcID(rng.Intn(n+3)-1), proc() // senders -1..n+1; x may be self
		if rng.Intn(12) > 0 && x == dctx.self {
			x = x%model.ProcID(n) + 1 // keep most scripts alive past their first steps
		}
		var data []byte
		for dep := 1; dep <= n; dep++ {
			if rng.Intn(8) == 0 {
				data = append(data, byte(dep))
			}
		}
		both(func(l protocolLayer, ctx *scriptCtx) {
			l.OnMessage(ctx, from, node.Payload{Tag: TagSusp, Subject: x, Data: data})
		})
		return fmt.Sprintf("%d says %d failed, deps %v", from, x, data)
	case k < 16:
		to, data := proc(), []byte{byte(rng.Intn(256))}
		both(func(l protocolLayer, ctx *scriptCtx) { l.SendApp(ctx, to, data) })
		return fmt.Sprintf("send app to %d", to)
	case k < 17:
		both(func(l protocolLayer, ctx *scriptCtx) { l.OnCrash(ctx) })
		return "crash"
	case k < 19:
		// Durable: each side restarts from its own snapshot (compared equal
		// at the end of the previous step).
		both(func(l protocolLayer, ctx *scriptCtx) { l.OnRestart(ctx, l.Snapshot()) })
		return "durable restart"
	default:
		both(func(l protocolLayer, ctx *scriptCtx) { l.OnRestart(ctx, nil) })
		return "amnesia restart"
	}
}

// compareLayers reports the first observable difference between the table
// and the reference, and clears both event logs.
func compareLayers(cfg Config, n int, det protocolLayer, dctx *scriptCtx, ref protocolLayer, rctx *scriptCtx) error {
	defer func() { dctx.log, rctx.log = nil, nil }()
	if !reflect.DeepEqual(dctx.log, rctx.log) {
		return fmt.Errorf("events differ:\n table %q\n  maps %q", dctx.log, rctx.log)
	}
	got, want := det.Snapshot(), ref.Snapshot()
	if cfg.withDefaults().Protocol != SimulatedFailStop {
		var snap detectorSnapshot
		if err := json.Unmarshal(got, &snap); err != nil {
			return err
		}
		if !reflect.DeepEqual(snap.Counts, snap.Quorums) {
			return fmt.Errorf("baseline snapshot's counts are not its quorums: %s", got)
		}
		snap.Counts = nil
		got, _ = json.Marshal(snap)
	}
	if string(got) != string(want) {
		return fmt.Errorf("snapshots differ:\n table %s\n  maps %s", got, want)
	}
	if det.Crashed() != ref.Crashed() || det.Detecting() != ref.Detecting() {
		return fmt.Errorf("crashed/detecting: table %v/%v, maps %v/%v", det.Crashed(), det.Detecting(), ref.Crashed(), ref.Detecting())
	}
	if a, b := det.DetectedSet(), ref.DetectedSet(); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("DetectedSet: table %v, maps %v", a, b)
	}
	if a, b := det.Quorums(), ref.Quorums(); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("Quorums: table %v, maps %v", a, b)
	}
	for p := model.ProcID(-1); int(p) <= n+1; p++ {
		if det.Detected(p) != ref.Detected(p) || det.Suspects(p) != ref.Suspects(p) {
			return fmt.Errorf("process %d: table detected=%v suspects=%v, maps detected=%v suspects=%v",
				p, det.Detected(p), det.Suspects(p), ref.Detected(p), ref.Suspects(p))
		}
		for _, tag := range []string{TagApp, TagSusp} {
			if a, b := det.Accepts(p, node.Payload{Tag: tag}), ref.Accepts(p, node.Payload{Tag: tag}); a != b {
				return fmt.Errorf("Accepts(%d, %s): table %v, maps %v", p, tag, a, b)
			}
		}
	}
	return nil
}
