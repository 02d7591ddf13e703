package sweep

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"failstop/internal/byz"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
	"failstop/internal/sim"
	"failstop/internal/topo"
)

func TestSpecExpansion(t *testing.T) {
	spec := Spec{
		Grid:         []NT{{5, 2}, {10, 3}},
		Protocols:    []core.Protocol{core.SimulatedFailStop, core.Cheap},
		QuorumDeltas: []int{-1, 0},
		Schedules:    []Schedule{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Seeds:        SeedRange{Start: 7, Count: 4},
	}
	if got, want := len(spec.Cells()), 2*2*2*3; got != want {
		t.Errorf("cells = %d, want %d", got, want)
	}
	if got, want := spec.Runs(), 2*2*2*3*4; got != want {
		t.Errorf("runs = %d, want %d", got, want)
	}
	first := spec.Cells()[0]
	want := Cell{NT: NT{5, 2}, Protocol: core.SimulatedFailStop, QuorumDelta: -1, Schedule: "a"}
	if first != want {
		t.Errorf("first cell = %+v, want %+v", first, want)
	}
}

// TestCellsOrderAcrossAllAxes pins the documented cell order over all nine
// axes, two entries each: grid, protocol, quorum delta, schedule, plan,
// topology, reliable, recovery, byzantine — the last varying fastest.
// Callers index Report.Cells by it.
func TestCellsOrderAcrossAllAxes(t *testing.T) {
	spec := Spec{
		Grid:         []NT{{5, 2}, {6, 2}},
		Protocols:    []core.Protocol{core.SimulatedFailStop, core.Cheap},
		QuorumDeltas: []int{0, 1},
		Schedules:    []Schedule{{Name: "a"}, {Name: "b"}},
		Plans:        []netadv.Generator{{}, netadv.Fixed(netadv.Plan{Name: "p"})},
		Topologies:   []topo.Spec{{}, {Kind: topo.KindGossip, Fanout: 2}},
		Reliable:     []reliable.Options{{}, {Enabled: true}},
		Recovery:     []recovery.Mode{recovery.Off, recovery.Durable},
		Byzantine:    []byz.Options{{}, {Enabled: true}},
	}
	cells := spec.Cells()
	if len(cells) != 1<<9 {
		t.Fatalf("cells = %d, want %d", len(cells), 1<<9)
	}
	for i, got := range cells {
		bit := func(axis int) int { return i >> (8 - axis) & 1 } // axis 0 varies slowest
		want := Cell{
			NT:          spec.Grid[bit(0)],
			Protocol:    spec.Protocols[bit(1)],
			QuorumDelta: spec.QuorumDeltas[bit(2)],
			Schedule:    spec.Schedules[bit(3)].Name,
			Plan:        spec.Plans[bit(4)].Name,
			Topo:        []string{"", "gossip:2"}[bit(5)],
			Reliable:    bit(6) == 1,
			Recovery:    spec.Recovery[bit(7)],
			Byzantine:   bit(8) == 1,
		}
		if got != want {
			t.Fatalf("cell %d = %v, want %v", i, got, want)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	spec := Spec{Grid: []NT{{5, 2}}}
	if got := len(spec.Cells()); got != 1 {
		t.Fatalf("cells = %d, want 1", got)
	}
	if got := spec.Runs(); got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
	c := spec.Cells()[0]
	if c.Protocol != core.SimulatedFailStop || c.QuorumDelta != 0 || c.Schedule != "quiet" {
		t.Errorf("default cell = %+v", c)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	splitBrain, _ := netadv.Builtin("split-brain")
	cases := []Spec{
		{},
		{Grid: []NT{{1, 1}}},
		{Grid: []NT{{5, 0}}},
		{Grid: []NT{{model.MaxProcs + 1, 1}}},
		// Two equal entries on any axis make equal cells, whose runs a sweep
		// used to repeat and count twice in every tally.
		{Grid: []NT{{5, 2}, {5, 2}}},
		{Grid: []NT{{5, 2}}, Protocols: []core.Protocol{core.SimulatedFailStop, core.SimulatedFailStop}},
		{Grid: []NT{{5, 2}}, QuorumDeltas: []int{0, 0}},
		{Grid: []NT{{5, 2}}, Schedules: []Schedule{{Name: "x"}, {Name: "x"}}},
		{Grid: []NT{{5, 2}}, Plans: []netadv.Generator{splitBrain, splitBrain}},
		{Grid: []NT{{5, 2}}, Topologies: []topo.Spec{{Kind: topo.KindGossip, Fanout: 2}, {Kind: topo.KindGossip, Fanout: 2}}},
		{Grid: []NT{{5, 2}}, Reliable: []reliable.Options{{Enabled: true, MaxRetries: 3}, {Enabled: true, MaxRetries: 5}}},
		{Grid: []NT{{5, 2}}, Recovery: []recovery.Mode{recovery.Durable, recovery.Durable}},
		{Grid: []NT{{5, 2}}, Byzantine: []byz.Options{{Enabled: true}, {Enabled: true}}},
		{Grid: []NT{{5, 2}}, Timeline: true, TimelineEvery: -5},
		// A negative bound had the default distribution park every message:
		// the crash cell reported 2/2 runs blocked, exit status 0.
		{Grid: []NT{{5, 2}}, MinDelay: -5, MaxDelay: -1},
		{Grid: []NT{{5, 2}}, MaxDelay: -1},
		// MinSize(5, 2) = 3: the last two deltas were clamped to quorum 1 and
		// ran the first one's scenario under two more names.
		{Grid: []NT{{5, 2}}, QuorumDeltas: []int{-2, -3, -4}},
		{Grid: []NT{{6, 1}}, QuorumDeltas: []int{-1}},
		// A fixed size overrode every gossip pool's own minimum (51 of pools
		// of 9–17), and cheap never reads it.
		{Grid: []NT{{64, 5}}, Topologies: []topo.Spec{{Kind: topo.KindGossip, Fanout: 8}}, QuorumDeltas: []int{-1, 0, 1}},
		{Grid: []NT{{5, 2}}, Protocols: []core.Protocol{core.Cheap}, QuorumDeltas: []int{0, 1}},
	}
	for i, spec := range cases {
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, spec)
		}
		if _, err := Run(spec, Options{Workers: 1}); err == nil {
			t.Errorf("case %d: Run accepted %+v", i, spec)
		}
	}
}

// TestQuorumDeltaErrorsNameTheCell: a rejected delta is named with the grid
// point it fails at, and a QuorumSize the detector would not read with the
// cell it was set for.
func TestQuorumDeltaErrorsNameTheCell(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want []string
	}{
		{Spec{Grid: []NT{{5, 2}}, QuorumDeltas: []int{-2, -3, -4}}, []string{"QuorumDeltas", "delta -4", "n=5 t=2"}},
		{Spec{Grid: []NT{{64, 5}}, Topologies: []topo.Spec{{Kind: topo.KindGossip, Fanout: 8}}, QuorumDeltas: []int{-1, 0, 1}},
			[]string{"QuorumSize = 51", "complete graph", "cell n=64 t=5 proto=sfs q-1 sched=quiet topo=gossip:8"}},
		{Spec{Grid: []NT{{5, 2}}, Protocols: []core.Protocol{core.Cheap}, QuorumDeltas: []int{0, 1}},
			[]string{"QuorumSize = 4", "cheap", "cell n=5 t=2 proto=cheap q+1"}},
	} {
		err := c.spec.Validate()
		for _, w := range c.want {
			if err == nil || !strings.Contains(err.Error(), w) || strings.Contains(err.Error(), "\n") {
				t.Errorf("Validate(%+v) = %v; want one line naming %q", c.spec, err, w)
			}
		}
	}
}

// TestOptionsPerSeed: a cell's runs share what was resolved once per grid
// point — its topology and its plan instance — and each seed adds only its
// own seed, its schedule delay and a timeline of its own, which must never
// sit in the shared template: workers would record into it concurrently.
func TestOptionsPerSeed(t *testing.T) {
	splitBrain, _ := netadv.Builtin("split-brain")
	delayed := map[int64]int{}
	sched := Schedule{
		Name:   "s",
		Faults: func(NT, int64) []Fault { return nil },
		Delay: func(_ NT, seed int64) sim.DelayFn {
			delayed[seed]++
			return func(model.ProcID, model.ProcID, node.Payload, int64) int64 { return seed }
		},
	}
	spec := Spec{
		Grid:       []NT{{6, 2}},
		Protocols:  []core.Protocol{core.SimulatedFailStop},
		Schedules:  []Schedule{sched},
		Plans:      []netadv.Generator{splitBrain},
		Topologies: []topo.Spec{{Kind: topo.KindGossip, Fanout: 2}},
		Reliable:   []reliable.Options{{Enabled: true, MaxRetries: 3}},
		Recovery:   []recovery.Mode{recovery.Durable},
		Byzantine:  []byz.Options{{Enabled: true}},
		MinDelay:   2, MaxDelay: 9, MaxTime: 1500, MaxEvents: 1 << 16,
		HeartbeatEvery: 25, HeartbeatTimeout: 80,
		Timeline: true, TimelineEvery: 5,
	}.withDefaults()
	cells, err := spec.expand()
	if err != nil {
		t.Fatal(err)
	}
	cs := cells[0]
	a, b := spec.options(cs, 11), spec.options(cs, 12)
	if a.Det.Topology == nil || a.Det.Topology != b.Det.Topology || a.Faults == nil || a.Faults != b.Faults {
		t.Errorf("seeds do not share the grid point's topology (%p, %p) and plan (%p, %p)", a.Det.Topology, b.Det.Topology, a.Faults, b.Faults)
	}
	if a.Sim.Seed != 11 || b.Sim.Seed != 12 {
		t.Errorf("seeds %d, %d; want 11, 12", a.Sim.Seed, b.Sim.Seed)
	}
	if a.Sim.Delay == nil || a.Sim.Delay(1, 2, node.Payload{}, 0) != 11 || b.Sim.Delay(1, 2, node.Payload{}, 0) != 12 || delayed[11] != 1 || delayed[12] != 1 {
		t.Errorf("each seed must get the schedule's delay at that seed (calls per seed: %v)", delayed)
	}
	if a.Sim.Timeline == nil || a.Sim.Timeline == b.Sim.Timeline || cs.opts.Sim.Timeline != nil {
		t.Errorf("timelines %p, %p, template %p: want one per run and none shared", a.Sim.Timeline, b.Sim.Timeline, cs.opts.Sim.Timeline)
	}
	// Everything else is the template, and the template is what the old
	// per-run rebuild wrote field by field.
	a.Sim.Delay, a.Sim.Timeline = nil, nil
	want := cluster.Options{
		Sim:    sim.Config{N: 6, Seed: 11, MinDelay: 2, MaxDelay: 9, MaxTime: 1500, MaxEvents: 1 << 16, Recovery: recovery.Durable},
		Det:    core.Config{N: 6, T: 2, Protocol: core.SimulatedFailStop, Topology: a.Det.Topology},
		Faults: a.Faults, HeartbeatEvery: 25, HeartbeatTimeout: 80,
		Reliable: spec.Reliable[0], Byzantine: spec.Byzantine[0],
	}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("options = %+v\nwant      %+v", a, want)
	}
}

// TestCellsAndRunsOfARejectedSpec: the exported expansions return nothing for
// a spec whose topology fits no grid point — they used to panic in
// topo.MustNew, trusting a Validate their callers never ran.
func TestCellsAndRunsOfARejectedSpec(t *testing.T) {
	spec := Spec{Grid: []NT{{5, 2}}, Topologies: []topo.Spec{{Kind: topo.KindGossip, Fanout: 9}}, Seeds: SeedRange{Count: 4}}
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted gossip:9 at n=5")
	}
	if cells, runs := spec.Cells(), spec.Runs(); len(cells) != 0 || runs != 0 {
		t.Errorf("rejected spec expands to %d cells, %d runs; want none", len(cells), runs)
	}
}

// TestSweepChecksProperties runs a small adversarial grid and verifies the
// aggregate matches the paper's Figure 1 shape: all sFS conditions hold on
// every quiescent run, FS2 fails on the false-suspicion runs.
func TestSweepChecksProperties(t *testing.T) {
	falseSusp, _ := Builtin("false-suspicion")
	spec := Spec{
		Grid:      []NT{{10, 3}},
		Schedules: []Schedule{falseSusp},
		Seeds:     SeedRange{Count: 8},
		Check:     true,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 8 || len(rep.Cells) != 1 {
		t.Fatalf("runs=%d cells=%d", rep.Runs, len(rep.Cells))
	}
	c := &rep.Cells[0]
	if c.Checked == 0 {
		t.Fatal("no run was checked (none quiescent?)")
	}
	for _, prop := range []string{"FS1", "sFS2a", "sFS2b", "sFS2c", "sFS2d", "W"} {
		if !c.HoldsAll(prop) {
			t.Errorf("%s held on %d/%d checked runs", prop, c.Holds[prop], c.Checked)
		}
	}
	if c.Holds["FS2"] == c.Checked {
		t.Error("FS2 held on every run despite false suspicions with slowed kill paths")
	}
}

// TestSweepAbstractsInterposerTraffic: on a fault-free network the
// reliable-delivery and Byzantine-validation layers change nothing the
// model sees, so every property that holds on the bare cell holds on the
// "rel", "byz" and "rel byz" cells. (The checker once dropped only SUSP and
// heartbeat traffic, and read acks and echoes sent after a detection as
// sFS2d contamination on 5 of 10 "crash rel" runs.)
func TestSweepAbstractsInterposerTraffic(t *testing.T) {
	falseSusp, _ := Builtin("false-suspicion")
	crash, _ := Builtin("crash")
	spec := Spec{
		Grid:      []NT{{10, 3}},
		Schedules: []Schedule{crash, falseSusp},
		Reliable:  []reliable.Options{{}, {Enabled: true, MaxRetries: 5}},
		Byzantine: []byz.Options{{}, {Enabled: true}},
		Seeds:     SeedRange{Count: 10},
		Check:     true,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 8 {
		t.Fatalf("%d cells, want 8", len(rep.Cells))
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Checked != c.Runs {
			t.Errorf("%s: %d/%d runs checked", c.Cell, c.Checked, c.Runs)
		}
		for _, prop := range []string{"FS1", "sFS2a", "sFS2b", "sFS2c", "sFS2d", "Condition3", "W"} {
			if !c.HoldsAll(prop) {
				t.Errorf("%s: %s held on %d/%d checked runs", c.Cell, prop, c.Holds[prop], c.Checked)
			}
		}
	}
}

// TestSweepDeterministicAcrossWorkerCounts verifies the report is identical
// no matter how many workers execute the sweep.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	mixed, _ := Builtin("mixed")
	crash, _ := Builtin("crash")
	spec := Spec{
		Grid:      []NT{{5, 2}, {10, 3}},
		Schedules: []Schedule{mixed, crash},
		Seeds:     SeedRange{Count: 6},
		Check:     true,
	}
	serial, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	serial.Workers, parallel.Workers = 0, 0
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and parallel reports differ:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
	}
}

// TestSweepStopReasons verifies horizon-truncated runs are tallied under
// their distinct stop reasons.
func TestSweepStopReasons(t *testing.T) {
	crash, _ := Builtin("crash")
	spec := Spec{
		Grid:      []NT{{6, 2}},
		Schedules: []Schedule{crash},
		Seeds:     SeedRange{Count: 3},
		MaxTime:   4, // cut every run off mid-protocol
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &rep.Cells[0]
	if c.Stops[sim.StopMaxTime] != 3 {
		t.Errorf("max-time stops = %d, want 3 (stops: %v)", c.Stops[sim.StopMaxTime], c.Stops)
	}
	if c.Quiescent != 0 {
		t.Errorf("quiescent = %d, want 0", c.Quiescent)
	}

	spec.MaxTime = 0
	spec.MaxEvents = 10
	rep, err = Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c = &rep.Cells[0]
	if c.Stops[sim.StopMaxEvents] != 3 {
		t.Errorf("max-events stops = %d, want 3 (stops: %v)", c.Stops[sim.StopMaxEvents], c.Stops)
	}
}

// TestSweepCustomRunnerAndObserve exercises the Runner and Observe hooks.
func TestSweepCustomRunnerAndObserve(t *testing.T) {
	spec := Spec{
		Grid:  []NT{{5, 2}},
		Seeds: SeedRange{Count: 4},
		Runner: func(cell Cell, seed int64) RunOutput {
			s := sim.New(sim.Config{N: cell.NT.N, Seed: seed})
			for p := 1; p <= cell.NT.N; p++ {
				s.SetHandler(model.ProcID(p), nopHandler{})
			}
			return RunOutput{
				Result:  s.Run(),
				Metrics: map[string]bool{"even-seed": seed%2 == 0},
			}
		},
		Observe: func(cell Cell, seed int64, out RunOutput) map[string]bool {
			return map[string]bool{"observed": true}
		},
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &rep.Cells[0]
	if c.Metrics["even-seed"] != 2 {
		t.Errorf("even-seed = %d, want 2", c.Metrics["even-seed"])
	}
	if !c.MetricAll("observed") {
		t.Errorf("observed = %d/%d", c.Metrics["observed"], c.Runs)
	}
	if c.Quiescent != 4 {
		t.Errorf("quiescent = %d, want 4", c.Quiescent)
	}
}

func TestBuiltinSchedulesRunClean(t *testing.T) {
	spec := Spec{
		Grid:      []NT{{5, 2}, {10, 3}},
		Schedules: Builtins(),
		Seeds:     SeedRange{Count: 3},
		MaxEvents: 1 << 16,
		Check:     true,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != spec.Runs() {
		t.Errorf("runs = %d, want %d", rep.Runs, spec.Runs())
	}
	// sFS2c (no self-detection) is safety, checked on quiescent runs; no
	// built-in schedule may violate it under the §5 protocol.
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Checked > 0 && !c.HoldsAll("sFS2c") {
			t.Errorf("%v: sFS2c %d/%d", c.Cell, c.Holds["sFS2c"], c.Checked)
		}
	}
	out := rep.String()
	for _, want := range []string{"sweep:", "cell", "quiescent"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestBuiltinLookup(t *testing.T) {
	for _, name := range BuiltinNames() {
		if _, ok := Builtin(name); !ok {
			t.Errorf("Builtin(%q) not found", name)
		}
	}
	if _, ok := Builtin("no-such-schedule"); ok {
		t.Error("Builtin accepted an unknown name")
	}
}

// nopHandler is an inert node handler for custom-runner tests.
type nopHandler struct{}

func (nopHandler) Init(node.Context)                                  {}
func (nopHandler) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (nopHandler) OnTimer(node.Context, string)                       {}

// helloHandler sends one message to every peer at start-up.
type helloHandler struct{ nopHandler }

func (helloHandler) Init(ctx node.Context) {
	for q := 1; q <= ctx.N(); q++ {
		if model.ProcID(q) != ctx.Self() {
			ctx.Send(model.ProcID(q), node.Payload{Tag: "HELLO"})
		}
	}
}

// TestCustomRunnerNilObsReadsSimMetrics: a custom runner that leaves
// RunOutput.Obs nil (the E7 cycle adversary's shape) still gets its counter
// columns, read from the simulator's own snapshot. Here every message to
// process 1 is lost: 4 senders × 3 seeds.
func TestCustomRunnerNilObsReadsSimMetrics(t *testing.T) {
	rep, err := Run(Spec{
		Grid:  []NT{{5, 2}},
		Seeds: SeedRange{Count: 3},
		Runner: func(cell Cell, seed int64) RunOutput {
			s := sim.New(sim.Config{N: cell.NT.N, Seed: seed,
				Link: func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
					return node.LinkDecision{Drop: to == 1}
				}})
			for p := 1; p <= cell.NT.N; p++ {
				s.SetHandler(model.ProcID(p), helloHandler{})
			}
			return RunOutput{Result: s.Run()}
		},
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := &rep.Cells[0]
	if c.Obs["sim_dropped_total"] != 12 {
		t.Errorf("Obs[sim_dropped_total] = %d, want 12", c.Obs["sim_dropped_total"])
	}
	if c.Obs["sim_sent_total"] != 60 {
		t.Errorf("Obs[sim_sent_total] = %d, want 60 (the cell gains the simulator's totals)", c.Obs["sim_sent_total"])
	}
	var csv strings.Builder
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(csv.String(), "\n")
	header, row := strings.Split(lines[0], ","), strings.Split(lines[1], ",")
	for i, h := range header {
		if h == "dropped" && row[i] != "12" {
			t.Errorf("CSV dropped column = %s, want 12", row[i])
		}
	}
}

// TestMixedScheduleSmallClusters is a regression test: mixedFaults used to
// draw a crash-noticing accuser from {1, 2, 3} regardless of n, which
// panicked sweeps over 2- and 3-process grids.
func TestMixedScheduleSmallClusters(t *testing.T) {
	mixed, _ := Builtin("mixed")
	spec := Spec{
		Grid:      []NT{{2, 2}, {3, 2}, {3, 3}},
		Schedules: []Schedule{mixed},
		Seeds:     SeedRange{Count: 30},
		MaxEvents: 1 << 16,
	}
	rep, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != spec.Runs() {
		t.Errorf("runs = %d, want %d", rep.Runs, spec.Runs())
	}
	for _, sched := range Builtins() {
		if sched.Faults == nil {
			continue
		}
		for _, nt := range spec.Grid {
			for seed := int64(0); seed < 30; seed++ {
				for _, f := range sched.Faults(nt, seed) {
					if int(f.Proc) < 1 || int(f.Proc) > nt.N {
						t.Fatalf("%s(%v, %d): fault proc %d out of range", sched.Name, nt, seed, f.Proc)
					}
					if f.Kind == FaultSuspect && (int(f.Target) < 1 || int(f.Target) > nt.N) {
						t.Fatalf("%s(%v, %d): fault target %d out of range", sched.Name, nt, seed, f.Target)
					}
				}
			}
		}
	}
}

// falseSuspicionByRescan is falseSuspicion as it was before the one pass:
// one search of the whole history for the target's first crash per suspicion.
func falseSuspicionByRescan(h model.History) bool {
	for idx, e := range h {
		if e.Kind == model.KindInternal && e.Tag == model.TagSuspect {
			if ci := h.CrashIndex(e.Target); ci < 0 || ci > idx {
				return true
			}
		}
	}
	return false
}

// One pass carrying "has crashed so far" answers what a rescan per suspicion
// answers; a restart between the crash and the suspicion changes nothing.
func TestFalseSuspicionMatchesRescan(t *testing.T) {
	suspect := func(i, j model.ProcID) model.Event { return model.Internal(i, model.TagSuspect, j) }
	for _, c := range []struct {
		h    model.History
		want bool
	}{
		{nil, false},
		{model.History{model.Crash(2), suspect(1, 2)}, false},
		{model.History{suspect(1, 2), model.Crash(2)}, true},
		{model.History{suspect(1, 2)}, true},
		{model.History{model.Crash(2), model.Restart(2), suspect(1, 2)}, false}, // crashed once: not false, restarted or not
		{model.History{model.Crash(2), model.Restart(2), suspect(1, 2), model.Crash(2), suspect(3, 2)}, false},
		{model.History{model.Crash(2), suspect(1, 2), suspect(1, 3), model.Crash(3)}, true},
		{model.History{model.Crash(2), suspect(1, model.None)}, true},
	} {
		if got := falseSuspicion(c.h, 3); got != c.want || falseSuspicionByRescan(c.h) != c.want {
			t.Errorf("falseSuspicion(%v) = %v, by rescan %v, want %v", c.h, got, falseSuspicionByRescan(c.h), c.want)
		}
	}
	// Generated: crashes, restarts and suspicions of any process in any order,
	// early enough suspicions rare enough that both answers occur.
	answers := map[bool]int{}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		h := model.NewGen(seed).History(n, 30)
		down := make([]bool, n+1)
		for k := rng.Intn(12); k > 0; k-- {
			p := model.ProcID(1 + rng.Intn(n))
			switch r := rng.Intn(10); {
			case r < 3 && !down[p]:
				h, down[p] = append(h, model.Crash(p)), true
			case r < 5 && down[p]:
				h, down[p] = append(h, model.Restart(p)), false
			case r < 6:
				h = append(h, suspect(model.ProcID(1+rng.Intn(n)), p))
			default:
				if q := model.ProcID(1 + rng.Intn(n)); down[q] || h.CrashIndex(q) >= 0 {
					h = append(h, suspect(p, q))
				}
			}
		}
		got, want := falseSuspicion(h, n), falseSuspicionByRescan(h)
		if got != want {
			t.Fatalf("seed %d: falseSuspicion = %v, by rescan %v, on %v", seed, got, want, h)
		}
		answers[want]++
	}
	if answers[true] < 40 || answers[false] < 40 {
		t.Errorf("generated histories answered %v: one side is barely compared", answers)
	}
}
