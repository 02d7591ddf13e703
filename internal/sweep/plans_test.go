package sweep

import (
	"reflect"
	"strings"
	"testing"

	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/reliable"
)

func plansByName(t *testing.T, names ...string) []netadv.Generator {
	t.Helper()
	var out []netadv.Generator
	for _, name := range names {
		g, ok := netadv.Builtin(name)
		if !ok {
			t.Fatalf("no built-in plan %q", name)
		}
		out = append(out, g)
	}
	return out
}

func TestPlansAxisExpansion(t *testing.T) {
	spec := Spec{
		Grid:      []NT{{5, 2}},
		Schedules: []Schedule{{Name: "a"}, {Name: "b"}},
		Plans:     plansByName(t, "split-brain", "flaky-quorum"),
	}
	cells := spec.Cells()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	want := Cell{NT: NT{5, 2}, Protocol: 1, QuorumDelta: 0, Schedule: "a", Plan: "split-brain"}
	if cells[0] != want {
		t.Errorf("first cell = %+v, want %+v", cells[0], want)
	}
	if got := cells[0].String(); got != "n=5 t=2 proto=sfs sched=a plan=split-brain" {
		t.Errorf("cell string = %q", got)
	}
}

func TestValidateRejectsDuplicatePlans(t *testing.T) {
	spec := Spec{
		Grid:  []NT{{5, 2}},
		Plans: plansByName(t, "split-brain", "split-brain"),
	}
	if err := spec.withDefaults().Validate(); err == nil {
		t.Error("duplicate plan names accepted")
	}
	spec = Spec{
		Grid:  []NT{{5, 2}},
		Plans: []netadv.Generator{{Name: "half-built"}},
	}
	if err := spec.withDefaults().Validate(); err == nil {
		t.Error("named plan without Make accepted")
	}
	spec = Spec{
		Grid:  []NT{{5, 2}},
		Plans: []netadv.Generator{{Make: func(n, t int) netadv.Plan { return netadv.Plan{} }}},
	}
	if err := spec.withDefaults().Validate(); err == nil {
		t.Error("anonymous plan with Make accepted; its faults would run invisibly")
	}
}

// TestValidateRejectsPlanInvalidForGrid: a fixed (file-loaded) plan naming
// process ids outside some grid point must fail Spec.Validate with one
// clear error instead of panicking a worker goroutine mid-sweep.
func TestValidateRejectsPlanInvalidForGrid(t *testing.T) {
	plan := netadv.Plan{Name: "big-cluster-only", Rules: []netadv.Rule{
		{Cut: true, Links: netadv.LinkSet{Groups: [][]model.ProcID{{1, 2}, {7, 8}}}},
	}}
	spec := Spec{
		Grid:  []NT{{10, 3}, {5, 2}}, // valid for n=10, not for n=5
		Plans: []netadv.Generator{netadv.Fixed(plan)},
	}
	err := spec.withDefaults().Validate()
	if err == nil {
		t.Fatal("plan invalid at n=5 accepted")
	}
	if !strings.Contains(err.Error(), "big-cluster-only") || !strings.Contains(err.Error(), "n=5") {
		t.Errorf("error %q does not name the plan and the offending grid point", err)
	}
	// The same plan on the n=10 grid alone is fine.
	spec.Grid = []NT{{10, 3}}
	if _, err := Run(spec, Options{}); err != nil {
		t.Errorf("plan rejected on a grid it fits: %v", err)
	}
}

// TestSplitBrainStarvesMinorityQuorum runs the acceptance scenario: under a
// permanent split-brain partition, a suspicion raised on the minority side
// cannot assemble its quorum — the runs are flagged quorum-starved and the
// cut traffic shows up in the dropped tally.
func TestSplitBrainStarvesMinorityQuorum(t *testing.T) {
	spec := Spec{
		Grid: []NT{{5, 2}},
		Schedules: []Schedule{{
			Name: "minority-suspects",
			Faults: func(nt NT, seed int64) []Fault {
				// Process n (minority half) suspects process 1 after the cut.
				return []Fault{{Kind: FaultSuspect, At: 20, Proc: 5, Target: 1}}
			},
		}},
		Plans:   plansByName(t, "split-brain"),
		Seeds:   SeedRange{Count: 5},
		MaxTime: 2000,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &rep.Cells[0]
	if !c.MetricAll("quorum-starved") {
		t.Errorf("quorum-starved on %d/%d runs, want all: minimum quorum is 3 but the minority half has 2",
			c.Metrics["quorum-starved"], c.Runs)
	}
	if c.Obs["sim_dropped_total"] == 0 {
		t.Error("no dropped messages despite a permanent partition")
	}
	if c.Obs["sim_duplicated_total"] != 0 {
		t.Errorf("split-brain duplicated %d messages", c.Obs["sim_duplicated_total"])
	}
}

// TestHealingPartitionUnstarves is the counterpart: the healing partition
// is lossy, so the once-only §5 broadcast starves even after the heal —
// unless the reliable-delivery layer retransmits it across the heal. The
// same suspicion is gridded with the layer off and on to show the contrast.
func TestHealingPartitionUnstarves(t *testing.T) {
	spec := Spec{
		Grid: []NT{{5, 2}},
		Schedules: []Schedule{{
			Name: "minority-suspects",
			Faults: func(nt NT, seed int64) []Fault {
				return []Fault{{Kind: FaultSuspect, At: 20, Proc: 5, Target: 1}}
			},
		}},
		Plans:    plansByName(t, "healing-partition"),
		Reliable: []reliable.Options{{}, {Enabled: true}},
		Seeds:    SeedRange{Count: 5},
		MaxTime:  2000,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bare, rel := &rep.Cells[0], &rep.Cells[1]
	if bare.Cell.Reliable || !rel.Cell.Reliable {
		t.Fatalf("cell order: got %v / %v, want bare then reliable", bare.Cell, rel.Cell)
	}
	if !bare.MetricAll("quorum-starved") {
		t.Errorf("without reliable delivery: quorum-starved on %d/%d runs, want all (the heal is lossy)",
			bare.Metrics["quorum-starved"], bare.Runs)
	}
	if !rel.MetricNone("quorum-starved") {
		t.Errorf("with reliable delivery: quorum-starved on %d/%d runs after the heal, want none",
			rel.Metrics["quorum-starved"], rel.Runs)
	}
	if rel.Obs["reliable_retransmits_total"] == 0 {
		t.Error("reliable cell recovered the detection without retransmitting anything")
	}
	if bare.Obs["reliable_retransmits_total"] != 0 {
		t.Errorf("bare cell reported %d retransmits", bare.Obs["reliable_retransmits_total"])
	}
}

// TestBufferingPartitionUnstarvesWithoutRetransmission: the buffering
// variant holds cross-half traffic instead of dropping it, so even the
// once-only broadcast completes after the heal with no reliable layer.
func TestBufferingPartitionUnstarvesWithoutRetransmission(t *testing.T) {
	spec := Spec{
		Grid: []NT{{5, 2}},
		Schedules: []Schedule{{
			Name: "minority-suspects",
			Faults: func(nt NT, seed int64) []Fault {
				return []Fault{{Kind: FaultSuspect, At: 20, Proc: 5, Target: 1}}
			},
		}},
		Plans:   plansByName(t, "buffering-partition"),
		Seeds:   SeedRange{Count: 5},
		MaxTime: 2000,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &rep.Cells[0]
	if !c.MetricNone("quorum-starved") {
		t.Errorf("quorum-starved on %d/%d runs under the buffering partition, want none",
			c.Metrics["quorum-starved"], c.Runs)
	}
}

// TestTimelinePeakOutlivesEviction: a cell's timeline peaks are the largest
// value each run's series ever took. The buffering partition builds its
// backlog early; a longer horizon pushes those samples out of the timeline
// ring (4096 points), but the runs' first 4000 ticks are the same, so their
// peaks must be too.
func TestTimelinePeakOutlivesEviction(t *testing.T) {
	peaks := func(maxTime int64) (inflight, backlog float64) {
		rep, err := Run(Spec{
			Grid:             []NT{{5, 2}},
			Plans:            plansByName(t, "buffering-partition"),
			Seeds:            SeedRange{Count: 4},
			MaxTime:          maxTime,
			HeartbeatEvery:   25,
			HeartbeatTimeout: 400,
			Timeline:         true,
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := rep.Cells[0].Timeseries
		return ts["inflight"].Max, ts["link_backlog_max"].Max
	}
	in4, backlog4 := peaks(4000)
	if in4 == 0 || backlog4 == 0 {
		t.Fatalf("no traffic held at 4000 ticks: inflight peak %g, backlog peak %g", in4, backlog4)
	}
	for _, horizon := range []int64{6000, 9000} {
		if in, backlog := peaks(horizon); in != in4 || backlog != backlog4 {
			t.Errorf("at %d ticks: inflight peak %g, backlog peak %g; at 4000: %g, %g",
				horizon, in, backlog, in4, backlog4)
		}
	}
}

// TestFlakyQuorumDropsAndStillCounts verifies probabilistic loss shows up
// in the dropped tally.
func TestFlakyQuorumDropsAndStillCounts(t *testing.T) {
	falseSusp, _ := Builtin("false-suspicion")
	spec := Spec{
		Grid:      []NT{{10, 3}},
		Schedules: []Schedule{falseSusp},
		Plans:     plansByName(t, "flaky-quorum"),
		Seeds:     SeedRange{Count: 6},
		MaxTime:   5000,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &rep.Cells[0]
	if c.Obs["sim_dropped_total"] == 0 {
		t.Error("flaky-quorum dropped nothing")
	}
	if _, ok := c.Metrics["quorum-starved"]; !ok {
		t.Error("quorum-starved diagnostic missing from a plan cell")
	}
}

// TestPlanSweepDeterministic verifies the acceptance requirement: identical
// seeds produce identical reports — including dropped/duplicated counts and
// the starvation diagnostic — independent of worker count.
func TestPlanSweepDeterministic(t *testing.T) {
	crash, _ := Builtin("crash")
	mutual, _ := Builtin("mutual")
	spec := Spec{
		Grid:      []NT{{5, 2}, {10, 3}},
		Schedules: []Schedule{crash, mutual},
		Plans:     plansByName(t, "split-brain", "flaky-quorum", "healing-partition", "isolated-minority"),
		Seeds:     SeedRange{Count: 4},
		MaxTime:   2000,
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
		t.Errorf("plan sweeps diverged across worker counts:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
	}
	if serial.Runs != 2*2*4*4 {
		t.Errorf("runs = %d, want %d", serial.Runs, 2*2*4*4)
	}
	// The rendered report (what sfs-sweep prints) must also be byte-stable.
	if a, b := serial.String(), parallel.String(); a != b {
		t.Error("rendered reports differ")
	}
}
