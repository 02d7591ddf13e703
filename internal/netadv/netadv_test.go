package netadv

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"failstop/internal/core"
	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/recovery"
)

func TestLinkSetMatching(t *testing.T) {
	pl := NewPlane(Plan{Name: "x", Rules: []Rule{
		{Cut: true, Links: LinkSet{Groups: [][]model.ProcID{{1, 2}, {3, 4}}}},
	}}, 5, 0)
	cases := []struct {
		from, to model.ProcID
		cut      bool
	}{
		{1, 2, false}, // same group
		{3, 4, false}, // same group
		{1, 3, true},  // across groups
		{4, 2, true},  // across groups, other direction
		{1, 5, true},  // listed vs residual
		{5, 5, false}, // residual vs residual (degenerate, same group)
	}
	for _, c := range cases {
		dec := pl.Decide(c.from, c.to, node.Payload{Tag: "APP"}, 0)
		if dec.Drop != c.cut {
			t.Errorf("link %d->%d: Drop=%v, want %v", c.from, c.to, dec.Drop, c.cut)
		}
	}
}

func TestPairsMatchRegardlessOfGroups(t *testing.T) {
	pl := NewPlane(Plan{Rules: []Rule{
		{Cut: true, Links: LinkSet{Pairs: []Link{{From: 1, To: 2}}}},
	}}, 3, 0)
	if !pl.Decide(1, 2, node.Payload{}, 0).Drop {
		t.Error("explicit pair 1->2 not cut")
	}
	if pl.Decide(2, 1, node.Payload{}, 0).Drop {
		t.Error("reverse direction 2->1 cut; pairs are directed")
	}
}

func TestRuleWindow(t *testing.T) {
	pl := NewPlane(Plan{Rules: []Rule{
		{From: 10, Until: 20, Cut: true},
	}}, 3, 0)
	for _, c := range []struct {
		at  int64
		cut bool
	}{{0, false}, {9, false}, {10, true}, {19, true}, {20, false}, {100, false}} {
		if got := pl.Decide(1, 2, node.Payload{}, c.at).Drop; got != c.cut {
			t.Errorf("at=%d: Drop=%v, want %v", c.at, got, c.cut)
		}
	}
}

func TestTagTargeting(t *testing.T) {
	pl := NewPlane(Plan{Rules: []Rule{
		{Cut: true, Tags: []string{core.TagSusp}},
	}}, 3, 0)
	if !pl.Decide(1, 2, node.Payload{Tag: core.TagSusp}, 0).Drop {
		t.Error("SUSP message not cut")
	}
	if pl.Decide(1, 2, node.Payload{Tag: core.TagApp}, 0).Drop {
		t.Error("APP message cut despite tag targeting")
	}
}

// TestDecisionDeterminism verifies fates are a pure function of (seed,
// link, per-link message index): two planes with the same seed agree
// message for message, and a different seed diverges somewhere.
func TestDecisionDeterminism(t *testing.T) {
	plan := Plan{Rules: []Rule{{Drop: 0.3, Duplicate: 0.2, Reorder: 0.1, JitterMax: 7}}}
	a := NewPlane(plan, 4, 42)
	b := NewPlane(plan, 4, 42)
	c := NewPlane(plan, 4, 43)
	var diverged bool
	for i := 0; i < 200; i++ {
		da := a.Decide(1, 2, node.Payload{Tag: "APP"}, int64(i))
		db := b.Decide(1, 2, node.Payload{Tag: "APP"}, int64(i))
		dc := c.Decide(1, 2, node.Payload{Tag: "APP"}, int64(i))
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("message %d: same seed diverged: %+v vs %+v", i, da, db)
		}
		if !reflect.DeepEqual(da, dc) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 produced identical fates for 200 messages")
	}
}

// TestDecisionIndependentOfOtherLinks verifies one link's fates do not
// depend on traffic interleaved on other links — the property that makes
// plan semantics portable to the nondeterministic live runtime.
func TestDecisionIndependentOfOtherLinks(t *testing.T) {
	plan := Plan{Rules: []Rule{{Drop: 0.5}}}
	solo := NewPlane(plan, 4, 7)
	mixed := NewPlane(plan, 4, 7)
	var want []node.LinkDecision
	for i := 0; i < 50; i++ {
		want = append(want, solo.Decide(1, 2, node.Payload{}, int64(i)))
	}
	var got []node.LinkDecision
	for i := 0; i < 50; i++ {
		mixed.Decide(3, 4, node.Payload{}, int64(i)) // interleaved traffic
		got = append(got, mixed.Decide(1, 2, node.Payload{}, int64(i)))
		mixed.Decide(2, 3, node.Payload{}, int64(i))
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fates on link 1->2 changed when other links carried traffic")
	}
}

func TestDropRateRoughlyHonored(t *testing.T) {
	pl := NewPlane(Plan{Rules: []Rule{{Drop: 0.3}}}, 2, 1)
	dropped := 0
	const total = 2000
	for i := 0; i < total; i++ {
		if pl.Decide(1, 2, node.Payload{}, int64(i)).Drop {
			dropped++
		}
	}
	if rate := float64(dropped) / total; rate < 0.25 || rate > 0.35 {
		t.Errorf("drop rate %.3f far from configured 0.3", rate)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []struct {
		name string
		plan Plan
		want string // substring of the error
	}{
		{"negative from", Plan{Rules: []Rule{{Cut: true, From: -1}}}, "negative From"},
		{"until not after from", Plan{Rules: []Rule{{Cut: true, From: 10, Until: 10}}}, "not after"},
		{"drop above 1", Plan{Rules: []Rule{{Drop: 1.5}}}, "outside [0,1]"},
		{"negative duplicate", Plan{Rules: []Rule{{Duplicate: -0.1}}}, "outside [0,1]"},
		{"negative jitter", Plan{Rules: []Rule{{JitterMax: -1}}}, "negative JitterMax"},
		{"process 0", Plan{Rules: []Rule{{Cut: true, Links: LinkSet{Groups: [][]model.ProcID{{0}}}}}}, "outside 1..5"},
		{"process above n", Plan{Rules: []Rule{{Cut: true, Links: LinkSet{Groups: [][]model.ProcID{{6}}}}}}, "outside 1..5"},
		{"pair above n", Plan{Rules: []Rule{{Cut: true, Links: LinkSet{Pairs: []Link{{From: 1, To: 9}}}}}}, "outside 1..5"},
		{"negative queue delay", Plan{Rules: []Rule{{QueueDelay: -2}}}, "negative QueueDelay"},
		{"negative period", Plan{Rules: []Rule{{Cut: true, Period: -5, ActiveFor: 1}}}, "negative Period"},
		{"period without active_for", Plan{Rules: []Rule{{Cut: true, Period: 10}}}, "ActiveFor"},
		{"active_for above period", Plan{Rules: []Rule{{Cut: true, Period: 10, ActiveFor: 11}}}, "ActiveFor"},
		{"active_for without period", Plan{Rules: []Rule{{Cut: true, ActiveFor: 5}}}, "without a Period"},
		// The three validation landmines this PR closes: each used to pass
		// Validate and silently misbehave in NewPlane/Decide.
		{"overlapping groups", Plan{Rules: []Rule{{Cut: true, Links: LinkSet{
			Groups: [][]model.ProcID{{1, 2}, {2, 3}},
		}}}}, "in both group 0 and group 1"},
		{"duplicate within one group", Plan{Rules: []Rule{{Cut: true, Links: LinkSet{
			Groups: [][]model.ProcID{{1, 1}, {2}},
		}}}}, "listed twice in group 0"},
		{"empty group", Plan{Rules: []Rule{{Cut: true, Links: LinkSet{
			Groups: [][]model.ProcID{{}},
		}}}}, "group 0 is empty"},
		{"empty group next to full one", Plan{Rules: []Rule{{Cut: true, Links: LinkSet{
			Groups: [][]model.ProcID{{1, 2}, {}},
		}}}}, "group 1 is empty"},
		{"cut and hold", Plan{Rules: []Rule{{Cut: true, Hold: true, Until: 50}}}, "contradictory"},
		{"hold window never closes", Plan{Rules: []Rule{{Hold: true, Period: 100, ActiveFor: 100}}}, "never closes"},
		{"no-op rule", Plan{Rules: []Rule{{From: 10, Links: LinkSet{
			Groups: [][]model.ProcID{{1}, {2}},
		}}}}, "no effect"},
		{"fully zero rule", Plan{Rules: []Rule{{}}}, "no effect"},
		{"empty tag", Plan{Rules: []Rule{{Drop: 0.5, Tags: []string{""}}}}, "empty tag never matches"},
		{"repeated tag", Plan{Rules: []Rule{{Drop: 0.5, Tags: []string{"a", "a"}}}}, `duplicate tag "a"`},
	}
	for _, tt := range bad {
		err := tt.plan.Validate(5)
		if err == nil {
			t.Errorf("%s: plan validated despite being invalid: %+v", tt.name, tt.plan)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error %q does not mention %q", tt.name, err, tt.want)
		}
	}
	ok := Plan{Rules: []Rule{
		{From: 10, Until: 200, Cut: true, Links: LinkSet{Groups: [][]model.ProcID{{1, 2}, {3}}}},
		{Drop: 0.5, Duplicate: 1, Reorder: 0.25, JitterMax: 10, Tags: []string{"APP"}},
		{From: 5, Period: 100, ActiveFor: 40, Cut: true},
		{Hold: true, Period: 50, ActiveFor: 25}, // periodic hold needs no Until
		{QueueDelay: 15, Links: LinkSet{Pairs: []Link{{From: 1, To: 2}}}},
	}}
	if err := ok.Validate(5); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// overflowPlans are plans whose ticks or delays reach past host.MaxDelay, each
// naming the field Validate must refuse. The first three used to pass: the
// Hold promised delivery and its message was reported parked (its ready time
// wrapped), the jitter carried the run's clock to 6.76·10¹⁸, and the shaped
// link's backlog overflowed. So did the ghost and the storm, once the network
// rules were bounded: the ghost's ready time wrapped negative and parked its
// link behind it, and the storm's next window, at + Period, wrapped to a tick
// already past, so the simulator ran the skipped window again forever. The
// late storm's ticks were each in bounds, but its first restart, CrashAt +
// ActiveFor, was not: it passed Validate, and host.Core.Init panicked.
var overflowPlans = []struct {
	field string
	plan  Plan
}{
	{"Until", Plan{Name: "hold-forever", Rules: []Rule{{Hold: true, Until: math.MaxInt64}}}},
	{"JitterMax", Plan{Name: "jitter-forever", Rules: []Rule{{JitterMax: math.MaxInt64}}}},
	{"QueueDelay", Plan{Name: "shaped-forever", Rules: []Rule{{QueueDelay: math.MaxInt64 - 3}}}},
	{"From", Plan{Name: "late-cut", Rules: []Rule{{Cut: true, From: host.MaxDelay + 1}}}},
	{"Period", Plan{Name: "slow-blink", Rules: []Rule{{Cut: true, Period: host.MaxDelay + 1, ActiveFor: 1}}}},
	{"ReplayDelay", Plan{Name: "ghost", Byz: []ByzRule{{Victim: 1, Replay: 1, ReplayDelay: math.MaxInt64}}}},
	{"Until", Plan{Name: "late-liar", Byz: []ByzRule{{Victim: 1, Corrupt: 1, Until: host.MaxDelay + 1}}}},
	{"Period", Plan{Name: "storm", Procs: []ProcRule{{Proc: 1, CrashAt: 5, Period: math.MaxInt64 - 1, ActiveFor: 1000}}}},
	{"CrashAt", Plan{Name: "late-crash", Procs: []ProcRule{{Proc: 1, CrashAt: host.MaxDelay + 1}}}},
	{"RestartAt", Plan{Name: "late-restart", Procs: []ProcRule{{Proc: 1, CrashAt: 5, RestartAt: math.MaxInt64}}}},
	{"CrashAt+ActiveFor", Plan{Name: "late-storm", Procs: []ProcRule{{Proc: 1, CrashAt: host.MaxDelay, Period: 10, ActiveFor: 5}}}},
}

// TestPlanValidateBoundsTicks: a tick or a delay above host.MaxDelay (2⁴⁰)
// is refused naming its field, and one at the bound is accepted, by Validate
// and then by host.Core.Init, which bounds the lifetimes a plan's process
// rules become (a periodic rule's Restart is CrashAt+ActiveFor).
func TestPlanValidateBoundsTicks(t *testing.T) {
	for _, tt := range overflowPlans {
		err := tt.plan.Validate(2)
		if err == nil || !strings.Contains(err.Error(), tt.field+" ") || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: Validate = %v, want an error naming %s above the bound", tt.plan.Name, err, tt.field)
		}
	}
	const top = host.MaxDelay
	ok := Plan{Rules: []Rule{
		{Hold: true, From: top - 1, Until: top},
		{JitterMax: top},
		{QueueDelay: top},
		{Cut: true, Period: top, ActiveFor: 1},
	}, Byz: []ByzRule{
		{Victim: 1, Replay: 1, ReplayDelay: top, From: top - 1, Until: top},
	}, Procs: []ProcRule{
		{Proc: 1, CrashAt: top - 1, RestartAt: top},
		{Proc: 2, CrashAt: 1, Period: top, ActiveFor: top - 1, Until: top},
	}}
	if err := ok.Validate(2); err != nil {
		t.Errorf("plan at the bound rejected: %v", err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("host.Core.Init refused the lifetimes of a plan at the bound: %v", r)
		}
	}()
	c := host.Core{Names: host.MetricNames("x_"), Lifetimes: ok.Lifetimes()}
	c.Init("test", 2, nil)
}

func TestProcRuleValidate(t *testing.T) {
	bad := []struct {
		name string
		plan Plan
		want string // substring of the error
	}{
		{"proc 0", Plan{Procs: []ProcRule{{Proc: 0, CrashAt: 10}}}, "outside 1..5"},
		{"proc above n", Plan{Procs: []ProcRule{{Proc: 6, CrashAt: 10}}}, "outside 1..5"},
		{"negative crash", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: -1}}}, "negative CrashAt"},
		{"negative period", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 5, Period: -2}}}, "negative Period"},
		{"restart before crash", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 20, RestartAt: 10}}}, "not after CrashAt"},
		{"restart equals crash", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 20, RestartAt: 20}}}, "not after CrashAt"},
		{"active_for without period", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 5, ActiveFor: 10}}}, "without a Period"},
		{"until without period", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 5, RestartAt: 9, Until: 100}}}, "without a Period"},
		{"restart_at with period", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 5, RestartAt: 9, Period: 50, ActiveFor: 10}}}, "RestartAt 9 with a Period"},
		{"period without active_for", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 5, Period: 50}}}, "ActiveFor"},
		{"active_for fills period", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 5, Period: 50, ActiveFor: 50}}}, "ActiveFor"},
		{"until before first crash", Plan{Procs: []ProcRule{{Proc: 1, CrashAt: 100, Period: 50, ActiveFor: 10, Until: 40}}}, "before the first CrashAt"},
		{"storm plus one-shot", Plan{Procs: []ProcRule{
			{Proc: 2, CrashAt: 5, Period: 50, ActiveFor: 10},
			{Proc: 2, CrashAt: 500, RestartAt: 600},
		}}, "only rule"},
		{"crash after terminal crash", Plan{Procs: []ProcRule{
			{Proc: 3, CrashAt: 10},
			{Proc: 3, CrashAt: 50, RestartAt: 60},
		}}, "terminally"},
		{"overlapping lifetimes", Plan{Procs: []ProcRule{
			{Proc: 3, CrashAt: 10, RestartAt: 50},
			{Proc: 3, CrashAt: 40, RestartAt: 90},
		}}, "overlapping"},
		{"second crash at restart tick", Plan{Procs: []ProcRule{
			{Proc: 3, CrashAt: 10, RestartAt: 50},
			{Proc: 3, CrashAt: 50, RestartAt: 90},
		}}, "overlapping"},
	}
	for _, tt := range bad {
		err := tt.plan.Validate(5)
		if err == nil {
			t.Errorf("%s: plan validated despite being invalid: %+v", tt.name, tt.plan)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error %q does not mention %q", tt.name, err, tt.want)
		}
	}
	ok := Plan{Procs: []ProcRule{
		{Proc: 1, CrashAt: 10},                                         // terminal one-shot
		{Proc: 2, CrashAt: 0, RestartAt: 30},                           // crash at time 0 is legal
		{Proc: 3, CrashAt: 100, RestartAt: 150},                        // out of plan order vs the next rule
		{Proc: 3, CrashAt: 10, RestartAt: 40},                          // chronological order is what matters
		{Proc: 3, CrashAt: 200},                                        // terminal last lifetime
		{Proc: 4, CrashAt: 50, Period: 100, ActiveFor: 30},             // unbounded storm
		{Proc: 5, CrashAt: 50, Period: 100, ActiveFor: 99, Until: 500}, // bounded storm
	}}
	if err := ok.Validate(5); err != nil {
		t.Errorf("valid proc plan rejected: %v", err)
	}
	if lts := ok.Lifetimes(); !lts[5].Unbounded() || lts[6].Unbounded() {
		t.Errorf("Lifetimes() = %+v: want the storm without Until unbounded, the one with it bounded", lts[5:])
	}
}

func TestProcRuleLifetimes(t *testing.T) {
	p := Plan{Procs: []ProcRule{
		{Proc: 2, CrashAt: 10, RestartAt: 40},
		{Proc: 3, CrashAt: 50},
		{Proc: 4, CrashAt: 100, Period: 300, ActiveFor: 120, Until: 2000},
	}}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	got := p.Lifetimes()
	want := []recovery.Lifetime{
		{Proc: 2, Crash: 10, Restart: 40},
		{Proc: 3, Crash: 50},
		{Proc: 4, Crash: 100, Restart: 220, Period: 300, Until: 2000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Lifetimes() = %+v, want %+v", got, want)
	}
	if lts := (Plan{Rules: []Rule{{Cut: true}}}).Lifetimes(); lts != nil {
		t.Errorf("net-only plan has lifetimes: %+v", lts)
	}
}

// TestOverlappingGroupsRejected pins the first validation bugfix end to
// end: before it, NewPlane compiled groupOf last-wins, so {1,2},{2,3}
// silently behaved as {1},{2,3} — process 2's links to 3 stopped matching.
func TestOverlappingGroupsRejected(t *testing.T) {
	p := Plan{Rules: []Rule{{Cut: true, Links: LinkSet{
		Groups: [][]model.ProcID{{1, 2}, {2, 3}},
	}}}}
	if err := p.Validate(3); err == nil {
		t.Fatal("overlapping groups validated")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewPlane accepted a rule with overlapping groups")
		}
	}()
	NewPlane(p, 3, 0)
}

func TestNewPlanePanicsOnInvalidPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPlane accepted an invalid plan")
		}
	}()
	NewPlane(Plan{Rules: []Rule{{Drop: 2}}}, 3, 0)
}

func TestBuiltinsValidateAcrossGrid(t *testing.T) {
	for _, g := range Builtins() {
		for _, nt := range [][2]int{{2, 1}, {5, 2}, {10, 3}, {15, 4}} {
			plan := g.Make(nt[0], nt[1])
			if plan.Name != g.Name {
				t.Errorf("%s: plan named %q", g.Name, plan.Name)
			}
			if err := plan.Validate(nt[0]); err != nil {
				t.Errorf("%s at n=%d t=%d: %v", g.Name, nt[0], nt[1], err)
			}
			if plan.Empty() {
				t.Errorf("%s at n=%d t=%d: empty plan", g.Name, nt[0], nt[1])
			}
		}
	}
}

func TestBuiltinLookup(t *testing.T) {
	names := BuiltinNames()
	want := []string{"buffering-partition", "byzantine-minority", "flaky-quorum", "healing-partition", "isolated-minority", "moving-partition", "one-way-cut", "region-cut", "restart-storm", "split-brain"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BuiltinNames() = %v, want %v", names, want)
	}
	for _, name := range names {
		if _, ok := Builtin(name); !ok {
			t.Errorf("Builtin(%q) not found", name)
		}
	}
	if _, ok := Builtin("nope"); ok {
		t.Error("Builtin(nope) found")
	}
}

// TestSplitBrainSemantics spot-checks the built-in: before tick 10 all
// links deliver; after, only links within a half do.
func TestSplitBrainSemantics(t *testing.T) {
	g, _ := Builtin("split-brain")
	pl := NewPlane(g.Make(5, 2), 5, 0) // halves {1,2,3} and {4,5}
	if pl.Decide(1, 4, node.Payload{}, 5).Drop {
		t.Error("cut before tick 10")
	}
	if !pl.Decide(1, 4, node.Payload{}, 10).Drop {
		t.Error("cross-half link 1->4 not cut at tick 10")
	}
	if pl.Decide(1, 3, node.Payload{}, 10).Drop {
		t.Error("intra-half link 1->3 cut")
	}
	if pl.Decide(4, 5, node.Payload{}, 50).Drop {
		t.Error("intra-minority link 4->5 cut")
	}
}

// TestHealingPartitionHeals verifies the lossy scheduled heal: during
// [10, 200) cross-half messages are dropped for good, and after the heal
// they flow normally — recovering what was lost is the retransmission
// layer's job, not the network's.
func TestHealingPartitionHeals(t *testing.T) {
	g, _ := Builtin("healing-partition")
	pl := NewPlane(g.Make(6, 2), 6, 0)
	if !pl.Decide(1, 6, node.Payload{}, 100).Drop {
		t.Error("healing partition did not cut cross-half traffic during the window")
	}
	if pl.Decide(1, 2, node.Payload{}, 100).Drop {
		t.Error("intra-half link 1->2 cut")
	}
	after := pl.Decide(1, 6, node.Payload{}, 200)
	if after.Drop || after.ExtraDelay != 0 {
		t.Errorf("link still faulted after the heal: %+v", after)
	}
}

// TestBufferingPartitionHolds verifies the buffering variant: during
// [10, 200) cross-half messages are held (delayed past the heal, not
// dropped), and after the heal they flow normally.
func TestBufferingPartitionHolds(t *testing.T) {
	g, _ := Builtin("buffering-partition")
	pl := NewPlane(g.Make(6, 2), 6, 0)
	dec := pl.Decide(1, 6, node.Payload{}, 100)
	if dec.Drop {
		t.Error("buffering partition drops instead of holding")
	}
	if dec.ExtraDelay < 100 {
		t.Errorf("ExtraDelay = %d at tick 100; want >= 100 so delivery lands after the tick-200 heal", dec.ExtraDelay)
	}
	after := pl.Decide(1, 6, node.Payload{}, 200)
	if after.Drop || after.ExtraDelay != 0 {
		t.Errorf("link still faulted after the heal: %+v", after)
	}
}

// TestOneWayCutIsDirectional: the mute process's outbound links are cut
// from tick 10; its inbound links and everyone else's traffic still flow.
func TestOneWayCutIsDirectional(t *testing.T) {
	g, _ := Builtin("one-way-cut")
	pl := NewPlane(g.Make(5, 2), 5, 0) // process 5 is mute
	if pl.Decide(5, 1, node.Payload{}, 5).Drop {
		t.Error("cut before tick 10")
	}
	if !pl.Decide(5, 1, node.Payload{}, 10).Drop {
		t.Error("outbound link 5->1 not cut at tick 10")
	}
	if pl.Decide(1, 5, node.Payload{}, 50).Drop {
		t.Error("inbound link 1->5 cut: the plan must be one-directional")
	}
	if pl.Decide(1, 2, node.Payload{}, 50).Drop {
		t.Error("bystander link 1->2 cut")
	}
}

func TestHoldRequiresUntil(t *testing.T) {
	if err := (Plan{Rules: []Rule{{Hold: true}}}).Validate(3); err == nil {
		t.Error("Hold without Until accepted")
	}
}

// TestPeriodicRuleWindow: a periodic rule re-activates every Period ticks
// for ActiveFor ticks, anchored at From and clamped by Until.
func TestPeriodicRuleWindow(t *testing.T) {
	pl := NewPlane(Plan{Rules: []Rule{
		{From: 10, Period: 100, ActiveFor: 20, Until: 250, Cut: true},
	}}, 3, 0)
	for _, c := range []struct {
		at  int64
		cut bool
	}{
		{0, false}, {9, false}, // before From
		{10, true}, {29, true}, {30, false}, {109, false}, // first window
		{110, true}, {129, true}, {130, false}, // second window, one Period on
		{210, true}, {229, true}, // third window
		{250, false}, {310, false}, // Until ends the rule, periods and all
	} {
		if got := pl.Decide(1, 2, node.Payload{}, c.at).Drop; got != c.cut {
			t.Errorf("at=%d: Drop=%v, want %v", c.at, got, c.cut)
		}
	}
}

// TestPeriodicHoldReleasesAtWindowEnd: Hold under a periodic window buffers
// until the end of the *current* window, not some global heal time.
func TestPeriodicHoldReleasesAtWindowEnd(t *testing.T) {
	pl := NewPlane(Plan{Rules: []Rule{
		{From: 10, Period: 100, ActiveFor: 30, Hold: true},
	}}, 3, 0)
	// First window is [10, 40): a message sent at 25 is held 15 ticks.
	if dec := pl.Decide(1, 2, node.Payload{}, 25); dec.ExtraDelay != 15 {
		t.Errorf("ExtraDelay at 25 = %d, want 15 (release at window end 40)", dec.ExtraDelay)
	}
	// Second window is [110, 140): a message sent at 139 is held 1 tick.
	if dec := pl.Decide(1, 2, node.Payload{}, 139); dec.ExtraDelay != 1 {
		t.Errorf("ExtraDelay at 139 = %d, want 1", dec.ExtraDelay)
	}
	// Between windows nothing is held.
	if dec := pl.Decide(1, 2, node.Payload{}, 50); dec.ExtraDelay != 0 {
		t.Errorf("ExtraDelay at 50 = %d, want 0 (rule dormant)", dec.ExtraDelay)
	}
}

// TestMovingPartitionRotates: the builtin isolates exactly one process at a
// time, handing the cut off every stride and wrapping around the cluster.
func TestMovingPartitionRotates(t *testing.T) {
	g, ok := Builtin("moving-partition")
	if !ok {
		t.Fatal("moving-partition not registered")
	}
	const n = 5
	pl := NewPlane(g.Make(n, 2), n, 0)
	const k = MovingPartitionStride
	isolatedAt := func(at int64) model.ProcID {
		if at < 10 {
			return 0
		}
		return model.ProcID((at-10)/k%n + 1)
	}
	// Sample interior instants of several windows, including the wrap into
	// the second cycle, and check every directed link's fate.
	for _, at := range []int64{5, 30, 10 + k + 5, 10 + 2*k + 5, 10 + 4*k + 5, 10 + 5*k + 5, 10 + 7*k + 5} {
		iso := isolatedAt(at)
		for from := model.ProcID(1); from <= n; from++ {
			for to := model.ProcID(1); to <= n; to++ {
				if from == to {
					continue
				}
				wantCut := iso != 0 && (from == iso || to == iso)
				if got := pl.Decide(from, to, node.Payload{}, at).Drop; got != wantCut {
					t.Errorf("at=%d (isolated=%d): link %d->%d Drop=%v, want %v", at, iso, from, to, got, wantCut)
				}
			}
		}
	}
}

// TestQueueDelayShapesBacklog: each charged message occupies the link for
// QueueDelay ticks; a burst spreads out linearly and the backlog drains
// once the link goes quiet. Shaping is per link and per rule.
func TestQueueDelayShapesBacklog(t *testing.T) {
	const per = 10
	pl := NewPlane(Plan{Rules: []Rule{{QueueDelay: per}}}, 3, 0)
	// A burst of three messages at the same tick queues behind itself.
	for i, want := range []int64{0, per, 2 * per} {
		if dec := pl.Decide(1, 2, node.Payload{}, 100); dec.ExtraDelay != want {
			t.Errorf("burst message %d: ExtraDelay = %d, want %d", i, dec.ExtraDelay, want)
		}
	}
	// Another link is an independent queue.
	if dec := pl.Decide(1, 3, node.Payload{}, 100); dec.ExtraDelay != 0 {
		t.Errorf("link 1->3 inherited 1->2's backlog: ExtraDelay = %d", dec.ExtraDelay)
	}
	// The 1->2 backlog drains at 100 + 3*per; a send midway still waits.
	if dec := pl.Decide(1, 2, node.Payload{}, 100+2*per); dec.ExtraDelay != per {
		t.Errorf("mid-drain ExtraDelay = %d, want %d", dec.ExtraDelay, per)
	}
	// Long after the burst the link is idle again.
	if dec := pl.Decide(1, 2, node.Payload{}, 1000); dec.ExtraDelay != 0 {
		t.Errorf("idle link ExtraDelay = %d, want 0", dec.ExtraDelay)
	}
}

// TestQueueDelayRespectsWindowAndSelectors: a dormant or non-matching rule
// neither charges the link nor delays the message.
func TestQueueDelayRespectsWindowAndSelectors(t *testing.T) {
	pl := NewPlane(Plan{Rules: []Rule{
		{From: 50, QueueDelay: 10, Links: LinkSet{Pairs: []Link{{From: 1, To: 2}}}},
	}}, 3, 0)
	// Before From: no charge.
	for i := 0; i < 3; i++ {
		if dec := pl.Decide(1, 2, node.Payload{}, 10); dec.ExtraDelay != 0 {
			t.Fatalf("shaping active before From: %+v", dec)
		}
	}
	// Unselected link: no charge.
	for i := 0; i < 3; i++ {
		if dec := pl.Decide(2, 1, node.Payload{}, 60); dec.ExtraDelay != 0 {
			t.Fatalf("shaping on unselected link: %+v", dec)
		}
	}
	// The selected link starts with an empty queue despite all that traffic.
	if dec := pl.Decide(1, 2, node.Payload{}, 60); dec.ExtraDelay != 0 {
		t.Errorf("first shaped message waited %d", dec.ExtraDelay)
	}
	if dec := pl.Decide(1, 2, node.Payload{}, 60); dec.ExtraDelay != 10 {
		t.Errorf("second shaped message waited %d, want 10", dec.ExtraDelay)
	}
}

// TestQueueDelayDeterministicAndStreamNeutral: shaping does not consume the
// splitmix64 stream, so adding a QueueDelay rule leaves every probabilistic
// fate of the other rules exactly where it was.
func TestQueueDelayDeterministicAndStreamNeutral(t *testing.T) {
	lossy := Rule{Drop: 0.3, Duplicate: 0.2, JitterMax: 5}
	bare := NewPlane(Plan{Rules: []Rule{lossy}}, 3, 42)
	shaped := NewPlane(Plan{Rules: []Rule{lossy, {QueueDelay: 7}}}, 3, 42)
	shaped2 := NewPlane(Plan{Rules: []Rule{lossy, {QueueDelay: 7}}}, 3, 42)
	for i := 0; i < 200; i++ {
		at := int64(i * 3)
		db := bare.Decide(1, 2, node.Payload{}, at)
		ds := shaped.Decide(1, 2, node.Payload{}, at)
		ds2 := shaped2.Decide(1, 2, node.Payload{}, at)
		if !reflect.DeepEqual(ds, ds2) {
			t.Fatalf("message %d: same seed diverged under shaping: %+v vs %+v", i, ds, ds2)
		}
		if db.Drop != ds.Drop || db.Duplicates != ds.Duplicates {
			t.Fatalf("message %d: shaping shifted probabilistic fates: bare %+v, shaped %+v", i, db, ds)
		}
		if ds.ExtraDelay < db.ExtraDelay {
			t.Fatalf("message %d: shaping reduced delay: bare %+v, shaped %+v", i, db, ds)
		}
	}
}
