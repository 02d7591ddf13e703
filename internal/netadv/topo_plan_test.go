package netadv

import (
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/topo"
)

// TestDeadRuleCompileSkipsMaps is the regression test for the eager-compile
// fix: a rule whose Until is already past when the plane is built must not
// allocate its selector lookup maps — but it must keep its rule slot, so
// the PRNG stream positions of every later rule are unshifted.
func TestDeadRuleCompileSkipsMaps(t *testing.T) {
	plan := Plan{
		Name: "dead-rule",
		Rules: []Rule{
			// Expired before the start tick below: compiles dead.
			{From: 10, Until: 50, Cut: true, Tags: []string{"SUSP"},
				Links: LinkSet{
					Groups: [][]model.ProcID{{1}, {2}},
					Pairs:  []Link{{From: 1, To: 3}},
				}},
			// Still live at the start tick.
			{From: 10, Drop: 0.5, JitterMax: 3},
		},
	}
	pl := NewPlaneAt(plan, 4, 7, 100)
	dead := &pl.rules[0]
	if !dead.dead {
		t.Fatal("expired rule did not compile dead")
	}
	if dead.groupOf.Len() != 0 || dead.pairs.Len() != 0 {
		t.Errorf("dead rule built selectors: %d groupOf entries, %d pairs", dead.groupOf.Len(), dead.pairs.Len())
	}
	if pl.rules[1].dead {
		t.Error("live rule compiled dead")
	}

	// Fates must be identical to a plane built at tick 0, where the same
	// rule is compiled live but inactive at the send times: both planes
	// consume the stream identically per rule slot.
	ref := NewPlane(plan, 4, 7)
	p := node.Payload{Tag: "SUSP"}
	for i := 0; i < 200; i++ {
		at := int64(100 + i)
		got := pl.Decide(1, 2, p, at)
		want := ref.Decide(1, 2, p, at)
		if got != want {
			t.Fatalf("msg %d: dead-rule plane decided %+v, live-but-inactive plane %+v", i, got, want)
		}
	}
}

// TestRegionRackSelectors pins the correlated-failure selectors: a rule
// cutting region 1's boundary (resp. rack 3's) drops exactly the links with
// one endpoint inside. Topology: 12 processes, hier 2x2 (rack size 3), so
// region 0 = procs 1..6, region 1 = procs 7..12, rack 3 = procs 10..12.
func TestRegionRackSelectors(t *testing.T) {
	spec := &topo.Spec{Kind: topo.KindHier, Regions: 2, Racks: 2}
	regionCut := NewPlane(Plan{
		Name:  "rc",
		Topo:  spec,
		Rules: []Rule{{Cut: true, Links: LinkSet{Regions: []int{1}}}},
	}, 12, 1)
	rackCut := NewPlane(Plan{
		Name:  "kc",
		Topo:  spec,
		Rules: []Rule{{Cut: true, Links: LinkSet{Racks: []int{3}}}},
	}, 12, 1)

	cases := []struct {
		from, to             model.ProcID
		wantRegion, wantRack bool
	}{
		{1, 2, false, false},   // inside region 0, rack 0
		{1, 7, true, false},    // crosses the region boundary, not rack 3's
		{7, 1, true, false},    // and in the other direction
		{7, 8, false, false},   // inside region 1, rack 2
		{7, 10, false, true},   // inside region 1 but crosses into rack 3
		{10, 11, false, false}, // inside rack 3
		{2, 12, true, true},    // crosses both boundaries
	}
	for _, c := range cases {
		if got := regionCut.Decide(c.from, c.to, node.Payload{}, 5).Drop; got != c.wantRegion {
			t.Errorf("region cut: Decide(%d->%d).Drop = %v, want %v", c.from, c.to, got, c.wantRegion)
		}
		if got := rackCut.Decide(c.from, c.to, node.Payload{}, 5).Drop; got != c.wantRack {
			t.Errorf("rack cut: Decide(%d->%d).Drop = %v, want %v", c.from, c.to, got, c.wantRack)
		}
	}
}

func TestTopoSelectorValidation(t *testing.T) {
	cut := []Rule{{Cut: true, Links: LinkSet{Regions: []int{0}}}}
	if err := (Plan{Rules: cut}).Validate(8); err == nil {
		t.Error("region selector without Topo: want error")
	}
	hier := &topo.Spec{Kind: topo.KindHier, Regions: 2, Racks: 1}
	if err := (Plan{Topo: hier, Rules: cut}).Validate(8); err != nil {
		t.Errorf("valid region selector: %v", err)
	}
	bad := []Rule{{Cut: true, Links: LinkSet{Regions: []int{2}}}}
	if err := (Plan{Topo: hier, Rules: bad}).Validate(8); err == nil {
		t.Error("region 2 of 2: want error")
	}
	badRack := []Rule{{Cut: true, Links: LinkSet{Racks: []int{5}}}}
	if err := (Plan{Topo: hier, Rules: badRack}).Validate(8); err == nil {
		t.Error("rack 5 of 2: want error")
	}
	gossip := &topo.Spec{Kind: topo.KindGossip, Fanout: 3}
	if err := (Plan{Topo: gossip, Rules: cut}).Validate(8); err == nil {
		t.Error("gossip Topo with region selectors: want error")
	}
	if err := (Plan{Topo: &topo.Spec{Kind: topo.KindHier, Regions: 9, Racks: 9}, Rules: cut}).Validate(8); err == nil {
		t.Error("hier 9x9 over 8 procs: want error")
	}
}

// TestRegionCutBuiltin smoke-tests the builtin end to end: links crossing
// the two-region boundary are cut inside the window and heal after it.
func TestRegionCutBuiltin(t *testing.T) {
	g, ok := Builtin("region-cut")
	if !ok {
		t.Fatal("region-cut builtin missing")
	}
	plan := g.Make(6, 2) // regions: {1,2,3} and {4,5,6}
	pl := NewPlane(plan, 6, 3)
	if !pl.Decide(2, 5, node.Payload{}, 50).Drop {
		t.Error("cross-region link not cut inside the window")
	}
	if pl.Decide(2, 3, node.Payload{}, 50).Drop {
		t.Error("intra-region link cut")
	}
	if pl.Decide(2, 5, node.Payload{}, 250).Drop {
		t.Error("cross-region link still cut after the heal")
	}
	if pl.Decide(2, 5, node.Payload{}, 5).Drop {
		t.Error("cross-region link cut before the window")
	}
}
