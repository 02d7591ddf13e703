package netadv

import (
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/topo"
)

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
