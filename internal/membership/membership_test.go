package membership_test

import (
	"testing"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/membership"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/sim"
)

func memCluster(n, t int, proto core.Protocol, seed, horizon int64) (*cluster.Cluster, []*membership.Service) {
	apps := make([]*membership.Service, n+1)
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 10, MaxTime: horizon},
		Det: core.Config{N: n, T: t, Protocol: proto},
		App: func(p model.ProcID) core.App {
			s := &membership.Service{GossipInterval: 20}
			apps[p] = s
			return s
		},
	})
	return c, apps
}

func TestViewsConvergeOnFailure(t *testing.T) {
	c, apps := memCluster(5, 2, core.SimulatedFailStop, 1, 2000)
	c.CrashAt(30, 5)
	c.SuspectAt(60, 1, 5)
	c.Run()
	for p := 1; p <= 4; p++ {
		view := apps[p].View()
		if len(view) != 4 {
			t.Errorf("process %d view = %v, want 4 live", p, view)
		}
		for _, q := range view {
			if q == 5 {
				t.Errorf("process %d still has 5 in view", p)
			}
		}
	}
}

func TestMonotonicityHoldsUnderSFS(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		c, apps := memCluster(6, 2, core.SimulatedFailStop, seed, 3000)
		c.SuspectAt(40, 2, 1) // false suspicion mid-gossip
		c.SuspectAt(55, 3, 4)
		res := c.Run()
		if got := membership.ObservedViolations(res.History); got != 0 {
			t.Errorf("seed %d: %d monotonicity violations under sFS, want 0", seed, got)
		}
		received := 0
		for p := 1; p <= 6; p++ {
			if apps[p] != nil {
				received += apps[p].GossipsReceived()
			}
		}
		if received == 0 {
			t.Errorf("seed %d: no gossip delivered; test vacuous", seed)
		}
	}
}

func TestMonotonicityHoldsUnderCheap(t *testing.T) {
	// The cheap model keeps sFS2d (broadcast before detect + FIFO), so view
	// monotonicity survives even though sFS2b is lost.
	for seed := int64(0); seed < 10; seed++ {
		c, _ := memCluster(6, 2, core.Cheap, seed, 3000)
		c.SuspectAt(40, 2, 1)
		res := c.Run()
		if got := membership.ObservedViolations(res.History); got != 0 {
			t.Errorf("seed %d: %d violations under cheap model, want 0", seed, got)
		}
	}
}

func TestMonotonicityBreaksUnderUnilateral(t *testing.T) {
	c, _ := memCluster(4, 1, core.Unilateral, 2, 3000)
	c.SuspectAt(40, 1, 4) // 1 silently removes 4; nobody else learns
	res := c.Run()
	if got := membership.ObservedViolations(res.History); got == 0 {
		t.Error("expected monotonicity violations under unilateral detection")
	}
}

func TestViewInitiallyFull(t *testing.T) {
	c, apps := memCluster(3, 1, core.SimulatedFailStop, 1, 100)
	c.Run()
	for p := 1; p <= 3; p++ {
		if got := len(apps[p].View()); got != 3 {
			t.Errorf("process %d initial view size %d, want 3", p, got)
		}
	}
}

func TestMalformedStampIgnored(t *testing.T) {
	// A stamp of the wrong length must be ignored, not panic or count.
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 2, Seed: 1, MaxTime: 100},
		Det: core.Config{N: 2, T: 1},
		App: func(p model.ProcID) core.App {
			return &membership.Service{} // no gossip
		},
	})
	d1 := c.Detector(1)
	c.Sim.At(5, 1, func(ctx node.Context) {
		d1.SendApp(ctx, 2, []byte{1, 2, 3, 4, 5}) // wrong length
	})
	res := c.Run()
	if got := membership.ObservedViolations(res.History); got != 0 {
		t.Errorf("malformed stamp produced %d violations", got)
	}
}
