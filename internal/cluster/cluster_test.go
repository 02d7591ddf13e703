package cluster_test

import (
	"testing"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/quorum"
	"failstop/internal/sim"
)

func TestNewWiresAllProcesses(t *testing.T) {
	c := cluster.New(cluster.Options{
		Det: core.Config{N: 4, T: 1},
		Sim: sim.Config{Seed: 1},
	})
	if c.N() != 4 {
		t.Errorf("N() = %d", c.N())
	}
	for p := 1; p <= 4; p++ {
		if c.Detectors[p] == nil {
			t.Errorf("detector %d missing", p)
		}
	}
	if c.Detectors[0] != nil {
		t.Error("index 0 must stay nil")
	}
	res := c.Run()
	if len(res.History) != 0 {
		t.Errorf("idle cluster produced %d events", len(res.History))
	}
}

func TestQuorumSetsAggregation(t *testing.T) {
	c := cluster.New(cluster.Options{
		Det: core.Config{N: 5, T: 2},
		Sim: sim.Config{Seed: 2, MinDelay: 1, MaxDelay: 5},
	})
	c.SuspectAt(5, 2, 1)
	c.Run()
	sets := c.QuorumSets()
	if len(sets) != 4 { // processes 2..5 each detected 1
		t.Fatalf("got %d quorum sets, want 4", len(sets))
	}
	min := quorum.MinSize(5, 2)
	for _, s := range sets {
		if s.Len() < min {
			t.Errorf("quorum %v smaller than %d", s, min)
		}
	}
	if !quorum.SubfamiliesIntersect(sets, 2) {
		t.Error("quorums from one run must satisfy the witness property")
	}
}

func TestCrashAndSuspectInjection(t *testing.T) {
	c := cluster.New(cluster.Options{
		Det: core.Config{N: 5, T: 2},
		Sim: sim.Config{Seed: 3, MinDelay: 1, MaxDelay: 5},
	})
	c.CrashAt(1, 5)
	c.SuspectAt(10, 1, 5)
	res := c.Run()
	if res.History.CrashIndex(5) < 0 {
		t.Error("injected crash missing")
	}
	if !c.Detectors[1].Detected(5) {
		t.Error("injected suspicion did not lead to detection")
	}
	_ = model.History(res.History)
}
