package quorum

import (
	"testing"

	"failstop/internal/model"
	"failstop/internal/topo"
)

func TestPoolGlobal(t *testing.T) {
	p := PoolOf(nil, 3, 10, 3)
	if p.Size() != 10 {
		t.Errorf("Size = %d, want 10", p.Size())
	}
	if p.MinSize() != MinSize(10, 3) {
		t.Errorf("MinSize = %d, want %d", p.MinSize(), MinSize(10, 3))
	}
	if !p.Counts(3) || !p.Counts(10) || p.Counts(11) || p.Counts(0) {
		t.Error("global pool membership wrong")
	}
}

func TestPoolPartial(t *testing.T) {
	top := topo.MustNew(topo.Spec{Kind: topo.KindGossip, Fanout: 3, Seed: 5}, 50)
	self := model.ProcID(7)
	p := PoolOf(top, self, 50, 3)
	if p.top == nil {
		t.Fatal("gossip pool not Partial")
	}
	deg := top.Degree(self)
	if p.Size() != deg+1 {
		t.Errorf("Size = %d, want degree+1 = %d", p.Size(), deg+1)
	}
	if p.MinSize() != MinSize(deg+1, 3) {
		t.Errorf("MinSize = %d, want %d", p.MinSize(), MinSize(deg+1, 3))
	}
	if !p.Counts(self) {
		t.Error("self must always count")
	}
	counted := 0
	for q := model.ProcID(1); int(q) <= 50; q++ {
		if q == self {
			continue
		}
		if p.Counts(q) != top.Contains(self, q) {
			t.Errorf("Counts(%d) = %v disagrees with adjacency", q, p.Counts(q))
		}
		if p.Counts(q) {
			counted++
		}
	}
	if counted != deg {
		t.Errorf("counted %d neighbors, want %d", counted, deg)
	}
}
