package model

import (
	"testing"
	"testing/quick"
)

func TestVClockBasics(t *testing.T) {
	v := NewVClock(3)
	if len(v) != 4 {
		t.Fatalf("NewVClock(3) len = %d, want 4", len(v))
	}
	v[1], v[2] = 5, 1
	o := NewVClock(3)
	o[1], o[3] = 2, 7
	v.Join(o)
	if v[1] != 5 || v[2] != 1 || v[3] != 7 {
		t.Errorf("Join = %v", v)
	}
}

// The causal chain of Lemma 4: failed_i(j) -> send_i -> recv_k -> send_k -> recv_j.
func chainHistory() History {
	return History{
		Failed(1, 3),              // 0
		Send(1, 2, 1, "m1", None), // 1
		Recv(2, 1, 1, "m1", None), // 2
		Send(2, 3, 2, "m2", None), // 3
		Recv(3, 2, 2, "m2", None), // 4
		Internal(3, "e", None),    // 5
	}.Normalize()
}

func TestHappensBeforeChain(t *testing.T) {
	h := chainHistory()
	hb := NewHB(h)
	// Every event on the chain happens-before all later chain events.
	for a := 0; a < len(h); a++ {
		for b := a; b < len(h); b++ {
			if !hb.Before(a, b) {
				t.Errorf("expected %s -> %s", h[a], h[b])
			}
		}
	}
	// And the relation is antisymmetric apart from reflexivity.
	for a := 0; a < len(h); a++ {
		for b := a + 1; b < len(h); b++ {
			if hb.Before(b, a) {
				t.Errorf("unexpected %s -> %s", h[b], h[a])
			}
		}
	}
}

func TestHappensBeforeConcurrency(t *testing.T) {
	h := History{
		Send(1, 2, 1, "a", None), // 0
		Internal(3, "x", None),   // 1: concurrent with everything of 1 and 2
		Recv(2, 1, 1, "a", None), // 2
	}.Normalize()
	hb := NewHB(h)
	concurrent := func(a, b int) bool { return !hb.Before(a, b) && !hb.Before(b, a) }
	if !concurrent(0, 1) || !concurrent(1, 2) {
		t.Error("events of isolated process must be concurrent with others")
	}
	if concurrent(0, 2) {
		t.Error("send and matching recv are ordered")
	}
	if !hb.Before(0, 0) {
		t.Error("happens-before is reflexive (paper convention)")
	}
}

func TestHappensBeforeReflexive(t *testing.T) {
	h := chainHistory()
	hb := NewHB(h)
	for i := range h {
		if !hb.Before(i, i) {
			t.Errorf("Before(%d,%d) = false, want reflexive true", i, i)
		}
		if !BeforeBFS(h, i, i) {
			t.Errorf("BeforeBFS(%d,%d) = false, want reflexive true", i, i)
		}
	}
}

// Property: vector-clock happens-before agrees with the BFS oracle on
// random valid histories.
func TestHappensBeforeMatchesBFSOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		h := NewGen(seed).History(4, 60)
		hb := NewHB(h)
		for a := 0; a < len(h); a++ {
			for b := 0; b < len(h); b++ {
				if hb.Before(a, b) != BeforeBFS(h, a, b) {
					t.Logf("seed %d: disagreement at (%d, %d):\n%s", seed, a, b, h)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: happens-before implies history order for distinct events.
func TestHappensBeforeImpliesHistoryOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := NewGen(seed).History(5, 80)
		hb := NewHB(h)
		for a := 0; a < len(h); a++ {
			for b := 0; b < a; b++ {
				if hb.Before(a, b) {
					t.Fatalf("seed %d: later event %d happens-before earlier %d", seed, a, b)
				}
			}
		}
	}
}

// Property: happens-before is transitive.
func TestHappensBeforeTransitive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := NewGen(seed).History(4, 40)
		hb := NewHB(h)
		for a := 0; a < len(h); a++ {
			for b := a; b < len(h); b++ {
				if !hb.Before(a, b) {
					continue
				}
				for c := b; c < len(h); c++ {
					if hb.Before(b, c) && !hb.Before(a, c) {
						t.Fatalf("seed %d: transitivity broken %d->%d->%d", seed, a, b, c)
					}
				}
			}
		}
	}
}

func BenchmarkNewHB(b *testing.B) {
	h := NewGen(1).History(10, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewHB(h)
	}
}

func BenchmarkHBQuery(b *testing.B) {
	h := NewGen(1).History(10, 2000)
	hb := NewHB(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.Before(i%len(h), (i*7)%len(h))
	}
}
