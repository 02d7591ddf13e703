package model

import (
	"testing"
)

func TestFailedBeforeBasics(t *testing.T) {
	h := History{
		Failed(2, 1), // 1 failed-before 2
		Crash(1),
		Failed(3, 1), // 1 failed-before 3
		Failed(3, 2), // 2 failed-before 3
	}.Normalize()
	fb := NewFailedBefore(h)
	if !fb.Holds(1, 2) || !fb.Holds(1, 3) || !fb.Holds(2, 3) {
		t.Error("missing failed-before pairs")
	}
	if fb.Holds(2, 1) || fb.Holds(3, 1) || fb.Holds(1, 1) {
		t.Error("spurious failed-before pairs")
	}
	pairs := fb.Pairs()
	want := [][2]ProcID{{1, 2}, {1, 3}, {2, 3}}
	if len(pairs) != len(want) {
		t.Fatalf("Pairs() = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Errorf("Pairs()[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
	if !fb.Acyclic() {
		t.Error("relation is acyclic")
	}
	if fb.Cycle() != nil {
		t.Error("Cycle() must be nil for acyclic relation")
	}
}

func TestFailedBeforeTwoCycle(t *testing.T) {
	// The §6 anomaly: 1 detects 2, 2 detects 1.
	h := History{
		Failed(1, 2),
		Failed(2, 1),
	}.Normalize()
	fb := NewFailedBefore(h)
	cyc := fb.Cycle()
	if cyc == nil {
		t.Fatal("expected a cycle")
	}
	if len(cyc) != 2 {
		t.Fatalf("cycle length = %d, want 2 (%v)", len(cyc), cyc)
	}
	assertIsCycle(t, fb, cyc)
	if fb.Acyclic() {
		t.Error("Acyclic() must be false")
	}
}

func TestFailedBeforeLongCycle(t *testing.T) {
	// k-cycle: failed_1(2), failed_2(3), ..., failed_k(1)
	const k = 5
	var h History
	for i := 1; i <= k; i++ {
		j := i%k + 1
		h = append(h, Failed(ProcID(i), ProcID(j))) // j failed-before i
	}
	fb := NewFailedBefore(h.Normalize())
	cyc := fb.Cycle()
	if cyc == nil {
		t.Fatal("expected a cycle")
	}
	if len(cyc) != k {
		t.Fatalf("cycle length = %d, want %d (%v)", len(cyc), k, cyc)
	}
	assertIsCycle(t, fb, cyc)
}

func TestFailedBeforeCycleAmongAcyclicNoise(t *testing.T) {
	h := History{
		Failed(2, 1),
		Failed(5, 4),
		Failed(6, 5),
		Failed(3, 7), // 7 -> 3
		Failed(7, 3), // 3 -> 7: 2-cycle among noise
	}.Normalize()
	fb := NewFailedBefore(h)
	cyc := fb.Cycle()
	if cyc == nil {
		t.Fatal("expected cycle")
	}
	assertIsCycle(t, fb, cyc)
}

// assertIsCycle verifies that cyc is a genuine cycle in fb.
func assertIsCycle(t *testing.T, fb *FailedBefore, cyc []ProcID) {
	t.Helper()
	for i := range cyc {
		from, to := cyc[i], cyc[(i+1)%len(cyc)]
		if !fb.Holds(from, to) {
			t.Errorf("claimed cycle edge %d failed-before %d does not hold", from, to)
		}
	}
}

func TestFailedBeforeDedup(t *testing.T) {
	// The same detection pair recorded once even if the relation is queried
	// from a history where an application layer logs duplicates (Validate
	// would reject them, but NewFailedBefore should still be robust).
	h := History{Failed(2, 1), Failed(2, 1)}
	fb := NewFailedBefore(h)
	if got := len(fb.Pairs()); got != 1 {
		t.Errorf("Pairs() len = %d, want 1", got)
	}
}

func TestFailedBeforeTransitivity(t *testing.T) {
	transitive := History{
		Failed(2, 1),
		Failed(3, 2),
		Failed(3, 1),
	}
	if !NewFailedBefore(transitive).Transitive() {
		t.Error("relation {1->2, 2->3, 1->3} is transitive")
	}
	intransitive := History{
		Failed(2, 1),
		Failed(3, 2),
	}
	if NewFailedBefore(intransitive).Transitive() {
		t.Error("relation {1->2, 2->3} is not transitive")
	}
	empty := NewFailedBefore(History{})
	if !empty.Transitive() || !empty.Acyclic() {
		t.Error("empty relation is transitive and acyclic")
	}
}

func TestFailedBeforeString(t *testing.T) {
	h := History{Failed(2, 1)}
	s := NewFailedBefore(h).String()
	if s != "1 failed-before 2\n" {
		t.Errorf("String() = %q", s)
	}
}

func TestFailedBeforeSelfLoop(t *testing.T) {
	// failed_i(i) violates sFS2c but the relation must still represent it
	// (as a 1-cycle) so checkers can report it.
	h := History{Failed(1, 1)}
	fb := NewFailedBefore(h)
	cyc := fb.Cycle()
	if cyc == nil || len(cyc) != 1 || cyc[0] != 1 {
		t.Errorf("Cycle() = %v, want [1]", cyc)
	}
}

// Property: the relation read off the index equals the one a plain walk of
// the detections gives — the same pairs in the same order, the same Holds —
// and Cycle returns a cycle exactly when repeatedly removing processes
// nobody failed before leaves something behind.
func TestFailedBeforeMatchesDetections(t *testing.T) {
	cyclic := 0
	for seed := int64(0); seed < 200; seed++ {
		n := 3 + int(seed%6)
		g := NewGen(seed)
		g.FailedWeight = 5 + int(seed%4)*10
		h := g.History(n, 150)
		fb := NewFailedBefore(h)

		holds := map[[2]ProcID]bool{}
		for _, d := range h.Detections() {
			holds[[2]ProcID{d.Detected, d.Detector}] = true
		}
		var want [][2]ProcID
		for i := ProcID(0); int(i) <= n; i++ {
			for j := ProcID(0); int(j) <= n; j++ {
				if holds[[2]ProcID{i, j}] {
					want = append(want, [2]ProcID{i, j})
				}
				if fb.Holds(i, j) != holds[[2]ProcID{i, j}] {
					t.Fatalf("seed %d: Holds(%d, %d) = %v", seed, i, j, fb.Holds(i, j))
				}
			}
		}
		if got := fb.Pairs(); len(got) != len(want) {
			t.Fatalf("seed %d: Pairs() = %v, want %v", seed, got, want)
		} else {
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("seed %d: Pairs() = %v, want %v", seed, got, want)
				}
			}
		}

		// Peel off processes with no incoming edge until none is left.
		left := map[ProcID]bool{}
		for _, p := range want {
			left[p[0]], left[p[1]] = true, true
		}
		for peeled := true; peeled; {
			peeled = false
			for v := ProcID(0); int(v) <= n; v++ {
				if !left[v] {
					continue
				}
				incoming := false
				for _, p := range want {
					incoming = incoming || (p[1] == v && left[p[0]])
				}
				if !incoming {
					delete(left, v)
					peeled = true
				}
			}
		}
		cyc := fb.Cycle()
		if (cyc != nil) != (len(left) > 0) {
			t.Fatalf("seed %d: Cycle() = %v, but peeling leaves %v", seed, cyc, left)
		}
		if cyc != nil {
			assertIsCycle(t, fb, cyc)
			cyclic++
		}
	}
	if cyclic == 0 || cyclic == 200 {
		t.Errorf("%d of 200 relations were cyclic; the test needs both kinds", cyclic)
	}
}

// The relation of a history that could not be indexed is empty, not a panic.
func TestFailedBeforeOfUnindexedHistory(t *testing.T) {
	fb := NewFailedBefore(History{Failed(-1, 2), Failed(2, -1)})
	if fb.Pairs() != nil || fb.Cycle() != nil || !fb.Transitive() || fb.Holds(2, -1) || fb.String() != "" {
		t.Errorf("relation of a history with negative ids: pairs %v, cycle %v", fb.Pairs(), fb.Cycle())
	}
}
