package adversary

import (
	"fmt"
	"strings"
	"testing"

	"failstop/internal/checker"
	"failstop/internal/model"
	"failstop/internal/quorum"
)

func TestTheorem3RunShape(t *testing.T) {
	h := Theorem3Run()
	if err := h.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(h) != 8 {
		t.Fatalf("history has %d events, want 8", len(h))
	}
	// Check the two detections and two crashes are in the proof's order.
	if h.FailedIndex(4, 1) != 0 || h.CrashIndex(2) != 3 ||
		h.FailedIndex(3, 2) != 4 || h.CrashIndex(1) != 7 {
		t.Errorf("event placement wrong:\n%s", h)
	}
	for _, v := range []checker.Verdict{
		checker.Condition1(h), checker.Condition2(h), checker.Condition3(h),
	} {
		if !v.Holds {
			t.Errorf("%s must hold on the counterexample: %s", v.Property, v.Detail)
		}
	}
}

func TestCycleScenarioBelowBound(t *testing.T) {
	// Theorem 7 tightness, negative side: with quorums one below the bound,
	// the Appendix A.3 schedule manufactures the ring cycle.
	cases := []struct{ n, k int }{
		{5, 2}, {7, 2}, {10, 3}, {12, 3}, {17, 4},
	}
	for _, tc := range cases {
		q := quorum.MinSize(tc.n, tc.k) - 1
		out := RunCycleScenario(tc.n, tc.k, q, 1)
		if out.RingDetections != tc.k {
			t.Errorf("n=%d k=%d q=%d: %d/%d ring detections completed",
				tc.n, tc.k, q, out.RingDetections, tc.k)
		}
		if out.Cycle == nil {
			t.Errorf("n=%d k=%d q=%d: no failed-before cycle", tc.n, tc.k, q)
			continue
		}
		// The history must exhibit an sFS2b violation.
		if v := checker.SFS2b(out.Result.History); v.Holds {
			t.Errorf("n=%d k=%d q=%d: checker found no sFS2b violation", tc.n, tc.k, q)
		}
		// Quorums in the cycle must be witness-free (Theorem 6's premise).
		sets := checker.QuorumSets(out.Result.History, "SUSP")
		if quorum.SubfamiliesIntersect(sets, tc.k) {
			t.Errorf("n=%d k=%d q=%d: quorum sets unexpectedly have witnesses", tc.n, tc.k, q)
		}
		// The W verdict explains itself: it names, in history order, at
		// most k detections of the run whose quorum sets share no member.
		v := checker.WitnessProperty(out.Result.History, "SUSP", tc.k)
		sub := quorum.EmptySubfamily(sets, tc.k)
		if v.Holds || len(sub) == 0 || len(sub) > tc.k {
			t.Errorf("n=%d k=%d q=%d: W = %v, offending subfamily %v", tc.n, tc.k, q, v, sub)
			continue
		}
		dets, named, at := out.Result.History.Detections(), make([]quorum.Set, len(sub)), 0
		for i, d := range sub {
			named[i] = sets[d]
			name := fmt.Sprintf("failed_%d(%d) %v", dets[d].Detector, dets[d].Detected, sets[d])
			pos := strings.Index(v.Detail[at:], name)
			if pos < 0 {
				t.Errorf("n=%d k=%d q=%d: W detail %q does not name %s in order", tc.n, tc.k, q, v.Detail, name)
				break
			}
			at += pos + len(name)
		}
		if w, shared := quorum.Witness(named); shared {
			t.Errorf("n=%d k=%d q=%d: the named quorum sets %v share member %d", tc.n, tc.k, q, named, w)
		}
	}
}

func TestCycleScenarioAtBound(t *testing.T) {
	// Theorem 7 tightness, positive side: at the minimum quorum size, the
	// same adversary cannot complete the ring detections and no cycle forms.
	cases := []struct{ n, k int }{
		{5, 2}, {7, 2}, {10, 3}, {12, 3}, {17, 4},
	}
	for _, tc := range cases {
		q := quorum.MinSize(tc.n, tc.k)
		out := RunCycleScenario(tc.n, tc.k, q, 1)
		if out.Cycle != nil {
			t.Errorf("n=%d k=%d q=%d: cycle %v formed at the Theorem 7 bound",
				tc.n, tc.k, q, out.Cycle)
		}
		if v := checker.SFS2b(out.Result.History); !v.Holds {
			t.Errorf("n=%d k=%d q=%d: %s", tc.n, tc.k, q, v)
		}
	}
}

func TestCycleScenarioQuorumSizesAreExactlyTight(t *testing.T) {
	// The schedule assembles quorums of exactly MinSize-1 members: the
	// largest witness-free family the Theorem 7 proof constructs.
	n, k := 10, 3
	out := RunCycleScenario(n, k, quorum.MinSize(n, k)-1, 1)
	want := n - (n+k-1)/k // n - ceil(n/k) = MinSize - 1
	for _, qs := range out.QuorumSizes {
		if qs < quorum.MinSize(n, k)-1 {
			t.Errorf("ring quorum size %d below the adversary's design %d", qs, want)
		}
	}
}

func TestDescendingFrom(t *testing.T) {
	got := descendingFrom(3, 4, 99) // no self among 1..4
	want := []model.ProcID{3, 2, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("descendingFrom = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("descendingFrom = %v, want %v", got, want)
		}
	}
	// Self is skipped.
	got2 := descendingFrom(3, 4, 2)
	want2 := []model.ProcID{3, 1, 4}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("descendingFrom (skip self) = %v, want %v", got2, want2)
		}
	}
}

func TestRunCycleScenarioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k < 2")
		}
	}()
	RunCycleScenario(5, 1, 1, 1)
}
