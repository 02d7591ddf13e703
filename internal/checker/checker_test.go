package checker

import (
	"fmt"
	"strings"
	"testing"

	"failstop/internal/model"
	"failstop/internal/quorum"
)

func mustHold(t *testing.T, v Verdict) {
	t.Helper()
	if !v.Holds {
		t.Errorf("%s should hold: %s", v.Property, v.Detail)
	}
}

func mustViolate(t *testing.T, v Verdict) {
	t.Helper()
	if v.Holds {
		t.Errorf("%s should be violated", v.Property)
	}
	if v.Detail == "" {
		t.Errorf("%s violation must carry a detail", v.Property)
	}
}

func TestFS1(t *testing.T) {
	// 1 crashes; 2 and 3 both detect it: FS1 holds.
	good := model.History{
		model.Crash(1),
		model.Failed(2, 1),
		model.Failed(3, 1),
	}.Normalize()
	mustHold(t, FS1(good))

	// 3 never detects: FS1 violated.
	badH := model.History{
		model.Crash(1),
		model.Failed(2, 1),
		model.Internal(3, "busy", model.None),
	}.Normalize()
	mustViolate(t, FS1(badH))

	// 3 crashed too: 3 is excused from detecting 1, but live 2 must still
	// detect 3.
	excused := model.History{
		model.Crash(1),
		model.Failed(2, 1),
		model.Crash(3),
		model.Failed(2, 3),
	}.Normalize()
	mustHold(t, FS1(excused))

	// Without failed_2(3), FS1 is violated for crash_3.
	missing := model.History{
		model.Crash(1),
		model.Failed(2, 1),
		model.Crash(3),
	}.Normalize()
	mustViolate(t, FS1(missing))

	// No crashes at all: trivially holds.
	mustHold(t, FS1(model.History{model.Internal(1, "x", model.None)}))
}

// TestFS1At: explicit membership closes FS1's silent-process blind spot.
// When every live process in a crash-recovery run leaves no trace, FS1's
// inferred n drops them and the property passes vacuously; FS1At holds
// the silent bystanders to their detection obligation.
func TestFS1At(t *testing.T) {
	// Only 1 and 2 act; 1 crashes, 2 detects, and (unbeknownst to the
	// history) processes 3..5 exist but stay silent.
	silent := model.History{
		model.Crash(1),
		model.Failed(2, 1),
	}.Normalize()
	mustHold(t, FS1(silent)) // inferred n=2: vacuously fine
	mustViolate(t, FS1At(silent, 5))

	// Once the bystanders detect too, the explicit check holds.
	full := model.History{
		model.Crash(1),
		model.Failed(2, 1),
		model.Failed(3, 1),
		model.Failed(4, 1),
		model.Failed(5, 1),
	}.Normalize()
	mustHold(t, FS1At(full, 5))

	// A restarted process is live again: it is not excused from detecting,
	// and it does not need detecting.
	restarted := model.History{
		model.Crash(1),
		model.Crash(3),
		model.Restart(3),
		model.Failed(2, 1),
		model.Failed(3, 1),
	}.Normalize()
	mustHold(t, FS1At(restarted, 3))
	mustViolate(t, FS1At(restarted, 4)) // silent 4 never detected crash_1
}

func TestFS2(t *testing.T) {
	good := model.History{
		model.Crash(1),
		model.Failed(2, 1),
	}.Normalize()
	mustHold(t, FS2(good))

	// Detection precedes crash: violated.
	early := model.History{
		model.Failed(2, 1),
		model.Crash(1),
	}.Normalize()
	mustViolate(t, FS2(early))

	// Detection with no crash at all: violated.
	never := model.History{model.Failed(2, 1)}.Normalize()
	mustViolate(t, FS2(never))
}

func TestSFS2a(t *testing.T) {
	// Crash after detection is fine for sFS2a (unlike FS2).
	late := model.History{
		model.Failed(2, 1),
		model.Crash(1),
	}.Normalize()
	mustHold(t, SFS2a(late))
	mustViolate(t, SFS2a(model.History{model.Failed(2, 1)}.Normalize()))

	// Condition1 is the same check under its own name.
	v := Condition1(model.History{model.Failed(2, 1)}.Normalize())
	mustViolate(t, v)
	if v.Property != "Condition1" {
		t.Errorf("property name = %q", v.Property)
	}
}

func TestSFS2b(t *testing.T) {
	acyclic := model.History{
		model.Failed(2, 1),
		model.Crash(1),
		model.Failed(3, 2),
		model.Crash(2),
	}.Normalize()
	mustHold(t, SFS2b(acyclic))

	cyclic := model.History{
		model.Failed(1, 2),
		model.Failed(2, 1),
		model.Crash(1),
		model.Crash(2),
	}.Normalize()
	mustViolate(t, SFS2b(cyclic))
	if v := SFS2b(cyclic); !strings.Contains(v.Detail, "cycle") {
		t.Errorf("detail should mention the cycle: %q", v.Detail)
	}
	v := Condition2(cyclic)
	mustViolate(t, v)
	if v.Property != "Condition2" {
		t.Errorf("property name = %q", v.Property)
	}
}

func TestSFS2c(t *testing.T) {
	mustHold(t, SFS2c(model.History{model.Failed(2, 1)}.Normalize()))
	mustViolate(t, SFS2c(model.History{model.Failed(2, 2)}.Normalize()))
}

func TestSFS2d(t *testing.T) {
	// i=1 detects j=3, then sends m to k=2; 2 receives only after failed_2(3).
	good := model.History{
		model.Failed(1, 3),
		model.Send(1, 2, 1, "APP", model.None),
		model.Failed(2, 3),
		model.Recv(2, 1, 1, "APP", model.None),
		model.Crash(3),
	}.Normalize()
	mustHold(t, SFS2d(good))

	// 2 receives before detecting 3: violated.
	badH := model.History{
		model.Failed(1, 3),
		model.Send(1, 2, 1, "APP", model.None),
		model.Recv(2, 1, 1, "APP", model.None),
		model.Failed(2, 3),
		model.Crash(3),
	}.Normalize()
	mustViolate(t, SFS2d(badH))

	// Message sent BEFORE the detection is unconstrained.
	pre := model.History{
		model.Send(1, 2, 1, "APP", model.None),
		model.Failed(1, 3),
		model.Recv(2, 1, 1, "APP", model.None),
		model.Crash(3),
	}.Normalize()
	mustHold(t, SFS2d(pre))

	// Multiple detections: the message carries all of them.
	multi := model.History{
		model.Failed(1, 3),
		model.Failed(1, 4),
		model.Send(1, 2, 1, "APP", model.None),
		model.Failed(2, 3),
		model.Recv(2, 1, 1, "APP", model.None), // missing failed_2(4)
		model.Crash(3),
		model.Crash(4),
	}.Normalize()
	mustViolate(t, SFS2d(multi))
}

func TestCondition3(t *testing.T) {
	// failed_1(3) happens-before an event of 3 via a message chain
	// (the Lemma 4 chain): violated.
	chain := model.History{
		model.Failed(1, 3),
		model.Send(1, 2, 1, "m", model.None),
		model.Recv(2, 1, 1, "m", model.None),
		model.Send(2, 3, 2, "m", model.None),
		model.Recv(3, 2, 2, "m", model.None),
	}.Normalize()
	mustViolate(t, Condition3(chain))

	// Concurrent events of 3 after the detection index but not causally
	// after it: fine.
	concurrent := model.History{
		model.Failed(1, 3),
		model.Internal(3, "own-step", model.None),
		model.Crash(3),
	}.Normalize()
	mustHold(t, Condition3(concurrent))
}

func TestQuorumSetsReconstruction(t *testing.T) {
	// Process 2 hears "1 failed" from 3 and 4, then detects 1.
	h := model.History{
		model.Send(3, 2, 1, "SUSP", 1),
		model.Send(4, 2, 2, "SUSP", 1),
		model.Recv(2, 3, 1, "SUSP", 1),
		model.Recv(2, 4, 2, "SUSP", 1),
		model.Failed(2, 1),
		model.Crash(1),
	}.Normalize()
	sets := QuorumSets(h, "SUSP")
	if len(sets) != 1 {
		t.Fatalf("got %d quorum sets, want 1", len(sets))
	}
	q := sets[0]
	if !q.Has(2) || !q.Has(3) || !q.Has(4) || q.Len() != 3 {
		t.Errorf("quorum = %v, want {2,3,4}", q)
	}
	// Suspicion heard AFTER the detection must not count.
	h2 := model.History{
		model.Send(3, 2, 1, "SUSP", 1),
		model.Recv(2, 3, 1, "SUSP", 1),
		model.Failed(2, 1),
		model.Send(4, 2, 2, "SUSP", 1),
		model.Recv(2, 4, 2, "SUSP", 1),
		model.Crash(1),
	}.Normalize()
	sets2 := QuorumSets(h2, "SUSP")
	if len(sets2) != 1 || sets2[0].Len() != 2 {
		t.Errorf("quorum sets = %v, want one set of size 2", sets2)
	}
}

func TestWitnessProperty(t *testing.T) {
	// Two detections sharing witness 5.
	shared := model.History{
		model.Send(5, 1, 1, "SUSP", 2),
		model.Recv(1, 5, 1, "SUSP", 2),
		model.Failed(1, 2),
		model.Send(5, 3, 2, "SUSP", 4),
		model.Recv(3, 5, 2, "SUSP", 4),
		model.Failed(3, 4),
		model.Crash(2),
		model.Crash(4),
	}.Normalize()
	mustHold(t, WitnessProperty(shared, "SUSP", 2))

	// Disjoint quorums: violated.
	disjoint := model.History{
		model.Failed(1, 2),
		model.Failed(3, 4),
		model.Crash(2),
		model.Crash(4),
	}.Normalize()
	mustViolate(t, WitnessProperty(disjoint, "SUSP", 2))
}

func TestAggregators(t *testing.T) {
	good := model.History{
		model.Crash(1),
		model.Failed(2, 1),
	}.Normalize()
	if _, allOK := AllHold(SFS(good)); !allOK {
		t.Error("SFS must hold on the good history")
	}
	if _, allOK := AllHold(FS(good)); !allOK {
		t.Error("FS must hold on the good history")
	}
	if got := len(All(good, "SUSP", 2)); got != 10 {
		t.Errorf("All returns %d verdicts, want 10", got)
	}

	badH := model.History{
		model.Failed(2, 1), // no crash: sFS2a violated
	}.Normalize()
	v, allOK := AllHold(SFS(badH))
	if allOK {
		t.Fatal("SFS must fail")
	}
	if v.Property != "sFS2a" {
		t.Errorf("first failure = %s, want sFS2a", v.Property)
	}
}

func TestVerdictString(t *testing.T) {
	if got := ok("FS1").String(); got != "FS1: ok" {
		t.Errorf("String() = %q", got)
	}
	v := bad("FS2", "boom")
	if got := v.String(); got != "FS2: VIOLATED (boom)" {
		t.Errorf("String() = %q", got)
	}
}

// The empty history satisfies everything.
func TestEmptyHistory(t *testing.T) {
	for _, v := range All(model.History{}, "SUSP", 2) {
		mustHold(t, v)
	}
}

// historyOf records a run in which, for each quorum set of fam in turn,
// the k-th ring member (fam[k] must contain it) hears "next ring member
// failed" from every other process of the set and then detects it.
func historyOf(fam []quorum.Set, ring []model.ProcID) model.History {
	var h model.History
	msg := model.MsgID(0)
	for k, q := range fam {
		i, j := ring[k], ring[(k+1)%len(ring)]
		for _, from := range q.Members() {
			if from != i {
				msg++
				h = append(h, model.Send(from, i, msg, "SUSP", j), model.Recv(i, from, msg, "SUSP", j))
			}
		}
		h = append(h, model.Failed(i, j))
	}
	return h.Normalize()
}

// A W violation names the detections whose quorum sets share no member —
// here the three sets of Theorem 7's adversarial family for n=9, t=3 —
// in history order, and the same history passes at t=2.
func TestWitnessPropertyNamesTheOffendingDetections(t *testing.T) {
	fam := quorum.EmptyIntersectionFamily(9, 3) // {4..9}, {1,2,3,7,8,9}, {1..6}
	h := historyOf(fam, []model.ProcID{4, 7, 1})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, q := range QuorumSets(h, "SUSP") {
		if q.String() != fam[k].String() {
			t.Fatalf("reconstructed quorum set %d = %v, want %v", k, q, fam[k])
		}
	}
	mustHold(t, WitnessProperty(h, "SUSP", 2))
	v := WitnessProperty(h, "SUSP", 3)
	mustViolate(t, v)
	want := "the quorum sets of failed_4(7) [4 5 6 7 8 9], failed_7(1) [1 2 3 7 8 9], failed_1(4) [1 2 3 4 5 6] share no member (3 of 3 detections, t = 3)"
	if v.Detail != want {
		t.Errorf("W detail = %q\nwant       %q", v.Detail, want)
	}
	if vs := All(h, "SUSP", 3); vs[len(vs)-1].Detail != want {
		t.Errorf("All reports W as %q", vs[len(vs)-1].Detail)
	}
}

// A repeated failed_i(j) — only an invalid history has one — sees every
// sender heard up to that point, as the streaming reconstruction always did.
func TestQuorumSetsRepeatedDetection(t *testing.T) {
	h := model.History{
		model.Send(3, 2, 1, "SUSP", 1),
		model.Recv(2, 3, 1, "SUSP", 1),
		model.Failed(2, 1),
		model.Send(4, 2, 2, "SUSP", 1),
		model.Recv(2, 4, 2, "SUSP", 1),
		model.Failed(2, 1),
	}.Normalize()
	sets := QuorumSets(h, "SUSP")
	if fmt.Sprint(sets) != "[[2 3] [2 3 4]]" {
		t.Errorf("quorum sets = %v, want [[2 3] [2 3 4]]", sets)
	}
}

// The stack's own traffic — every layer's, not just the detector's and the
// heartbeats' — is invisible to the model-level properties: a send that
// follows a detection taints sFS2d only if it is an application message.
func TestAllAbstractsEveryTransportTag(t *testing.T) {
	for _, tag := range TransportTags("SUSP") {
		h := model.History{
			model.Crash(3),
			model.Failed(1, 3),
			model.Send(1, 2, 1, tag, model.None),
			model.Recv(2, 1, 1, tag, model.None),
			model.Failed(2, 3),
		}.Normalize()
		for _, v := range All(h, "SUSP", 1) {
			if !v.Holds {
				t.Errorf("transport tag %q leaked into the model-level history: %s", tag, v)
			}
		}
		if ab := Abstract(h, "SUSP"); len(ab) != 3 {
			t.Errorf("Abstract kept %d events of a history whose only traffic is %q, want 3", len(ab), tag)
		}
	}
	app := model.History{
		model.Crash(3),
		model.Failed(1, 3),
		model.Send(1, 2, 1, "app", model.None),
		model.Recv(2, 1, 1, "app", model.None),
		model.Failed(2, 3),
	}.Normalize()
	if v, allOK := AllHold(All(app, "SUSP", 1)); allOK || v.Property != "sFS2d" {
		t.Errorf("an application message past the barrier must violate sFS2d, got %v", v)
	}
}
