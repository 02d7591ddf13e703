package checker_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/model"
)

// Figure 1, literally. Each property below is written the way the paper
// states it, as a quantifier over the events of the history, with nothing
// of the checker's machinery (no Index, no Scan, no bitset). The paper's □
// ranges over the points of a run; a state predicate such as FAILED_j(i) or
// CRASH_i says that an event has happened, so it first holds at the point
// after that event and holds from then on — which turns "at every point" into
// "at every event" and "at that point" into "among the events before it".
// The result is slow and obviously right, and checker.FS1, FS2,
// SFS2a–SFS2d, §3.2's Condition1–Condition3 and Accuracy must agree with it
// on Holds for every history they are given.

// crashedIn reports whether crash_i is among events.
func crashedIn(events model.History, i model.ProcID) bool {
	for _, e := range events {
		if e.Kind == model.KindCrash && e.Proc == i {
			return true
		}
	}
	return false
}

// downAtEnd reports whether p is crashed when h ends: some crash_p has no
// restart of p after it (a restarted process is live again, for FS1 as for
// the checker).
func downAtEnd(h model.History, p model.ProcID) bool {
	for k, e := range h {
		if e.Kind != model.KindCrash || e.Proc != p {
			continue
		}
		restarted := false
		for _, r := range h[k+1:] {
			restarted = restarted || r.Kind == model.KindInternal && r.Tag == model.TagRestart && r.Proc == p
		}
		if !restarted {
			return true
		}
	}
	return false
}

// detects reports whether failed_i(j) is among events.
func detects(events model.History, i, j model.ProcID) bool {
	for _, e := range events {
		if e.Kind == model.KindFailed && e.Proc == i && e.Target == j {
			return true
		}
	}
	return false
}

// literalFS1: ∀i: □(CRASH_i ⇒ ∀j: ◇(CRASH_j ∨ FAILED_j(i))) at the end of
// the history, over the processes 1..n it names — every process down at the
// end is detected by every other process that is not.
func literalFS1(h model.History) bool {
	n := model.ProcID(0)
	for _, e := range h {
		n = max(n, e.Proc, e.Peer, e.Target)
	}
	for i := model.ProcID(1); i <= n; i++ {
		for j := model.ProcID(1); j <= n; j++ {
			if j != i && downAtEnd(h, i) && !downAtEnd(h, j) && !detects(h, j, i) {
				return false
			}
		}
	}
	return true
}

// literalFS2: ∀i,j: □(FAILED_j(i) ⇒ CRASH_i) — when j detects i, i has
// already crashed.
func literalFS2(h model.History) bool {
	for k, e := range h {
		if e.Kind == model.KindFailed && !crashedIn(h[:k], e.Target) {
			return false
		}
	}
	return true
}

// literalSFS2a: ∀i,j: □(FAILED_i(j) ⇒ ◇CRASH_j) — when i detects j, j has
// crashed or crashes later.
func literalSFS2a(h model.History) bool {
	for _, e := range h {
		if e.Kind == model.KindFailed && !crashedIn(h, e.Target) {
			return false
		}
	}
	return true
}

// literalSFS2b: the failed-before relation — i failed-before j iff
// failed_j(i) occurs (Definition 3) — is acyclic: no process reaches itself
// through one or more of its pairs.
func literalSFS2b(h model.History) bool {
	n := model.ProcID(0)
	for _, e := range h {
		n = max(n, e.Proc, e.Target)
	}
	before := make([][]bool, n+1) // before[i][j]: i failed-before j, then its transitive closure
	for i := range before {
		before[i] = make([]bool, n+1)
	}
	for _, e := range h {
		if e.Kind == model.KindFailed && e.Target >= 0 {
			before[e.Target][e.Proc] = true
		}
	}
	for k := range before {
		for i := range before {
			for j := range before {
				before[i][j] = before[i][j] || before[i][k] && before[k][j]
			}
		}
	}
	for x := range before {
		if before[x][x] {
			return false
		}
	}
	return true
}

// literalSFS2c: ∀i: □¬FAILED_i(i) — no process ever detects itself.
func literalSFS2c(h model.History) bool {
	for _, e := range h {
		if e.Kind == model.KindFailed && e.Proc == e.Target {
			return false
		}
	}
	return true
}

// literalSFS2d: if failed_i(j) happens before i's send of m to k, then k's
// receive of m from i has failed_k(j) happen before it — Figure 1's
//
//	□[FAILED_i(j) ∧ ¬SEND_i(k,m) ⇒ □((SEND_i(k,m) ∧ RECV_k(i,m)) ⇒ FAILED_k(j))]
//
// read over happens-before: the send and the detection are i's events, the
// receive and the detection it waits for are k's.
func literalSFS2d(h model.History) bool {
	hb := model.NewHB(h)
	for f, det := range h {
		if det.Kind != model.KindFailed {
			continue
		}
		i, j := det.Proc, det.Target
		for s, send := range h {
			if send.Kind != model.KindSend || send.Proc != i || !hb.Before(f, s) {
				continue
			}
			for r, recv := range h {
				if recv.Kind != model.KindRecv || recv.Msg != send.Msg || recv.Proc != send.Peer || recv.Peer != i {
					continue
				}
				caught := false
				for g, e := range h {
					if e.Kind == model.KindFailed && e.Proc == recv.Proc && e.Target == j && hb.Before(g, r) {
						caught = true
						break
					}
				}
				if !caught {
					return false
				}
			}
		}
	}
	return true
}

// literalCondition1: §3.2's Condition 1 — if failed_i(j) occurs in the
// history, crash_j occurs in the history.
func literalCondition1(h model.History) bool {
	for _, e := range h {
		if e.Kind == model.KindFailed && !crashedIn(h, e.Target) {
			return false
		}
	}
	return true
}

// literalCondition3: §3.2's Condition 3 — there is no event e of process j
// such that failed_i(j) happens-before e.
func literalCondition3(h model.History) bool {
	hb := model.NewHB(h)
	for f, det := range h {
		if det.Kind != model.KindFailed {
			continue
		}
		for g, e := range h {
			if g != f && e.Proc == det.Target && hb.Before(f, g) {
				return false
			}
		}
	}
	return true
}

// literalAccuracy: every failed_i(j) detects a process of allowed.
func literalAccuracy(h model.History, allowed map[model.ProcID]bool) bool {
	for _, e := range h {
		if e.Kind == model.KindFailed && !allowed[e.Target] {
			return false
		}
	}
	return true
}

// literalCheck pairs a literal property with the checker's.
type literalCheck struct {
	prop    string
	literal func(model.History) bool
	checker func(model.History) checker.Verdict
}

var literalChecks = []literalCheck{
	{"FS1", literalFS1, checker.FS1},
	{"FS2", literalFS2, checker.FS2},
	{"sFS2a", literalSFS2a, checker.SFS2a},
	{"sFS2b", literalSFS2b, checker.SFS2b},
	{"sFS2c", literalSFS2c, checker.SFS2c},
	{"sFS2d", literalSFS2d, checker.SFS2d},
	{"Condition1", literalCondition1, checker.Condition1},
	// Condition 2 is the failed-before relation's acyclicity: sFS2b's
	// statement, word for word.
	{"Condition2", literalSFS2b, checker.Condition2},
	{"Condition3", literalCondition3, checker.Condition3},
}

// literalHistories are the histories the literal checker is held to: every
// history model.Gen makes at n ≤ 5 and at most 60 events for a few seeds,
// with its default weights and with detections and crashes ten times as
// frequent, and one single-event mutation of each (Gen never detects a
// process by itself), so that every property is seen holding and violated;
// and the crash-heavy ones again with restarts (Gen never restarts one).
func literalHistories() map[string]model.History {
	out := map[string]model.History{}
	for n := 2; n <= 5; n++ {
		for steps := 0; steps <= 60; steps++ {
			for seed := int64(0); seed < 4; seed++ {
				id := seed*1000 + int64(n*100+steps)
				rng := rand.New(rand.NewSource(id))
				for _, weighted := range []bool{false, true} {
					g := model.NewGen(id)
					if weighted {
						g.FailedWeight, g.CrashWeight = 50, 20
					}
					name := fmt.Sprintf("gen n=%d steps=%d seed=%d weighted=%v", n, steps, seed, weighted)
					h := g.History(n, steps)
					out[name], out[name+" mutated"] = h, mutate(h, n, rng)
					if weighted {
						out[name+" restarted"] = restarted(h)
					}
				}
			}
		}
	}
	return out
}

// restarted is h with every other crashed process restarted three events
// after its crash: a process down at some point but live at the end, which
// FS1 neither excuses from detecting nor requires detected.
func restarted(h model.History) model.History {
	out, nth := h.Clone(), 0
	for k := 0; k < len(out); k++ {
		if out[k].Kind == model.KindCrash {
			if nth++; nth%2 == 1 {
				out = slices.Insert(out, min(k+3, len(out)), model.Restart(out[k].Proc))
			}
		}
	}
	return out.Normalize()
}

// parting is a history on which the literal checker and the checker
// disagree: one line of testdata/literal_disagreements.jsonl.
type parting struct {
	Name     string        `json:"name"`
	Property string        `json:"property"`
	Literal  bool          `json:"literal"`
	Checker  bool          `json:"checker"`
	History  model.History `json:"history"`
}

const partingsPath = "testdata/literal_disagreements.jsonl"

func readPartings(t *testing.T) []parting {
	data, err := os.ReadFile(partingsPath)
	if err != nil {
		t.Fatal(err)
	}
	var out []parting
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		var p parting
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("%s: %v", partingsPath, err)
		}
		out = append(out, p)
	}
	return out
}

// TestLiteralFigure1 holds checker.FS1, FS2, SFS2a–SFS2d and Condition1–3 to
// their definitions on every generated history at n ≤ 5 and ≤ 60 events, and
// requires each property to be seen holding and violated. The two may part
// only where testdata/literal_disagreements.jsonl pins it.
func TestLiteralFigure1(t *testing.T) {
	pinned := map[string]parting{}
	for _, p := range readPartings(t) {
		pinned[p.Name+" "+p.Property] = p
	}
	seen := map[string][2]int{}
	for name, h := range literalHistories() {
		for _, c := range literalChecks {
			want, got := c.literal(h), c.checker(h)
			if p, ok := pinned[name+" "+c.prop]; got.Holds != want && !(ok && slices.Equal(p.History, h)) {
				raw, _ := json.Marshal(parting{name, c.prop, want, got.Holds, h})
				t.Errorf("%s: %s literally holds = %v, checker says %v; not pinned in %s:\n%s", name, c.prop, want, got, partingsPath, raw)
			}
			s := seen[c.prop]
			if want {
				s[0]++
			} else {
				s[1]++
			}
			seen[c.prop] = s
		}
	}
	for _, c := range literalChecks {
		if s := seen[c.prop]; s[0] == 0 || s[1] == 0 {
			t.Errorf("%s held on %d histories and was violated on %d: the set misses a side", c.prop, s[0], s[1])
		}
	}
}

// TestLiteralDisagreements: each pinned disagreement still gives the answers
// it was pinned with, and is on a history that is not a run — History.Validate
// refuses it, for a receive before its send or naming another sender. There
// the checker's sFS2d follows a message by its id alone, in history order,
// where Figure 1 pairs SEND_i(k,m) with RECV_k(i,m) whichever comes first.
func TestLiteralDisagreements(t *testing.T) {
	for _, p := range readPartings(t) {
		i := slices.IndexFunc(literalChecks, func(c literalCheck) bool { return c.prop == p.Property })
		if i < 0 {
			t.Fatalf("%s: no property %q", p.Name, p.Property)
		}
		c := literalChecks[i]
		if lit, got := c.literal(p.History), c.checker(p.History).Holds; lit != p.Literal || got != p.Checker {
			t.Errorf("%s: %s literal = %v, checker = %v; pinned %v, %v", p.Name, p.Property, lit, got, p.Literal, p.Checker)
		}
		if err := p.History.Validate(); err == nil {
			t.Errorf("%s: the checkers part on a valid history", p.Name)
		}
	}
}

// TestLiteralFigure1OnCorpus holds the same properties on the reading corpus
// (generated histories, their completions and mutations, recorded runs of
// the protocol), as checker.All reads it: the abstract history, transport
// traffic dropped. Both checker.All's verdict and the per-property function
// on the abstract history must agree with the literal one.
func TestLiteralFigure1OnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("literal properties over the recorded runs are quadratic")
	}
	for _, r := range readingCorpus(t) {
		ab := checker.Abstract(r.h, core.TagSusp)
		all := map[string]bool{}
		for _, v := range checker.All(r.h, core.TagSusp, r.t) {
			all[v.Property] = v.Holds
		}
		for _, c := range literalChecks {
			want := c.literal(ab)
			if got := c.checker(ab); got.Holds != want {
				t.Errorf("%s: %s literally holds = %v, checker says %v", r.name, c.prop, want, got)
			}
			if got, ok := all[c.prop]; !ok || got != want {
				t.Errorf("%s: %s literally holds = %v, checker.All says %v (reported: %v)", r.name, c.prop, want, got, ok)
			}
		}
	}
}

// accuracySets are the allow-sets Accuracy is asked about on h: the
// processes that crash in h (a plan's victims), the same without the
// lowest-numbered one, and every process but 1.
func accuracySets(h model.History) []map[model.ProcID]bool {
	crashed, low := map[model.ProcID]bool{}, model.ProcID(0)
	all := map[model.ProcID]bool{}
	for _, e := range h {
		if e.Kind == model.KindCrash {
			crashed[e.Proc] = true
			if low == 0 || e.Proc < low {
				low = e.Proc
			}
		}
		for _, p := range [...]model.ProcID{e.Proc, e.Peer, e.Target} {
			all[p] = p != 1
		}
	}
	fewer := map[model.ProcID]bool{}
	for p := range crashed {
		fewer[p] = p != low
	}
	return []map[model.ProcID]bool{crashed, fewer, all}
}

// TestLiteralAccuracy holds checker.Accuracy to its definition on every
// generated history literalHistories makes and on the reading corpus, under
// each of accuracySets' allow-sets, and requires it to be seen holding and
// violated.
func TestLiteralAccuracy(t *testing.T) {
	hs := literalHistories()
	if !testing.Short() {
		for _, r := range readingCorpus(t) {
			hs["corpus "+r.name] = checker.Abstract(r.h, core.TagSusp)
		}
	}
	seen := [2]int{}
	for name, h := range hs {
		for k, allowed := range accuracySets(h) {
			want, got := literalAccuracy(h, allowed), checker.Accuracy(h, allowed)
			if got.Holds != want {
				t.Errorf("%s, allow-set %d %v: Accuracy literally holds = %v, checker says %v", name, k, allowed, want, got)
			}
			if want {
				seen[0]++
			} else {
				seen[1]++
			}
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("Accuracy held %d times and was violated %d times: the set misses a side", seen[0], seen[1])
	}
}

// literalQuorum is the quorum set Q_{i,j} of the detection failed_i(j) at h[k],
// rebuilt from §4 by a walk of the history before it: i itself, and every
// process i has received a "j failed" message from — a receive by i tagged
// suspTag whose subject is j.
func literalQuorum(h model.History, k int, suspTag string) map[model.ProcID]bool {
	i, j := h[k].Proc, h[k].Target
	q := map[model.ProcID]bool{i: true}
	for _, e := range h[:k] {
		if e.Kind == model.KindRecv && e.Proc == i && e.Tag == suspTag && e.Target == j && j != model.None {
			q[e.Peer] = true
		}
	}
	return q
}

// literalW: §4's Witness property W in the form sFS2b needs — every subfamily
// of at most t quorum sets, one a detection, has a common member. Every such
// subfamily is enumerated and intersected on its own: no pruning, no
// deduplication, no bitset.
func literalW(h model.History, suspTag string, t int) bool {
	var sets []map[model.ProcID]bool
	for k, e := range h {
		if e.Kind == model.KindFailed {
			sets = append(sets, literalQuorum(h, k, suspTag))
		}
	}
	shared := func(pick []int) bool {
		for p := range sets[pick[0]] {
			in := true
			for _, k := range pick[1:] {
				in = in && sets[k][p]
			}
			if in {
				return true
			}
		}
		return false
	}
	// walk extends pick, a subfamily in ascending index order, by every later
	// set, and reports whether all subfamilies it reaches have a common member.
	var walk func(pick []int, from int) bool
	walk = func(pick []int, from int) bool {
		if len(pick) > 0 && !shared(pick) {
			return false
		}
		if len(pick) == t {
			return true
		}
		for k := from; k < len(sets); k++ {
			if !walk(append(pick, k), k+1) {
				return false
			}
		}
		return true
	}
	return walk(nil, 0)
}

// TestLiteralWitness holds checker.WitnessProperty to literalW on every
// generated history literalHistories makes, at t = 1 to 4, and requires W to
// be seen holding and violated.
func TestLiteralWitness(t *testing.T) {
	seen := [2]int{}
	for name, h := range literalHistories() {
		for tt := 1; tt <= 4; tt++ {
			want, got := literalW(h, core.TagSusp, tt), checker.WitnessProperty(h, core.TagSusp, tt)
			if got.Holds != want {
				raw, _ := json.Marshal(h)
				t.Errorf("%s, t = %d: W literally holds = %v, checker says %v:\n%s", name, tt, want, got, raw)
			}
			if want {
				seen[0]++
			} else {
				seen[1]++
			}
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("W held on %d histories and was violated on %d: the set misses a side", seen[0], seen[1])
	}
}

// TestLiteralWitnessOnCorpus holds the same on the reading corpus, at each
// history's own t, and checker.All's W verdict with it.
func TestLiteralWitnessOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("literal subfamilies over the recorded runs are combinatorial")
	}
	for _, r := range readingCorpus(t) {
		want := literalW(r.h, core.TagSusp, r.t)
		if got := checker.WitnessProperty(r.h, core.TagSusp, r.t); got.Holds != want {
			t.Errorf("%s, t = %d: W literally holds = %v, checker says %v", r.name, r.t, want, got)
		}
		all := checker.All(r.h, core.TagSusp, r.t)
		if i := slices.IndexFunc(all, func(v checker.Verdict) bool { return v.Property == "W" }); i < 0 || all[i].Holds != want {
			t.Errorf("%s, t = %d: W literally holds = %v, checker.All says %v", r.name, r.t, want, all)
		}
	}
}
