// The realizability oracle: a history is FS-realizable iff some ordering of
// its events that keeps happens-before is a fail-stop history isomorphic to
// it. For tiny histories that definition can be run as written — every linear
// extension of happens-before, each asked of Verify — and held to Realizable,
// Graph and Theorem 2.
package rewrite_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"failstop/internal/checker"
	"failstop/internal/model"
	"failstop/internal/rewrite"
)

// oracleAccepts enumerates every linear extension of h's happens-before
// (model.NewHB), with no pruning, and reports whether Verify accepts one of
// them. It stops at the first accepted extension and returns it.
func oracleAccepts(h model.History) (model.History, bool) {
	hb := model.NewHB(h)
	placed := make([]bool, len(h))
	ext := make(model.History, 0, len(h))
	var found model.History
	var extend func() bool
	extend = func() bool {
		if len(ext) == len(h) {
			if rewrite.Verify(h, ext) == nil {
				found = ext.Clone()
				return true
			}
			return false
		}
		for k := range h {
			if placed[k] || !enabled(hb, placed, k) {
				continue
			}
			placed[k] = true
			ext = append(ext, h[k])
			if extend() {
				return true
			}
			ext = ext[:len(ext)-1]
			placed[k] = false
		}
		return false
	}
	ok := extend()
	return found, ok
}

// enabled reports that every event happening before event k is placed.
func enabled(hb *model.HB, placed []bool, k int) bool {
	for a := range placed {
		if a != k && !placed[a] && hb.Before(a, k) {
			return false
		}
	}
	return true
}

// isExtension reports whether out orders h's events as a linear extension of
// h's happens-before: each event of out is a distinct event of h, and no
// event comes before one that happens before it.
func isExtension(h, out model.History) bool {
	if len(out) != len(h) {
		return false
	}
	hb := model.NewHB(h)
	placed := make([]bool, len(h))
	for _, e := range out {
		k := -1
		for i := range h {
			if !placed[i] && sameEvent(h[i], e) {
				k = i
				break
			}
		}
		if k < 0 || !enabled(hb, placed, k) {
			return false
		}
		placed[k] = true
	}
	return true
}

// sameEvent compares two events but for their position.
func sameEvent(a, b model.Event) bool {
	a.Seq, b.Seq = 0, 0
	return a == b
}

// oracleHistories are model.Gen's histories at n = 2 and 3 and at most 12
// events, under the default weights and with detections and crashes ten
// times as frequent.
func oracleHistories() map[string]model.History {
	out := map[string]model.History{}
	for n := 2; n <= 3; n++ {
		for steps := 0; steps <= 12; steps++ {
			for seed := int64(0); seed < 8; seed++ {
				for _, weighted := range []bool{false, true} {
					g := model.NewGen(seed*1000 + int64(n*100+steps))
					if weighted {
						g.FailedWeight, g.CrashWeight = 50, 20
					}
					out[fmt.Sprintf("gen n=%d steps=%d seed=%d weighted=%v", n, steps, seed, weighted)] = g.History(n, steps)
				}
			}
		}
	}
	return out
}

// exhaustiveHistories returns every history of at most maxLen events over
// processes 1 and 2 that Validate accepts, built from the alphabet: a send
// to the other process, the receive of the oldest message in flight from it,
// a crash, and failed_p(q) for q = 1, 2. A receive always names the message
// FIFO order gives it, so the histories are all of them up to message names.
func exhaustiveHistories(maxLen int) []model.History {
	var out []model.History
	var grow func(h model.History, sent model.MsgID)
	grow = func(h model.History, sent model.MsgID) {
		out = append(out, h.Clone().Normalize())
		if len(h) == maxLen {
			return
		}
		for p := model.ProcID(1); p <= 2; p++ {
			q := 3 - p
			next := []model.Event{model.Send(p, q, sent+1, "APP", model.None), model.Crash(p), model.Failed(p, 1), model.Failed(p, 2)}
			if m := oldestInFlight(h, q, p); m != 0 {
				next = append(next, model.Recv(p, q, m, "APP", model.None))
			}
			for _, e := range next {
				g := append(h[:len(h):len(h)], e)
				if g.Validate() != nil {
					continue // Validate's rules hold of every prefix: nothing longer passes either
				}
				if e.Kind == model.KindSend {
					grow(g, sent+1)
				} else {
					grow(g, sent)
				}
			}
		}
	}
	grow(nil, 0)
	return out
}

// oldestInFlight returns the first message sent from p to q that q has not
// received, or 0.
func oldestInFlight(h model.History, p, q model.ProcID) model.MsgID {
	got := map[model.MsgID]bool{}
	for _, e := range h {
		if e.Kind == model.KindRecv {
			got[e.Msg] = true
		}
	}
	for _, e := range h {
		if e.Kind == model.KindSend && e.Proc == p && e.Peer == q && !got[e.Msg] {
			return e.Msg
		}
	}
	return 0
}

// checkAgainstOracle holds Realizable, Graph and Theorem 2 to the oracle on
// h. A parting prints the history as a JSON line to pin under
// internal/rewrite/testdata once it is known which side is wrong.
func checkAgainstOracle(t *testing.T, name string, h model.History) (realizable bool) {
	t.Helper()
	_, want := oracleAccepts(h)
	if got := rewrite.Realizable(h); got != want {
		line, _ := json.Marshal(h)
		t.Errorf("%s: Realizable = %v, the oracle says %v; history: %s", name, got, want, line)
	}
	if out, _, err := rewrite.Graph(h); err == nil {
		if !isExtension(h, out) || rewrite.Verify(h, out) != nil {
			line, _ := json.Marshal(h)
			t.Errorf("%s: Graph's output is not an extension the oracle accepts; history: %s", name, line)
		}
	}
	if want {
		for _, v := range []checker.Verdict{checker.Condition1(h), checker.Condition2(h), checker.Condition3(h)} {
			if !v.Holds {
				t.Errorf("%s: realizable, but %s fails (Theorem 2): %s", name, v.Property, v.Detail)
			}
		}
	}
	return want
}

// TestRealizableMatchesOracleOnGenerated: on every generated history, Graph
// decides realizability as the definition does, its output is an extension
// the definition accepts, and a realizable history meets Conditions 1–3.
func TestRealizableMatchesOracleOnGenerated(t *testing.T) {
	realizable, total := 0, 0
	for name, h := range oracleHistories() {
		if checkAgainstOracle(t, name, h) {
			realizable++
		}
		total++
	}
	if realizable == 0 || realizable == total {
		t.Errorf("%d of %d generated histories realizable: the oracle must be seen saying both", realizable, total)
	}
}

// TestRealizableMatchesOracleExhaustively: the same on every valid history of
// at most six events over two processes.
func TestRealizableMatchesOracleExhaustively(t *testing.T) {
	all := exhaustiveHistories(6)
	realizable := 0
	for i, h := range all {
		if checkAgainstOracle(t, fmt.Sprintf("exhaustive #%d", i), h) {
			realizable++
		}
	}
	if realizable == 0 || realizable == len(all) {
		t.Errorf("%d of %d enumerated histories realizable: the oracle must be seen saying both", realizable, len(all))
	}
	t.Logf("%d histories, %d realizable", len(all), realizable)
}
