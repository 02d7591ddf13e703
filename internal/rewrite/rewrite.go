// Package rewrite implements the constructive content of Theorem 5: every
// history satisfying the simulated-fail-stop conditions is isomorphic (with
// respect to every process) to a history satisfying fail-stop. Given a
// model-level history, the package produces the witnessing FS history — an
// explicit certificate of indistinguishability — or reports that none
// exists (as for the Theorem 3 counterexample).
//
// Two independent algorithms are provided and cross-checked in tests:
//
//   - Graph: build the constraint graph over events — program-order edges,
//     send→receive edges, and one edge crash_i → failed_j(i) per detection
//     (the FS2 obligation) — and topologically sort it, preferring the
//     original order. A topological order restricted to the first two edge
//     kinds is exactly an isomorphic valid history; the extra edges force
//     FS2. A cycle proves no isomorphic FS run exists.
//
//   - Swaps: the paper's Appendix A.2 procedure. Pick a "bad pair" (i, j)
//     with failed_j(i) preceding crash_i; repeatedly move the first event
//     in the window between them that is not happens-after failed_j(i) to
//     just before failed_j(i), until crash_i itself moves; repeat across
//     bad pairs. The paper's case analysis shows this terminates on sFS
//     histories.
//
// FS-realizability (the graph acyclicity test) is also exposed directly:
// it is the operational form of "∃r' ∈ FS: r' =_P r".
package rewrite

import (
	"errors"
	"fmt"

	"failstop/internal/model"
)

// ErrNotRealizable reports that no isomorphic fail-stop history exists.
var ErrNotRealizable = errors.New("rewrite: history is not isomorphic to any fail-stop history")

// ErrNoCrash reports a detection whose target never crashes in the history:
// FS2 can then never be satisfied by reordering (sFS2a must hold, and the
// history must include the crash — run the system to quiescence first).
var ErrNoCrash = errors.New("rewrite: detected process never crashes in the history")

// Stats describes the work a rewrite performed.
type Stats struct {
	// BadPairs is the number of (detected, detector) pairs that initially
	// violated FS2 order.
	BadPairs int
	// Moves counts single-event moves (swap algorithm) or total events
	// re-emitted (graph algorithm).
	Moves int
	// Passes counts bad-pair fixing rounds (swap algorithm only).
	Passes int
}

// Graph rewrites h into an isomorphic history satisfying FS2, using the
// constraint-graph topological sort. The input must be a valid history
// (model.History.Validate) whose detections all have a crash event
// (checker.SFS2a); otherwise an error is returned — wrapping
// model.ErrInvalidHistory when h names a process outside 0..model.MaxProcs.
// On success the result is valid, isomorphic to h w.r.t. every process, and
// satisfies FS2.
func Graph(h model.History) (model.History, Stats, error) {
	var st Stats
	x := model.NewIndex(h)
	if err := x.Err(); err != nil {
		return nil, st, fmt.Errorf("rewrite: %w", err)
	}
	n, dets, p := len(h), x.Detections(), x.Processes()+1
	sends := 0
	for k := range h {
		if h[k].Kind == model.KindSend {
			sends++
		}
	}
	// An event has at most one program-order predecessor and one matching
	// send, and a detection one crash: at most 2n + |dets| edges. Edge e
	// leads to to[e-1]; the edges out of event a are chained from head[a]
	// through next. All of it, and the ready heap, is carved from one array.
	maxEdges := 2*n + len(dets)
	tab := make([]int32, p+3*n+2*maxEdges)
	lastOf, head, indeg := tab[:p], tab[p:p+n], tab[p+n:p+2*n] // lastOf[q]: 1 + index of q's latest event so far
	ready := minHeap(tab[p+2*n : p+2*n : p+3*n])
	to, next := tab[p+3*n:][:0:maxEdges], tab[p+3*n+maxEdges:][:0]
	addEdge := func(a, b int32) {
		to, next = append(to, b), append(next, head[a])
		head[a] = int32(len(to))
		indeg[b]++
	}

	// Program-order edges.
	sendAt := make(map[model.MsgID]int32, sends)
	for k := range h {
		e := &h[k]
		if prev := lastOf[e.Proc]; prev != 0 {
			addEdge(prev-1, int32(k))
		}
		lastOf[e.Proc] = int32(k + 1)
		if e.Kind == model.KindSend {
			sendAt[e.Msg] = int32(k)
		}
	}
	// Message edges.
	for k := range h {
		if e := &h[k]; e.Kind == model.KindRecv {
			s, okS := sendAt[e.Msg]
			if !okS {
				return nil, st, fmt.Errorf("rewrite: receive of m%d without send (invalid history)", e.Msg)
			}
			addEdge(s, int32(k))
		}
	}
	// FS2 edges: crash_i before failed_j(i).
	for _, d := range dets {
		ci := x.CrashIndex(d.Detected)
		if ci < 0 {
			return nil, st, fmt.Errorf("%w: failed_%d(%d)", ErrNoCrash, d.Detector, d.Detected)
		}
		if ci > d.Index {
			st.BadPairs++
		}
		addEdge(int32(ci), int32(d.Index))
	}

	// Kahn's algorithm with a min-heap on original index: the output is the
	// lexicographically earliest topological order, i.e. as close to the
	// original interleaving as the constraints allow.
	for k := 0; k < n; k++ {
		if indeg[k] == 0 {
			ready.push(int32(k))
		}
	}
	out := make(model.History, 0, n)
	for len(ready) > 0 {
		k := ready.pop()
		out = append(out, h[k])
		for e := head[k]; e != 0; e = next[e-1] {
			succ := to[e-1]
			if indeg[succ]--; indeg[succ] == 0 {
				ready.push(succ)
			}
		}
	}
	if len(out) != n {
		return nil, st, fmt.Errorf("%w: constraint cycle among %d events", ErrNotRealizable, n-len(out))
	}
	st.Moves = n
	return out.Normalize(), st, nil
}

// minHeap is a binary min-heap of event indexes.
type minHeap []int32

func (h *minHeap) push(v int32) {
	s := append(*h, v)
	for i := len(s) - 1; i > 0 && s[(i-1)/2] > s[i]; i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
	*h = s
}

func (h *minHeap) pop() int32 {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	for i, kid := 0, 1; kid < n; i, kid = kid, 2*kid+1 {
		if kid+1 < n && s[kid+1] < s[kid] {
			kid++
		}
		if s[i] <= s[kid] {
			break
		}
		s[i], s[kid] = s[kid], s[i]
	}
	*h = s[:n]
	return top
}

// Realizable reports whether an isomorphic fail-stop history exists for h:
// the constraint graph of Graph is acyclic and every detection's target
// crashes. This is the decision procedure behind Theorem 3's negative
// example and Theorem 5's positive guarantee.
func Realizable(h model.History) bool {
	_, _, err := Graph(h)
	return err == nil
}

// maxSwapPasses bounds the outer bad-pair loop of Swaps. Theorem 5's proof
// bounds the number of re-badded pairs by n per fix; n^2 * detections is a
// generous ceiling that only an un-rewritable (non-sFS) input can hit.
func maxSwapPasses(h model.History) int {
	n := h.Processes()
	d := len(h.Detections())
	if d == 0 {
		return 1
	}
	return (n*n + 1) * d
}

// Swaps rewrites h using the paper's Appendix A.2 swap construction. The
// input requirements and output guarantees match Graph. Inputs that satisfy
// the sFS conditions always succeed (Theorem 5); other inputs may exhaust
// the pass budget and return ErrNotRealizable.
func Swaps(h model.History) (model.History, Stats, error) {
	var st Stats
	cur := h.Clone().Normalize()

	// Preconditions shared with Graph: ids in range, and every detected
	// process crashes.
	x := model.NewIndex(cur)
	if err := x.Err(); err != nil {
		return nil, st, fmt.Errorf("rewrite: %w", err)
	}
	for _, d := range x.Detections() {
		if x.CrashIndex(d.Detected) < 0 {
			return nil, st, fmt.Errorf("%w: failed_%d(%d)", ErrNoCrash, d.Detector, d.Detected)
		}
	}
	st.BadPairs = len(badPairs(cur))

	budget := maxSwapPasses(cur)
	for pass := 0; ; pass++ {
		if pass > budget {
			return nil, st, fmt.Errorf("%w: swap construction did not converge", ErrNotRealizable)
		}
		bps := badPairs(cur)
		if len(bps) == 0 {
			break
		}
		st.Passes++
		var err error
		cur, err = fixPair(cur, bps[0], &st)
		if err != nil {
			return nil, st, err
		}
	}
	return cur.Normalize(), st, nil
}

// badPair identifies failed_j(i) at index fi preceding crash_i at index ci.
type badPair struct {
	i, j   model.ProcID
	fi, ci int
}

func badPairs(h model.History) []badPair {
	var out []badPair
	for _, d := range h.Detections() {
		ci := h.CrashIndex(d.Detected)
		if ci > d.Index {
			out = append(out, badPair{i: d.Detected, j: d.Detector, fi: d.Index, ci: ci})
		}
	}
	return out
}

// fixPair applies the inner induction of the Appendix A.2 base case: move
// events of the window (failed_j(i) .. crash_i] that are not happens-after
// failed_j(i) to just before failed_j(i), first such event first, until
// crash_i has been moved.
func fixPair(h model.History, bp badPair, st *Stats) (model.History, error) {
	for {
		hb := model.NewHB(h)
		fi := h.FailedIndex(bp.j, bp.i)
		ci := h.CrashIndex(bp.i)
		if ci < fi {
			return h, nil // pair fixed
		}
		if hb.Before(fi, ci) {
			// Lemma 4 rules this out for sFS histories; a non-sFS input can
			// trigger it.
			return nil, fmt.Errorf("%w: failed_%d(%d) happens-before crash_%d",
				ErrNotRealizable, bp.j, bp.i, bp.i)
		}
		// First event in (fi, ci] not happens-after failed_j(i).
		moved := false
		for k := fi + 1; k <= ci; k++ {
			if hb.Before(fi, k) {
				continue
			}
			// Move h[k] to position fi (just before the failed event),
			// shifting fi..k-1 right by one.
			e := h[k]
			copy(h[fi+1:k+1], h[fi:k])
			h[fi] = e
			h.Normalize()
			st.Moves++
			moved = true
			break
		}
		if !moved {
			return nil, fmt.Errorf("%w: window of failed_%d(%d) fully happens-after it",
				ErrNotRealizable, bp.j, bp.i)
		}
	}
}

// Verify checks that rewritten is a correct Theorem 5 witness for original:
// valid, isomorphic to original with respect to every process, and
// satisfying FS2 (every detection after its target's crash). It returns nil
// on success.
func Verify(original, rewritten model.History) error {
	if err := rewritten.Validate(); err != nil {
		return fmt.Errorf("rewrite: result invalid: %w", err)
	}
	if len(original) != len(rewritten) {
		return fmt.Errorf("rewrite: result has %d events, original %d", len(rewritten), len(original))
	}
	if !original.IsomorphicTo(rewritten) {
		return errors.New("rewrite: result not isomorphic to original")
	}
	x := model.NewIndex(rewritten)
	for _, d := range x.Detections() {
		ci := x.CrashIndex(d.Detected)
		if ci < 0 || ci > d.Index {
			return fmt.Errorf("rewrite: FS2 violated in result: failed_%d(%d) at %d, crash at %d",
				d.Detector, d.Detected, d.Index, ci)
		}
	}
	return nil
}
