package model

import "fmt"

// FailedBefore is the paper's failed-before relation (Definition 3)
// restricted to a finite history: i failed-before j iff failed_j(i) occurs
// in the history. It is a directed graph over process ids, read off the
// history's Index: the successors of i are the j whose failed_j(i) lookup
// answers, visited in id order.
type FailedBefore struct{ x *Index }

// NewFailedBefore extracts the failed-before relation from a history.
func NewFailedBefore(h History) *FailedBefore { return NewIndex(h).FailedBefore() }

// FailedBefore returns the failed-before relation of the indexed history.
func (x *Index) FailedBefore() *FailedBefore { return &FailedBefore{x} }

// Holds reports whether i failed-before j (failed_j(i) occurred).
func (fb *FailedBefore) Holds(i, j ProcID) bool { return fb.x.Detection(j, i) >= 0 }

// Pairs returns all (i, j) pairs with i failed-before j, ordered.
func (fb *FailedBefore) Pairs() [][2]ProcID {
	var out [][2]ProcID
	for i := ProcID(0); int(i) <= fb.x.n; i++ {
		for j := ProcID(0); fb.x.detected(i) && int(j) <= fb.x.n; j++ {
			if fb.Holds(i, j) {
				out = append(out, [2]ProcID{i, j})
			}
		}
	}
	return out
}

// Cycle returns a cycle in the failed-before relation as a sequence of
// process ids (x1, x2, ..., xk) such that x1 failed-before x2, ...,
// xk failed-before x1 — i.e. a violation of sFS2b / Condition 2 — or nil if
// the relation is acyclic.
func (fb *FailedBefore) Cycle() []ProcID {
	x := fb.x
	cols := len(x.first) / (x.n + 1)
	if cols == 0 {
		return nil
	}
	// Only a detected process has successors, so only those need a colour
	// and a parent; both are kept per column of the lookup.
	tab := make([]int32, 2*cols)
	s := cycleSearch{x: x, color: tab[:cols], parent: tab[cols:]}
	for r := ProcID(0); int(r) <= x.n; r++ {
		if c := x.col[r]; c != 0 && s.color[c-1] == white && s.dfs(r) {
			return s.cycle
		}
	}
	return nil
}

const white, gray, black = 0, 1, 2

// cycleSearch is the state of one depth-first walk of Cycle: roots and
// successors are visited in id order, so the cycle reported is the same on
// every execution.
type cycleSearch struct {
	x             *Index
	color, parent []int32 // per column: the detected process's colour, and the process it was reached from
	cycle         []ProcID
}

func (s *cycleSearch) dfs(u ProcID) bool {
	cu := s.x.col[u] - 1
	s.color[cu] = gray
	for v := ProcID(0); int(v) <= s.x.n; v++ {
		c := s.x.col[v]
		if c == 0 || s.x.Detection(v, u) < 0 {
			continue // to a process nobody detects — a dead end — or no edge
		}
		switch s.color[c-1] {
		case white:
			s.parent[c-1] = int32(u)
			if s.dfs(v) {
				return true
			}
		case gray:
			// Found a back edge u -> v: collect v, u and u's ancestors down
			// to v's child, then reverse to put them in edge order.
			s.cycle = []ProcID{v}
			for w := u; w != v; w = ProcID(s.parent[s.x.col[w]-1]) {
				s.cycle = append(s.cycle, w)
			}
			for a, b := 0, len(s.cycle)-1; a < b; a, b = a+1, b-1 {
				s.cycle[a], s.cycle[b] = s.cycle[b], s.cycle[a]
			}
			return true
		}
	}
	s.color[cu] = black
	return false
}

// Acyclic reports whether the failed-before relation has no cycle
// (Condition 2 / sFS2b).
func (fb *FailedBefore) Acyclic() bool { return fb.Cycle() == nil }

// Transitive reports whether the relation is transitive: whenever i
// failed-before j and j failed-before k, also i failed-before k. §6 notes
// that sFS's failed-before relation is *not* transitive in general, and that
// transitivity enables faster last-process-to-fail recovery.
func (fb *FailedBefore) Transitive() bool {
	for _, p := range fb.Pairs() {
		i, j := p[0], p[1]
		for k := ProcID(0); fb.x.detected(j) && int(k) <= fb.x.n; k++ {
			if k != i && fb.Holds(j, k) && !fb.Holds(i, k) {
				return false
			}
		}
	}
	return true
}

// String renders the relation as "i -> j" lines.
func (fb *FailedBefore) String() string {
	pairs := fb.Pairs()
	out := make([]byte, 0, len(pairs)*8)
	for _, p := range pairs {
		out = append(out, fmt.Sprintf("%d failed-before %d\n", p[0], p[1])...)
	}
	return string(out)
}
