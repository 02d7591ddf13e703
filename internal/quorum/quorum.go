// Package quorum implements the quorum arithmetic of §4: the Witness
// property, the minimum fixed quorum size of Theorem 7, the replication
// bound of Corollary 8, and the adversarial quorum-set family used in the
// Theorem 7 lower-bound proof.
package quorum

import (
	"fmt"
	"math/bits"
	"sync"

	"failstop/internal/model"
)

// MinSize returns the minimum fixed quorum size that guarantees the Witness
// property when up to t failures (including erroneous detections) can occur
// among n processes: the smallest integer strictly greater than n(t-1)/t
// (Theorem 7).
//
// MinSize panics if n < 1 or t < 1; t = 1 yields 1 (a single process may
// detect unilaterally, because a failed-before cycle needs at least two
// crashes).
func MinSize(n, t int) int {
	if n < 1 {
		panic(fmt.Sprintf("quorum: n = %d, must be >= 1", n))
	}
	if t < 1 {
		panic(fmt.Sprintf("quorum: t = %d, must be >= 1", t))
	}
	// Smallest integer > n(t-1)/t  ==  floor(n(t-1)/t) + 1.
	return n*(t-1)/t + 1
}

// MaxTolerable returns the largest t such that a one-round protocol using
// minimum-size quorums makes progress with n processes: by Corollary 8 this
// requires n > t², so the answer is ⌈√n⌉ - 1 computed exactly.
func MaxTolerable(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("quorum: n = %d, must be >= 1", n))
	}
	t := 0
	for (t+1)*(t+1) < n {
		t++
	}
	return t
}

// Progresses reports whether a one-round protocol with minimum quorums can
// complete detections when t of the n processes may be down: the quorum
// must be reachable from the n-t processes that remain, i.e.
// n - t >= MinSize(n, t). By Corollary 8 this is equivalent to n > t².
func Progresses(n, t int) bool {
	return n-t >= MinSize(n, t)
}

// Witness reports whether the family of quorum sets satisfies the Witness
// property W: the intersection of all quorum sets is nonempty (§4). The
// family maps each detection to the set of processes whose acknowledgements
// the detector collected. The reported witness is the smallest common
// member.
func Witness(quorums []Set) (model.ProcID, bool) {
	if len(quorums) == 0 {
		return model.None, true
	}
	words := len(quorums[0])
	for _, q := range quorums {
		if len(q) < words {
			words = len(q)
		}
	}
	for w := 0; w < words; w++ {
		common := ^uint64(0)
		for _, q := range quorums {
			common &= q[w]
		}
		if common != 0 {
			return model.ProcID(w*64 + bits.TrailingZeros64(common)), true
		}
	}
	return model.None, false
}

// SubfamiliesIntersect reports whether every subfamily of at most t of the
// given quorum sets has a nonempty intersection. This is the form of the
// Witness property that Theorem 7's quorum size actually guarantees — and
// all that sFS2b needs, because a failed-before cycle involves at most t
// processes (at most t crashes occur), hence at most t quorum sets.
//
// A family may have empty global intersection while every t-subfamily
// intersects; such a family is still safe.
func SubfamiliesIntersect(quorums []Set, t int) bool {
	return EmptySubfamily(quorums, t) == nil
}

// EmptySubfamily returns the indices, ascending, of at most t of the given
// quorum sets whose intersection is empty — the first such subfamily in
// index order among the sets the search keeps — or nil if every subfamily
// of at most t sets has a common member (SubfamiliesIntersect).
//
// The search never enumerates the C(len, t) index tuples. It drops every
// set that equals an earlier one or strictly contains another: swapping
// such a set for the one it repeats or contains can only shrink an
// intersection, so if any ≤ t sets have an empty intersection, some ≤ t of
// the kept sets (distinct, inclusion-minimal) do. It then walks the kept
// sets' index-ordered prefixes depth first to depth t, carrying the running
// intersection, and stops at the first empty one. A prefix is not extended
// when counting shows no extension can be empty: a set removes at most
// miss members — the most any kept set lacks of their union — so an
// intersection of more than r·miss members survives r more sets. That is
// Theorem 7's own argument, t(n-q) < n, and it settles a family of
// minimum-size quorums at the root. Worst case is still C(u, t) prefixes
// over the u kept sets, one AND per word each. The search works in a pooled
// state, and allocates only the subfamily it returns.
func EmptySubfamily(quorums []Set, t int) []int {
	if t <= 0 || len(quorums) <= 1 {
		return nil
	}
	if t > len(quorums) {
		t = len(quorums)
	}
	s := searchPool.Get().(*search)
	sub := s.run(quorums, t)
	s.fam = nil // the sets are the caller's: the pool must not keep them
	searchPool.Put(s)
	return sub
}

// run is EmptySubfamily's search for 1 <= t <= len(quorums), in s: whatever
// s holds on entry, the result is the same.
func (s *search) run(quorums []Set, t int) []int {
	s.fam, s.t, s.words = quorums, t, 0
	if cap(s.kept) < len(quorums) {
		s.kept = make([]int, 0, len(quorums)) // one array, not one per doubling
	}
	s.kept, s.path = minimal(s.kept[:0], quorums), append(s.path[:0], make([]int, t)...)
	for _, i := range s.kept {
		if len(quorums[i]) > s.words {
			s.words = len(quorums[i])
		}
	}
	// Frame d of the stack is the intersection of the d sets on the path;
	// frame 0, the empty path's, is the union of the kept sets.
	s.stack = append(s.stack[:0], make([]uint64, (t+1)*s.words)...)
	union, fewest := Set(s.stack[:s.words]), int(^uint(0)>>1)
	for _, i := range s.kept {
		for w, x := range quorums[i] {
			union[w] |= x
		}
		if n := quorums[i].Len(); n < fewest {
			fewest = n
		}
	}
	s.miss = union.Len() - fewest
	if n := s.descend(0, 0); n > 0 {
		return append([]int(nil), s.path[:n]...)
	}
	return nil
}

// minimal appends to kept the indices of the distinct, inclusion-minimal
// sets of fam in index order: a set is dropped if another is a strict subset
// of it or an earlier one equals it.
func minimal(kept []int, fam []Set) []int {
	for i, q := range fam {
		redundant := false
		for j, o := range fam {
			if j != i && o.SubsetOf(q) && (j < i || !q.SubsetOf(o)) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, i)
		}
	}
	return kept
}

// search is the state of one EmptySubfamily walk, drawn from searchPool and
// trusted in nothing but its capacity.
type search struct {
	fam   []Set
	kept  []int    // indices into fam the walk ranges over
	t     int      // depth bound
	words int      // frame width: the longest kept set
	miss  int      // the most members of the kept sets' union any kept set lacks
	stack []uint64 // t+1 frames of running intersections
	path  []int    // fam indices of the current prefix
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// descend extends the prefix of the given depth with each kept set from
// position from on, and returns the length of the first prefix whose
// intersection is empty (its indices are then in path), or 0 if none is.
func (s *search) descend(depth, from int) int {
	cur := s.stack[depth*s.words : (depth+1)*s.words]
	if Set(cur).Len() > (s.t-depth)*s.miss {
		return 0
	}
	next := s.stack[(depth+1)*s.words : (depth+2)*s.words]
	for k := from; k < len(s.kept); k++ {
		q := s.fam[s.kept[k]]
		var any uint64
		for w, x := range q {
			next[w] = cur[w] & x
			any |= next[w]
		}
		s.path[depth] = s.kept[k]
		if any == 0 {
			return depth + 1
		}
		if depth+1 < s.t {
			clear(next[len(q):]) // a short set has no members there
			if found := s.descend(depth+1, k+1); found > 0 {
				return found
			}
		}
	}
	return 0
}

// EmptyIntersectionFamily constructs the Theorem 7 adversarial family: t
// quorum sets over processes 1..n, each of size n - ⌈n/t⌉, such that every
// process is excluded from at least one set and the intersection of the
// family is therefore empty. It returns nil if no such family exists for
// the given sizes (i.e. when the per-set exclusion windows cannot cover all
// n processes).
//
// This is the construction from the proof of Theorem 7:
// Q_1 = P - {1..y}, Q_2 = P - {y+1..2y}, ..., with y = ⌈n/t⌉.
func EmptyIntersectionFamily(n, t int) []Set {
	if n < 1 || t < 1 {
		return nil
	}
	y := (n + t - 1) / t // ⌈n/t⌉, so that t windows of y processes cover 1..n
	if y >= n {
		// Each exclusion window swallows every process: quorums are empty,
		// and the intersection is trivially empty (only meaningful for t=1
		// or tiny n; callers treat it as "no interesting family").
		return nil
	}
	fam := make([]Set, 0, t)
	for i := 0; i < t; i++ {
		lo, hi := i*y+1, (i+1)*y
		if hi > n {
			// The paper's final window is {n-y+1 .. n}: shifted to keep the
			// excluded set at exactly y processes, overlapping its
			// predecessor rather than shrinking.
			lo, hi = n-y+1, n
		}
		q := make(Set, Words(n))
		for p := 1; p <= n; p++ {
			if p < lo || p > hi {
				q.Add(model.ProcID(p))
			}
		}
		fam = append(fam, q)
	}
	return fam
}
