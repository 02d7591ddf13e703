package quorum

import (
	"fmt"
	"math/rand"
	"testing"

	"failstop/internal/model"
)

// exhaustiveSubfamiliesIntersect is the enumerator SubfamiliesIntersect
// replaced, kept as the reference the pruned search is tested against:
// every C(len, t) index tuple, each intersected from scratch by membership
// probes, no pruning and no shared state with the bitset search.
func exhaustiveSubfamiliesIntersect(fam []Set, t int) bool {
	if t <= 0 || len(fam) <= 1 {
		return true
	}
	if t > len(fam) {
		t = len(fam)
	}
	idx := make([]int, t)
	var rec func(pos, start int) bool
	rec = func(pos, start int) bool {
		if pos == t {
			return commonMember(fam, idx)
		}
		for i := start; i <= len(fam)-(t-pos); i++ {
			idx[pos] = i
			if !rec(pos+1, i+1) {
				return false
			}
		}
		return true
	}
	return rec(0, 0)
}

// commonMember reports whether the sets of fam at the given indices share
// a member.
func commonMember(fam []Set, idx []int) bool {
	for _, w := range fam[idx[0]].Members() {
		inAll := true
		for _, i := range idx[1:] {
			inAll = inAll && fam[i].Has(w)
		}
		if inAll {
			return true
		}
	}
	return false
}

// checkAgainstOracle compares both entry points of the search with the
// exhaustive enumerator on one (family, t) and validates the subfamily
// EmptySubfamily names.
func checkAgainstOracle(t *testing.T, fam []Set, tt int) {
	t.Helper()
	want := exhaustiveSubfamiliesIntersect(fam, tt)
	if got := SubfamiliesIntersect(fam, tt); got != want {
		t.Fatalf("SubfamiliesIntersect(%v, %d) = %v, exhaustive enumerator says %v", fam, tt, got, want)
	}
	sub := EmptySubfamily(fam, tt)
	if (sub == nil) != want {
		t.Fatalf("EmptySubfamily(%v, %d) = %v, exhaustive enumerator says intersect=%v", fam, tt, sub, want)
	}
	if sub == nil {
		return
	}
	if len(sub) == 0 || len(sub) > tt {
		t.Fatalf("EmptySubfamily(%v, %d) names %d sets", fam, tt, len(sub))
	}
	for i, k := range sub {
		if k < 0 || k >= len(fam) || (i > 0 && k <= sub[i-1]) {
			t.Fatalf("EmptySubfamily(%v, %d) = %v: indices must ascend within the family", fam, tt, sub)
		}
	}
	if commonMember(fam, sub) {
		t.Fatalf("EmptySubfamily(%v, %d) = %v, but those sets share a member", fam, tt, sub)
	}
}

// randomFamily draws a family that exercises every pruning rule: random
// sets over an id space that may span one, two or three words, plus
// duplicates, strict subsets and supersets of earlier sets, and empty sets.
func randomFamily(rng *rand.Rand) []Set {
	span := []int{6, 12, 70, 140, 200}[rng.Intn(5)] // ids 1..span: > 64 and > 128 included
	fam := make([]Set, 0, 9)
	for len(fam) < cap(fam) && (len(fam) < 2 || rng.Intn(8) > 0) {
		var s Set
		switch kind := rng.Intn(10); {
		case kind == 0 && len(fam) > 0: // duplicate
			s = append(s, fam[rng.Intn(len(fam))]...)
		case kind == 1 && len(fam) > 0: // strict-or-equal subset
			for _, p := range fam[rng.Intn(len(fam))].Members() {
				if rng.Intn(3) > 0 {
					s.Add(p)
				}
			}
		case kind == 2 && len(fam) > 0: // superset
			s = append(s, fam[rng.Intn(len(fam))]...)
			s.Add(model.ProcID(1 + rng.Intn(span)))
		case kind == 3: // empty, sometimes with allocated words
			s = make(Set, rng.Intn(3))
		default:
			// Dense enough that intersections survive a few levels.
			for p := 1; p <= span; p++ {
				if rng.Intn(4) > 0 {
					s.Add(model.ProcID(p))
				}
			}
			if rng.Intn(3) == 0 { // a sparse one, so the answer varies
				s = SetOf(model.ProcID(1+rng.Intn(span)), model.ProcID(1+rng.Intn(span)))
			}
		}
		fam = append(fam, s)
	}
	return fam
}

// Property: on seeded random families the pruned search and the exhaustive
// enumerator agree, for every depth bound from the degenerate ones (0, 1)
// through the family size and past it.
func TestSubfamiliesIntersectMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	verdicts := map[bool]int{}
	for round := 0; round < 600; round++ {
		fam := randomFamily(rng)
		for _, tt := range []int{0, 1, 2, 3, len(fam) - 1, len(fam), len(fam) + 2} {
			checkAgainstOracle(t, fam, tt)
			verdicts[SubfamiliesIntersect(fam, tt)]++
		}
	}
	if verdicts[true] < 200 || verdicts[false] < 200 {
		t.Errorf("generator is lopsided: %d intersecting, %d not — the property test would prove little", verdicts[true], verdicts[false])
	}
}

// Semantics the search must keep from the enumerator at the edges.
func TestSubfamiliesIntersectEdges(t *testing.T) {
	empty := Set{}
	for _, tc := range []struct {
		name string
		fam  []Set
		t    int
		want bool
	}{
		{"one empty set is a family of one", []Set{empty}, 3, true},
		{"two empty sets fail at t=1", []Set{empty, nil}, 1, false},
		{"an empty set among others fails at t=1", []Set{SetOf(1, 2), empty, SetOf(2)}, 1, false},
		{"duplicates count once", []Set{SetOf(1, 2), SetOf(1, 2), SetOf(2, 3), SetOf(2, 3)}, 4, true},
		{"duplicates of a disjoint pair", []Set{SetOf(1), SetOf(1), SetOf(2)}, 2, false},
		{"a superset never rescues its subset", []Set{SetOf(1), SetOf(1, 2, 3), SetOf(2)}, 2, false},
		{"t beyond the family clamps", []Set{SetOf(1, 2), SetOf(2, 3), SetOf(3, 1)}, 9, false},
		{"negative t", []Set{SetOf(1), SetOf(2)}, -1, true},
		{"ids past two words", []Set{SetOf(130, 190), SetOf(190, 5), SetOf(5, 130)}, 2, true},
		{"ids past two words, empty triple", []Set{SetOf(130, 190), SetOf(190, 5), SetOf(5, 130)}, 3, false},
		{"sets of different lengths", []Set{SetOf(1, 130), SetOf(1)}, 2, true},
	} {
		if got := SubfamiliesIntersect(tc.fam, tc.t); got != tc.want {
			t.Errorf("%s: SubfamiliesIntersect = %v, want %v", tc.name, got, tc.want)
		}
		checkAgainstOracle(t, tc.fam, tc.t)
	}
}

// The offending subfamily is reported by index, first in index order.
func TestEmptySubfamilyNamesTheOffenders(t *testing.T) {
	fam := EmptyIntersectionFamily(9, 3)
	if sub := EmptySubfamily(fam, 3); fmt.Sprint(sub) != "[0 1 2]" {
		t.Errorf("EmptySubfamily(Theorem 7 family for n=9 t=3, 3) = %v, want [0 1 2]", sub)
	}
	if sub := EmptySubfamily(fam, 2); sub != nil {
		t.Errorf("every pair of the n=9 t=3 family intersects, got %v", sub)
	}
	// {1} ∩ {2} is the first empty pair; the superset at 0 and the
	// duplicate at 3 are never named.
	fam = []Set{SetOf(1, 2, 3), SetOf(1), SetOf(2), SetOf(1), SetOf(3)}
	if sub := EmptySubfamily(fam, 2); fmt.Sprint(sub) != "[1 2]" {
		t.Errorf("EmptySubfamily = %v, want [1 2]", sub)
	}
}

// intersectingFamily returns d distinct three-member sets that all contain
// process 1: every subfamily intersects, no set contains another, and the
// counting bound never applies, so the search walks all C(d, t) prefixes.
func intersectingFamily(d int) []Set {
	fam := make([]Set, 0, d)
	for a := 2; len(fam) < d; a++ {
		for b := 2; b < a && len(fam) < d; b++ {
			fam = append(fam, SetOf(1, model.ProcID(a), model.ProcID(b)))
		}
	}
	return fam
}

// The search allocates a fixed number of slices: its allocation count must
// not depend on how many prefixes it walks. d=51 and d=114 are the
// detection counts of an n=20 and an n=40 run at t=3 (20,825 and 240,464
// tuples for the enumerator it replaced, which allocated per tuple).
func TestSubfamiliesIntersectAllocsIndependentOfSearchSize(t *testing.T) {
	small, large := intersectingFamily(51), intersectingFamily(114)
	for _, fam := range [][]Set{small, large} {
		if !SubfamiliesIntersect(fam, 3) || !exhaustiveSubfamiliesIntersect(fam[:12], 3) {
			t.Fatal("intersectingFamily must intersect")
		}
	}
	a := testing.AllocsPerRun(10, func() { SubfamiliesIntersect(small, 3) })
	b := testing.AllocsPerRun(10, func() { SubfamiliesIntersect(large, 3) })
	t.Logf("allocs: d=51 %.0f, d=114 %.0f", a, b)
	if b-a > 2 || a > 8 {
		t.Errorf("SubfamiliesIntersect allocated %.0f times at d=51 and %.0f at d=114; want a small constant", a, b)
	}
}

// familyFromBytes decodes fuzz input: the first byte picks t, 0xFF starts a
// new set, any other byte is a member id (so ids reach 254, past three
// words). At most 9 sets, so the exhaustive oracle stays cheap.
func familyFromBytes(data []byte) ([]Set, int) {
	if len(data) == 0 {
		return nil, 0
	}
	tt := int(data[0]%12) - 1
	fam := []Set{nil}
	for _, b := range data[1:] {
		if b != 0xFF {
			fam[len(fam)-1].Add(model.ProcID(b))
		} else if len(fam) < 9 {
			fam = append(fam, nil)
		}
	}
	return fam, tt
}

// FuzzSubfamiliesIntersect checks the pruned search against the exhaustive
// enumerator on arbitrary families. The committed corpus under testdata/
// runs as a plain test in CI.
func FuzzSubfamiliesIntersect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0xFF, 2, 3, 0xFF, 3, 1})          // pairwise, empty triple
	f.Add([]byte{4, 1, 2, 0xFF, 2, 3, 0xFF, 3, 1})          // t = 3
	f.Add([]byte{2, 0xFF, 0xFF})                            // empty sets only
	f.Add([]byte{3, 5, 0xFF, 5, 0xFF, 5, 6, 0xFF, 6})       // duplicates, nesting, disjoint
	f.Add([]byte{5, 130, 190, 0xFF, 190, 5, 0xFF, 5, 130})  // three words
	f.Add([]byte{11, 1, 0xFF, 1, 2, 0xFF, 1, 2, 3})         // t past the family, a chain
	f.Add([]byte{0, 1, 0xFF, 2})                            // t = -1
	f.Add([]byte{3, 1, 2, 3, 4, 0xFF, 3, 4, 5, 6, 0xFF, 1}) // counting bound on, then off
	f.Fuzz(func(t *testing.T, data []byte) {
		fam, tt := familyFromBytes(data)
		checkAgainstOracle(t, fam, tt)
	})
}
