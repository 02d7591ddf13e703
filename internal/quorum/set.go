package quorum

import (
	"fmt"
	"math/bits"

	"failstop/internal/model"
)

// Set is a set of process ids held as a bitset: p is a member iff bit p%64
// of word p/64 is set. It is the one representation of a quorum set in this
// repository — detectors' snapshots, the checker's trace reconstruction and
// the Theorem 7 adversarial family all speak it — so that intersecting two
// sets is a word-wise AND and the smallest common member a trailing-zero
// count. The zero value is the empty set, and missing words read as zero:
// a Set sized for n = 10,000 and one grown by Add interoperate.
type Set []uint64

// Words returns how many words a Set needs to hold the ids 0..n.
func Words(n int) int { return n/64 + 1 }

// SetOf returns the set of the given process ids.
func SetOf(ps ...model.ProcID) Set {
	var s Set
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// Add inserts p, growing the set if p lies beyond its last word. It panics
// on a negative id, which no valid history contains.
func (s *Set) Add(p model.ProcID) {
	if p < 0 {
		panic("quorum: negative process id " + p.String())
	}
	w := int(p) / 64
	if w >= len(*s) {
		*s = append(*s, make(Set, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (uint(p) % 64)
}

// Has reports whether p is a member.
func (s Set) Has(p model.ProcID) bool {
	w := int(p) / 64
	return p >= 0 && w < len(s) && s[w]&(1<<(uint(p)%64)) != 0
}

// Len returns the number of members.
func (s Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members returns the members in ascending order.
func (s Set) Members() []model.ProcID {
	out := make([]model.ProcID, 0, s.Len())
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, model.ProcID(i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// SubsetOf reports whether every member of s is a member of o.
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s {
		if i < len(o) {
			w &^= o[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// String renders the members in ascending order, as "[1 2 5]".
func (s Set) String() string { return fmt.Sprint(s.Members()) }
