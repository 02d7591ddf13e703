package quorum

import (
	"failstop/internal/model"
	"failstop/internal/topo"
)

// Pool is one process's quorum membership: the processes whose SUSP
// testimony counts toward its detections, and the Theorem 7 minimum over
// that pool. Under the paper's complete graph the pool is all n processes
// and MinSize is the familiar n(t-1)/t + 1. Under a partial topology
// (internal/topo) the pool is the process's neighborhood plus itself, and
// quorums complete over more than m(t-1)/t of the m pool members — the
// partial-quorum reading that makes N in the 10⁴–10⁶ range simulable.
//
// The intersection guarantee is correspondingly scoped: two quorums drawn
// from the same pool intersect in a correct pool member as long as at most
// t of the pool fail, which is the Witness property the §5 safety argument
// needs for the failed-before cycles a neighborhood can witness. Crossing
// neighborhoods, detections rely on the topology staying connected — the
// same eventual-connectivity assumption FS1 already makes under lossy
// links.
type Pool struct {
	top  *topo.Topology // nil: the global pool
	self model.ProcID
	n    int
	min  int
}

// PoolOf resolves process self's quorum pool under topology top (nil means
// the complete graph) with n processes tolerating t failures.
func PoolOf(top *topo.Topology, self model.ProcID, n, t int) Pool {
	p := Pool{self: self, n: n}
	if top != nil {
		p.top = top
		p.min = MinSize(top.Degree(self)+1, t)
	} else {
		p.min = MinSize(n, t)
	}
	return p
}

// Size returns the pool's member count (self included).
func (p Pool) Size() int {
	if p.top == nil {
		return p.n
	}
	return p.top.Degree(p.self) + 1
}

// MinSize returns the Theorem 7 minimum quorum size over this pool.
func (p Pool) MinSize() int { return p.min }

// Counts reports whether testimony from q counts toward this pool's
// quorums. Self always counts; under the global pool every process does.
func (p Pool) Counts(q model.ProcID) bool {
	if q == p.self {
		return true
	}
	if p.top == nil {
		return q >= 1 && int(q) <= p.n
	}
	return p.top.Contains(p.self, q)
}
