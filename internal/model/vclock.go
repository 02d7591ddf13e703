package model

// VClock is a vector clock over the process id space 1..n. Index 0 is
// unused so that VClock[p] is the component of process p directly.
type VClock []int64

// NewVClock returns a zeroed vector clock for n processes.
func NewVClock(n int) VClock { return make(VClock, n+1) }

// Join sets v to the componentwise maximum of v and o.
func (v VClock) Join(o VClock) {
	for i := range v {
		if i < len(o) && o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// HB computes happens-before over a history. It is built once per history
// and answers queries in O(1) via vector clocks. The relation follows the
// paper's Definition (§2): program order, send-before-matching-receive, and
// transitive closure — and, like the paper's, it is reflexive.
type HB struct {
	h      History
	stride int    // n+1: one component per process id 0..n
	clocks VClock // the slab every clock is carved from: event k's is clock(k)
}

func (hb *HB) clock(k int) VClock { return hb.clocks[k*hb.stride:][:hb.stride] }

// NewHB computes vector clocks for every event of h in a single pass, all
// carved from one slab. h must be a valid history (ids in range, receives
// matched to earlier sends); NewHB does not re-validate.
func NewHB(h History) *HB {
	n, sends := ProcID(0), 0
	for i := range h {
		e := &h[i]
		n = max(n, e.Proc)
		if e.Kind == KindSend {
			sends++
		}
	}
	w := int(n) + 1
	hb := &HB{h: h, stride: w, clocks: make(VClock, len(h)*w)}
	last := make([]int32, w)               // last[p]: 1 + index of p's most recent event
	sendAt := make(map[MsgID]int32, sends) // message id -> 1 + index of its send

	for k := range h {
		e := &h[k]
		c := hb.clock(k)
		if prev := last[e.Proc]; prev != 0 {
			copy(c, hb.clock(int(prev-1)))
		}
		if e.Kind == KindRecv {
			if s := sendAt[e.Msg]; s != 0 {
				c.Join(hb.clock(int(s - 1)))
			}
		}
		c[e.Proc]++
		last[e.Proc] = int32(k + 1)
		if e.Kind == KindSend {
			sendAt[e.Msg] = int32(k + 1)
		}
	}
	return hb
}

// Before reports whether event at index a happens-before the event at index
// b (reflexively: Before(a, a) is true). Indexes are history positions.
func (hb *HB) Before(a, b int) bool {
	if a == b {
		return true
	}
	// Standard vector-clock test: a -> b iff VC(a)[proc(a)] <= VC(b)[proc(a)].
	pa := hb.h[a].Proc
	return hb.clock(a)[pa] <= hb.clock(b)[pa]
}

// BeforeBFS is a reference implementation of happens-before that walks the
// event DAG (program-order edges plus send→receive edges) instead of using
// vector clocks. It is exponentially slower and exists only as an oracle for
// property tests cross-checking HB.
func BeforeBFS(h History, a, b int) bool {
	if a == b {
		return true
	}
	if a > b {
		// happens-before implies history order (paper §2): a later event can
		// never happen-before an earlier one.
		return false
	}
	// Precompute edges: program-order successor and send->recv matching.
	next := make([]int, len(h)) // next[k]: index of the next event of h[k].Proc, or -1
	lastOf := make(map[ProcID]int)
	for k := range h {
		next[k] = -1
	}
	for k, e := range h {
		if prev, ok := lastOf[e.Proc]; ok {
			next[prev] = k
		}
		lastOf[e.Proc] = k
	}
	recvOf := make(map[MsgID]int)
	for k, e := range h {
		if e.Kind == KindRecv {
			recvOf[e.Msg] = k
		}
	}
	// BFS over indexes reachable from a via the relation.
	seen := make([]bool, len(h))
	queue := []int{a}
	seen[a] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == b {
			return true
		}
		if nk := next[cur]; nk >= 0 && !seen[nk] {
			seen[nk] = true
			queue = append(queue, nk)
		}
		if e := h[cur]; e.Kind == KindSend {
			if rk, ok := recvOf[e.Msg]; ok && !seen[rk] {
				seen[rk] = true
				queue = append(queue, rk)
			}
		}
	}
	return false
}
