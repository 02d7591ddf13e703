package model

import (
	"cmp"
	"slices"
)

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
	stride int      // n+1: one component per process id 0..n
	clocks VClock   // the slab every clock is carved from: event k's is clock(k)
	w      *scratch // a borrowed HB's workspace until its first question computes the clocks there
}

func (hb *HB) clock(k int) VClock { return hb.clocks[k*hb.stride:][:hb.stride] }

// NewHB computes vector clocks for every event of h in a single pass, all
// carved from one slab. h must be a valid history (ids in range, receives
// matched to earlier sends); NewHB does not re-validate. A borrowed index
// lends one (Index.HB) whose slab is its workspace's.
func NewHB(h History) *HB {
	hb := &HB{h: h}
	hb.compute()
	return hb
}

// compute fills the clocks: into fresh arrays, or into the workspace of a
// borrowed HB.
func (hb *HB) compute() {
	h, w := hb.h, hb.w
	n, sends := ProcID(0), 0
	for i := range h {
		e := &h[i]
		n = max(n, e.Proc)
		if e.Kind == KindSend {
			sends++
		}
	}
	hb.stride, hb.w = int(n)+1, nil
	var (
		last []int32  // last[p]: 1 + index of p's most recent event
		sent []sendAt // every send, by message id and then position
	)
	if w != nil {
		hb.clocks, last, sent = cut(&w.clocks, len(h)*hb.stride, true), cut(&w.last, hb.stride, true), w.sent[:0]
	} else {
		hb.clocks, last, sent = make(VClock, len(h)*hb.stride), make([]int32, hb.stride), make([]sendAt, 0, sends)
	}
	for k := range h {
		if h[k].Kind == KindSend {
			sent = append(sent, sendAt{h[k].Msg, int32(k + 1)})
		}
	}
	if w != nil {
		w.sent = sent
	}
	if !slices.IsSortedFunc(sent, bySend) { // a recorder numbers messages in send order
		slices.SortFunc(sent, bySend)
	}

	for k := range h {
		e := &h[k]
		c := hb.clock(k)
		if prev := last[e.Proc]; prev != 0 {
			copy(c, hb.clock(int(prev-1)))
		}
		if e.Kind == KindRecv {
			if s := sendOf(sent, e.Msg, k); s != 0 {
				c.Join(hb.clock(int(s - 1)))
			}
		}
		c[e.Proc]++
		last[e.Proc] = int32(k + 1)
	}
}

// sendAt is a send of message msg at position at-1. The table of a history's
// sends, sorted by message id, is what matches a receive to its send: a
// pooled map would be emptied at the cost of the most it ever held.
type sendAt struct {
	msg MsgID
	at  int32
}

// bySend orders sends by message id, then by position.
func bySend(a, b sendAt) int {
	if c := cmp.Compare(a.msg, b.msg); c != 0 {
		return c
	}
	return cmp.Compare(a.at, b.at)
}

// sendOf returns 1 + the position of the latest send of msg before position
// k, or 0 if there is none.
func sendOf(sends []sendAt, msg MsgID, k int) int32 {
	i, _ := slices.BinarySearchFunc(sends, sendAt{msg, int32(k + 1)}, bySend)
	if i == 0 || sends[i-1].msg != msg {
		return 0
	}
	return sends[i-1].at
}

// Before reports whether event at index a happens-before the event at index
// b (reflexively: Before(a, a) is true). Indexes are history positions.
func (hb *HB) Before(a, b int) bool {
	if a == b {
		return true
	}
	if hb.w != nil {
		hb.compute()
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
