package model

// Index is a summary of a history that answers in O(1) what the property
// checkers otherwise rescan the history for once per detection: the
// membership size, the detections in order, each process's first crash and
// whether it is down at the end, and which detection (if any) is
// failed_i(j). Tables are dense over the process ids and, for the (i, j)
// lookup, over the distinct detected processes only — a handful even at
// n = 10,000 — so the index stays small where an n × n table could not
// exist.
type Index struct {
	n     int
	dets  []Detection
	crash []int   // crash[p]: index of the first crash_p, or -1
	down  []bool  // down[p]: p is crashed when the history ends
	col   []int32 // col[j]: 1 + column of detected process j in first, 0 if never detected
	first []int32 // first[c*(n+1)+i]: 1 + position in dets of the first failed_i(j), j in column c
}

// NewIndex indexes h. Process ids must be non-negative, as Validate
// requires.
func NewIndex(h History) *Index {
	n := h.Processes()
	x := &Index{
		n:     n,
		crash: make([]int, n+1),
		down:  make([]bool, n+1),
		col:   make([]int32, n+1),
	}
	for p := range x.crash {
		x.crash[p] = -1
	}
	for i, e := range h {
		switch {
		case e.Kind == KindCrash:
			if x.crash[e.Proc] < 0 {
				x.crash[e.Proc] = i
			}
			x.down[e.Proc] = true
		case e.Kind == KindInternal && e.Tag == TagRestart:
			x.down[e.Proc] = false
		case e.Kind == KindFailed:
			if x.col[e.Target] == 0 {
				x.first = append(x.first, make([]int32, n+1)...)
				x.col[e.Target] = int32(len(x.first) / (n + 1))
			}
			if slot := &x.first[int(x.col[e.Target]-1)*(n+1)+int(e.Proc)]; *slot == 0 {
				*slot = int32(len(x.dets) + 1)
			}
			x.dets = append(x.dets, Detection{Detector: e.Proc, Detected: e.Target, Index: i})
		}
	}
	return x
}

// Processes returns the largest process id in the history (History.Processes).
func (x *Index) Processes() int { return x.n }

// Detections returns every failed_i(j) event in history order
// (History.Detections). The slice is shared, not a copy.
func (x *Index) Detections() []Detection { return x.dets }

// CrashIndex returns the index of the first crash_p, or -1 if p never
// crashes or lies outside the history's id space (History.CrashIndex).
func (x *Index) CrashIndex(p ProcID) int {
	if p < 0 || int(p) > x.n {
		return -1
	}
	return x.crash[p]
}

// DownAtEnd reports whether p is crashed when the history ends: crashed
// and not restarted since (History.DownAtEnd).
func (x *Index) DownAtEnd(p ProcID) bool {
	return p >= 0 && int(p) <= x.n && x.down[p]
}

// Detection returns the position in Detections of the first failed_i(j),
// or -1 if i never detects j.
func (x *Index) Detection(i, j ProcID) int {
	if i < 0 || int(i) > x.n || j < 0 || int(j) > x.n || x.col[j] == 0 {
		return -1
	}
	return int(x.first[int(x.col[j]-1)*(x.n+1)+int(i)]) - 1
}
