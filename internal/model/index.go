package model

import "slices"

// MaxProcs is the largest process id a history may name: the readers'
// tables are dense over the ids, so Validate's proc-id rule and the scan
// enforce a bound — a hundred times the largest membership any workload
// here runs — and a trace naming process 2⁴⁰ is an invalid history, not an
// allocation.
const MaxProcs = 1 << 20

// Index is a summary of a history that answers in O(1) what the property
// checkers otherwise rescan the history for once per detection: the
// membership size, the detections in order, each process's first crash and
// whether it is down at the end, and which detection (if any) is
// failed_i(j). Tables are dense over the process ids — at most MaxProcs —
// and, for the (i, j) lookup, over the distinct detected processes only — a
// handful even at n = 10,000 — so the index stays small where an n × n table
// could not exist. A history that names a process outside 0..MaxProcs is not
// indexed: Err says so and every lookup answers "none".
type Index struct {
	n     int
	err   error
	dets  []Detection
	crash []int32 // crash[p]: 1 + index of the first crash_p, 0 if p never crashes
	col   []int32 // col[j]: 1 + column of detected process j in first, 0 if never detected
	down  []bool  // down[p]: p is crashed when the history ends
	first []int32 // first[c*(n+1)+i]: 1 + position in dets of the first failed_i(j), j in column c
}

// Scan is one reading of a recorded run: what the property checkers want
// from the full history, taken in two walks over it (one to size the
// tables, one to fill them) however many properties are then read off.
type Scan struct {
	// Abstract is the model-level history: the run without its transport
	// traffic, renumbered, at its exact length (History.DropTags).
	Abstract History
	// Index indexes Abstract; its detections are, in order, the full run's.
	Index *Index
	// Quorums[k*Words:(k+1)*Words] is the quorum set Q_{i,j} of detection k
	// (Definition 5) as a bitset over process ids: i itself plus every
	// process from which i received a suspTag message about j before
	// executing failed_i(j).
	Quorums []uint64
	Words   int
}

// NewScan reads the recorded run h, dropping sends and receives that carry
// a transport tag and reconstructing quorum sets from receives of suspTag.
// If h names a process outside 0..MaxProcs the result is empty and
// Index.Err says where.
func NewScan(h History, suspTag string, transport ...string) *Scan {
	return scan(h, transport, suspTag, true, true)
}

// NewIndex indexes h as it stands (see Index.Err for ids out of range).
func NewIndex(h History) *Index { return scan(h, nil, "", false, false).Index }

// transport reports whether e is a send or receive carrying one of tags.
func (e *Event) transport(tags []string) bool {
	return (e.Kind == KindSend || e.Kind == KindRecv) && slices.Contains(tags, e.Tag)
}

// scan is the one walk every reader shares: where "what is transport
// traffic", "what is a detection" and "what has i heard about j" are
// written. abstract asks for the kept events as a history (the index then
// holds positions in it, otherwise in h), quorums for the quorum rows.
func scan(h History, drop []string, suspTag string, abstract, quorums bool) *Scan {
	// Size: the largest id anywhere (quorum rows name senders of dropped
	// traffic), the largest kept (the abstract history's membership), and
	// how many events and detections are kept.
	var all, kept ProcID
	nkeep, nd := 0, 0
	for i := range h {
		e := &h[i]
		if e.outOfRange() {
			return &Scan{Index: &Index{err: procIDViolation(i, e)}}
		}
		top := max(e.Proc, e.Peer, e.Target)
		all = max(all, top)
		if e.transport(drop) {
			continue
		}
		kept = max(kept, top)
		nkeep++
		if e.Kind == KindFailed {
			nd++
		}
	}

	n := int(kept)
	tab := make([]int32, 2*(n+1))
	x := &Index{n: n, crash: tab[:n+1], col: tab[n+1:], down: make([]bool, n+1), dets: make([]Detection, 0, nd)}
	s := &Scan{Index: x}
	if abstract {
		s.Abstract = make(History, 0, nkeep)
	}
	// What i has heard about j accumulates in a row of heard, found through
	// hcol[j] (1 + j's block of hrow) and hrow[block*stride+i] (1 + the row):
	// blocks and rows are added when a target or a pair is first named.
	var hcol, hrow []int32
	var heard []uint64
	stride, words := int(all)+1, int(all)/64+1
	if quorums {
		hcol = make([]int32, stride)
		s.Quorums, s.Words = make([]uint64, nd*words), words
	}

	for i := range h {
		e := &h[i]
		if quorums && e.Kind == KindRecv && e.Tag == suspTag && e.Target != None {
			if hcol[e.Target] == 0 {
				hrow = append(hrow, make([]int32, stride)...)
				hcol[e.Target] = int32(len(hrow) / stride)
			}
			slot := &hrow[int(hcol[e.Target]-1)*stride+int(e.Proc)]
			if *slot == 0 {
				heard = append(heard, make([]uint64, words)...)
				*slot = int32(len(heard) / words)
			}
			heard[(int(*slot)-1)*words+int(e.Peer)/64] |= 1 << (uint(e.Peer) % 64)
		}
		if e.transport(drop) {
			continue
		}
		pos := i
		if abstract {
			pos = len(s.Abstract)
			s.Abstract = append(s.Abstract, *e)
			s.Abstract[pos].Seq = pos
		}
		switch {
		case e.Kind == KindCrash:
			if x.crash[e.Proc] == 0 {
				x.crash[e.Proc] = int32(pos + 1)
			}
			x.down[e.Proc] = true
		case e.Kind == KindInternal && e.Tag == TagRestart:
			x.down[e.Proc] = false
		case e.Kind == KindFailed:
			if quorums {
				// The quorum set is what has been heard so far, copied out.
				q := s.Quorums[len(x.dets)*words:][:words]
				if c := hcol[e.Target]; c != 0 {
					if r := hrow[int(c-1)*stride+int(e.Proc)]; r != 0 {
						copy(q, heard[int(r-1)*words:][:words])
					}
				}
				q[int(e.Proc)/64] |= 1 << (uint(e.Proc) % 64)
			}
			if x.col[e.Target] == 0 {
				x.first = append(x.first, make([]int32, n+1)...)
				x.col[e.Target] = int32(len(x.first) / (n + 1))
			}
			if slot := &x.first[int(x.col[e.Target]-1)*(n+1)+int(e.Proc)]; *slot == 0 {
				*slot = int32(len(x.dets) + 1)
			}
			x.dets = append(x.dets, Detection{Detector: e.Proc, Detected: e.Target, Index: pos})
		}
	}
	return s
}

// Err is nil for an indexed history, or the proc-id violation — as Validate
// reports it — that kept the history from being indexed.
func (x *Index) Err() error { return x.err }

// Processes returns the largest process id in the history (History.Processes).
func (x *Index) Processes() int { return x.n }

// Detections returns every failed_i(j) event in history order
// (History.Detections). The slice is shared, not a copy.
func (x *Index) Detections() []Detection { return x.dets }

// CrashIndex returns the index of the first crash_p, or -1 if p never
// crashes or lies outside the history's id space (History.CrashIndex).
func (x *Index) CrashIndex(p ProcID) int {
	if p < 0 || int(p) >= len(x.crash) {
		return -1
	}
	return int(x.crash[p]) - 1
}

// DownAtEnd reports whether p is crashed when the history ends: crashed
// and not restarted since (History.DownAtEnd).
func (x *Index) DownAtEnd(p ProcID) bool {
	return p >= 0 && int(p) < len(x.down) && x.down[p]
}

// Detection returns the position in Detections of the first failed_i(j),
// or -1 if i never detects j.
func (x *Index) Detection(i, j ProcID) int {
	if i < 0 || int(i) > x.n || j < 0 || !x.detected(j) {
		return -1
	}
	return int(x.first[int(x.col[j]-1)*(x.n+1)+int(i)]) - 1
}

// detected reports whether some failed_i(j) occurs: whether j has a column.
func (x *Index) detected(j ProcID) bool { return int(j) < len(x.col) && x.col[j] != 0 }
