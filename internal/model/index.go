package model

import (
	"errors"
	"slices"
	"sync"
)

// MaxProcs is the largest process id a history may name: the readers'
// tables are dense over the ids, so Validate's proc-id rule and the scan
// enforce a bound — a hundred times the largest membership any workload
// here runs — and a trace naming process 2²⁰+1 is an invalid history, not an
// allocation. An id past a ProcID's 32 bits, such as 2⁴⁰, does not decode.
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
	crash []int32  // crash[p]: 1 + index of the first crash_p, 0 if p never crashes
	col   []int32  // col[j]: 1 + column of detected process j in first, 0 if never detected
	down  []bool   // down[p]: p is crashed when the history ends
	first []int32  // first[c*(n+1)+i]: 1 + position in dets of the first failed_i(j), j in column c
	w     *scratch // a borrowed index's workspace, where its readers' tables come from too; nil if the index is its own
}

// Scan is one reading of a recorded run: what the property checkers want
// from the full history, taken in one walk over it however many properties
// are then read off, and cut to size once the walk knows the sizes — into
// arrays of its own (NewScan), or into the pooled workspace the walk ran in
// for a reading that dies with its callback (ReadScan).
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
	return scan(h, transport, suspTag, readAbstract|readQuorums)
}

// NewIndex indexes h as it stands (see Index.Err for ids out of range).
func NewIndex(h History) *Index { return scan(h, nil, "", 0).Index }

// ReadScan calls f with the reading NewScan(h, suspTag, transport...)
// returns, borrowed: it lives in the pooled workspace the walk ran in and is
// valid only until f returns. Its Index answers FailedBefore().Cycle() and
// lends happens-before over the Abstract (HB) in the same workspace; a
// caller that keeps what it reads uses NewScan. After f the Scan is empty,
// its Index reports an error and the HB panics — until another reading
// reuses the workspace, whose tables they would then be reading.
func ReadScan(h History, suspTag string, transport []string, f func(*Scan)) {
	borrow(h, transport, suspTag, readAbstract|readQuorums, f)
}

// ReadIndex is ReadScan for the reading NewIndex(h) returns: f gets h's
// index, borrowed, and valid only until it returns.
func ReadIndex(h History, f func(*Index)) {
	borrow(h, nil, "", 0, func(s *Scan) { f(s.Index) })
}

// borrow is the walk, in a pooled scratch, lending f the reading.
func borrow(h History, drop []string, suspTag string, want int, f func(*Scan)) {
	w := scratchPool.Get().(*scratch)
	f(w.read(h, drop, suspTag, want, true))
	w.end()
	scratchPool.Put(w)
}

// HB is happens-before over the history a borrowed index indexes, borrowed
// with it: it computes its clocks at its first question, in the reading's
// workspace (so, unlike NewHB's, it is not for concurrent use), and dies
// with the reading. An index of its own, or one that reports an error, has
// none: HB returns nil.
func (x *Index) HB() *HB {
	if x.w == nil {
		return nil
	}
	return &x.w.hb
}

// errEnded is what a borrowed index reports once its callback has returned.
var errEnded = errors.New("model: a borrowed reading was read after its callback returned")

// end takes the borrowed reading back: a Scan, Index or HB its callback
// kept now reads as empty, reports errEnded or panics, and points at
// nothing of its history.
func (w *scratch) end() {
	w.out, w.idx, w.hb = Scan{}, Index{err: errEnded}, HB{}
}

// What a walk reads beyond the index every reading gets.
const (
	readAbstract = 1 << iota // the kept events as a history; the index then holds positions in it, otherwise in h
	readQuorums              // each detection's quorum row
	readLatency              // each detection's latency row (Latencies), left in the scratch's lat
)

// scratch is what one scan works in: tables indexed by process id, widened
// as ids are named, and lists grown as the history is read. A scan draws one
// from scratchPool, trusts nothing in it (reset) and copies what it found
// out at exact size before putting it back — into fresh arrays, or, for a
// borrowed reading, into the scratch's own, which the reading's callback
// sees and then gives back with the scratch.
type scratch struct {
	ids   int         // width of the id tables: a power of two, 64 or more, above every id read so far
	crash []int32     // [ids] Index.crash
	down  []bool      // [ids] Index.down
	hcol  []int32     // [ids] 1 + target j's block of hrow (and psusp), 0 before j is named
	hrow  []int32     // [block][ids] 1 + the row of heard holding what i has heard about j
	heard []uint64    // [row][ids/64] senders as a bitset; a detection's quorum set is a row of its own
	qrow  []int32     // the row of heard that is detection k's quorum set
	keep  []int32     // positions in h of the events kept
	dets  []Detection // Index.dets

	// Read for latency only, and empty otherwise; positions are in h.
	fsusp  []int32   // [ids] 1 + position of the first suspect of j
	lcrash []int32   // [ids] 1 + position of p's last crash
	psusp  []int32   // [block][ids] 1 + position of i's first suspect(i, j)
	hlast  []int32   // [row of heard] 1 + position of the last suspTag receive heard in it
	lat    []Latency // a row per detection

	// A borrowed reading, cut to size, and what its readers work in.
	out    Scan
	idx    Index
	hb     HB
	abs    History     // out.Abstract
	quo    []uint64    // out.Quorums
	itab   []int32     // idx.crash and idx.col
	idown  []bool      // idx.down
	idets  []Detection // idx.dets
	ifirst []int32     // idx.first
	colors []int32     // FailedBefore.Cycle's colours and parents
	clocks VClock      // hb.clocks
	last   []int32     // the clock computation's latest event per process
	sent   []sendAt    // the clock computation's sends, sorted
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grown returns s at length n, zeroed past its old length: what lies between
// a pooled slice's length and its capacity is another scan's.
func grown[T any](s []T, n int) []T {
	old := len(s)
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// cut returns n zeroed elements: a fresh array for a reading its caller
// keeps, *pool's for a borrowed one.
func cut[S ~[]T, T any](pool *S, n int, borrow bool) S {
	if !borrow {
		return make(S, n)
	}
	*pool = grown((*pool)[:0], n)
	return *pool
}

// restride returns the rows of s, each from wide, at to wide, zero-filled.
func restride[T any](s []T, from, to int) []T {
	rows := len(s) / from
	s = grown(s, rows*to)
	for r := rows - 1; r >= 0; r-- { // last row first: a row moves up, past no row still to move
		copy(s[r*to:], s[r*from:(r+1)*from])
		clear(s[r*to+from : (r+1)*to])
	}
	return s
}

func (w *scratch) reset(lat bool) {
	*w = scratch{ids: 64, crash: grown(w.crash[:0], 64), down: grown(w.down[:0], 64), hcol: grown(w.hcol[:0], 64),
		hrow: w.hrow[:0], heard: w.heard[:0], qrow: w.qrow[:0], keep: w.keep[:0], dets: w.dets[:0],
		fsusp: w.fsusp[:0], lcrash: w.lcrash[:0], psusp: w.psusp[:0], hlast: w.hlast[:0], lat: w.lat[:0],
		abs: w.abs[:0], quo: w.quo[:0], itab: w.itab[:0], idown: w.idown[:0], idets: w.idets[:0], ifirst: w.ifirst[:0],
		colors: w.colors[:0], clocks: w.clocks[:0], last: w.last[:0], sent: w.sent[:0]}
	if lat {
		w.fsusp, w.lcrash = grown(w.fsusp, 64), grown(w.lcrash, 64)
	}
}

// widen makes room for process id top in every id-indexed table.
func (w *scratch) widen(top int, lat bool) {
	old := w.ids
	for w.ids <= top {
		w.ids *= 2
	}
	w.crash, w.down, w.hcol = grown(w.crash, w.ids), grown(w.down, w.ids), grown(w.hcol, w.ids)
	w.hrow, w.heard = restride(w.hrow, old, w.ids), restride(w.heard, old/64, w.ids/64)
	if lat {
		w.fsusp, w.lcrash, w.psusp = grown(w.fsusp, w.ids), grown(w.lcrash, w.ids), restride(w.psusp, old, w.ids)
	}
}

// block adds target j's block of the per-pair tables: hrow, and psusp when
// the walk reads latency.
func (w *scratch) block(j ProcID, lat bool) {
	w.hrow = grown(w.hrow, len(w.hrow)+w.ids)
	if lat {
		w.psusp = grown(w.psusp, len(w.psusp)+w.ids)
	}
	w.hcol[j] = int32(len(w.hrow) / w.ids)
}

// Classes of a send's or receive's tag.
const (
	tagDropped = 1 << iota // transport traffic: the event is not in the abstract history
	tagSusp                // a receive of it is i hearing from Peer that Target is suspected
)

func tagClass(tag string, drop []string, suspTag string, quorums bool) (c uint8) {
	if slices.Contains(drop, tag) {
		c = tagDropped
	}
	if quorums && tag == suspTag {
		c |= tagSusp
	}
	return c
}

// scan is the one walk every reader shares: where "what is transport
// traffic", "what is a detection" and "what has i heard about j" are
// written. want says what is read beyond the index (readAbstract, ...).
func scan(h History, drop []string, suspTag string, want int) *Scan {
	w := scratchPool.Get().(*scratch)
	s := w.scan(h, drop, suspTag, want)
	scratchPool.Put(w)
	return s
}

// scan is the walk, in w, read into arrays of the caller's: whatever w
// holds on entry, the result is the same.
func (w *scratch) scan(h History, drop []string, suspTag string, want int) *Scan {
	return w.read(h, drop, suspTag, want, false)
}

// read is the walk, in w, and its reading: owned, or borrowed — then the
// Scan, its Index and all they hold are w's.
func (w *scratch) read(h History, drop []string, suspTag string, want int, borrow bool) *Scan {
	abstract, quorums, lat := want&readAbstract != 0, want&readQuorums != 0, want&readLatency != 0
	w.reset(lat)
	// The largest id anywhere (quorum rows name senders of dropped traffic)
	// and the largest kept (the abstract history's membership).
	var all, kept ProcID
	// Runs of one tag are the rule, and a tag is classified when it changes.
	tag, class := "", tagClass("", drop, suspTag, quorums || lat)
	ids, words := w.ids, w.ids/64
	for i := range h {
		e := &h[i]
		top := max(e.Proc, e.Peer, e.Target)
		if top > all || e.Proc|e.Peer|e.Target < 0 {
			if e.outOfRange() {
				s, x := w.reading(borrow)
				*s, *x = Scan{Index: x}, Index{err: procIDViolation(i, e)}
				return s
			}
			if all = top; int(top) >= ids {
				w.widen(int(top), lat)
				ids, words = w.ids, w.ids/64
			}
		}
		if e.Kind == KindSend || e.Kind == KindRecv {
			if e.Tag != tag {
				tag, class = e.Tag, tagClass(e.Tag, drop, suspTag, quorums || lat)
			}
			if class&tagSusp != 0 && e.Kind == KindRecv && e.Target != None {
				// Blocks and rows are added when a target or a pair is first named.
				if w.hcol[e.Target] == 0 {
					w.block(e.Target, lat)
				}
				slot := &w.hrow[int(w.hcol[e.Target]-1)*ids+int(e.Proc)]
				if *slot == 0 {
					w.heard = grown(w.heard, len(w.heard)+words)
					*slot = int32(len(w.heard) / words)
				}
				w.heard[(int(*slot)-1)*words+int(e.Peer)/64] |= 1 << (uint(e.Peer) % 64)
				if lat {
					w.heardAt(int(*slot)-1, i)
				}
			}
			if class&tagDropped != 0 {
				continue
			}
		}
		kept = max(kept, top)
		pos := i
		if abstract {
			pos = len(w.keep)
			w.keep = append(w.keep, int32(i))
		}
		switch {
		case e.Kind == KindCrash:
			if w.crash[e.Proc] == 0 {
				w.crash[e.Proc] = int32(pos + 1)
			}
			w.down[e.Proc] = true
			if lat {
				w.lcrash[e.Proc] = int32(i + 1)
			}
		case e.Kind == KindInternal && e.Tag == TagRestart:
			w.down[e.Proc] = false
		case lat && e.Kind == KindInternal && e.Tag == TagSuspect:
			w.suspected(e, i)
		case e.Kind == KindFailed:
			if quorums {
				// The quorum set is what has been heard so far, copied out.
				row := len(w.heard)
				w.heard = grown(w.heard, row+words)
				if c := w.hcol[e.Target]; c != 0 {
					if r := w.hrow[int(c-1)*ids+int(e.Proc)]; r != 0 {
						copy(w.heard[row:], w.heard[int(r-1)*words:][:words])
					}
				}
				w.heard[row+int(e.Proc)/64] |= 1 << (uint(e.Proc) % 64)
				w.qrow = append(w.qrow, int32(row/words))
			}
			w.dets = append(w.dets, Detection{Detector: e.Proc, Detected: e.Target, Index: pos})
			if lat {
				w.lat = append(w.lat, w.latency(h, w.dets[len(w.dets)-1], e))
			}
		}
	}

	// Sizes known: everything the caller gets is cut to them.
	n := int(kept)
	s, x := w.reading(borrow)
	tab := cut(&w.itab, 2*(n+1), borrow)
	*x = Index{n: n, crash: tab[:n+1], col: tab[n+1:], down: cut(&w.idown, n+1, borrow),
		dets: cut(&w.idets, len(w.dets), borrow)}
	*s = Scan{Index: x}
	copy(x.crash, w.crash)
	copy(x.down, w.down)
	copy(x.dets, w.dets)
	cols := 0
	for _, d := range x.dets {
		if x.col[d.Detected] == 0 {
			cols++
			x.col[d.Detected] = int32(cols)
		}
	}
	if cols > 0 {
		x.first = cut(&w.ifirst, cols*(n+1), borrow)
	}
	for k, d := range x.dets {
		if slot := &x.first[int(x.col[d.Detected]-1)*(n+1)+int(d.Detector)]; *slot == 0 {
			*slot = int32(k + 1)
		}
	}
	if abstract {
		s.Abstract = cut(&w.abs, len(w.keep), borrow)
		for k, i := range w.keep {
			s.Abstract[k] = h[i]
			s.Abstract[k].Seq = int32(k)
		}
	}
	if quorums {
		s.Words = int(all)/64 + 1
		s.Quorums = cut(&w.quo, len(x.dets)*s.Words, borrow)
		for k, r := range w.qrow {
			copy(s.Quorums[k*s.Words:][:s.Words], w.heard[int(r)*words:])
		}
	}
	if lat {
		w.crashedAll(h, x)
	}
	if borrow {
		x.w, w.hb = w, HB{h: h, w: w}
		if abstract {
			w.hb.h = s.Abstract // the index's positions are in the abstract history
		}
	}
	return s
}

// reading returns where a reading goes: fresh structs, or w's own for a
// borrowed one.
func (w *scratch) reading(borrow bool) (*Scan, *Index) {
	if borrow {
		return &w.out, &w.idx
	}
	return new(Scan), new(Index)
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
