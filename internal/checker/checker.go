// Package checker verifies the paper's properties on recorded histories:
// the fail-stop conditions FS1/FS2 (§3.1), the simulated-fail-stop
// conditions sFS2a–sFS2d (Figure 1), the necessary Conditions 1–3 of §3.2,
// and the Witness property W of §4.
//
// Finite-horizon semantics. The paper's properties quantify over infinite
// runs; this package checks their natural finite counterparts:
//
//   - Safety properties (FS2, sFS2b, sFS2c, sFS2d, Conditions 2–3, W) are
//     checked exactly: a finite violation is a violation of every extension.
//   - Liveness properties (FS1, sFS2a, Condition 1) are checked at the end
//     of the history, which is sound when the history was run to quiescence
//     (nothing in flight can change the outcome); callers should check
//     sim.Result.Quiescent before trusting a liveness verdict.
//
// Reading a run. A recorded run is mostly the stack's own traffic, so it is
// read once: model.NewScan walks the full history once and yields the
// abstract history without TransportTags, the model.Index over it
// (detections, first crash, down at end, the failed_i(j) lookup) and each
// detection's quorum set; AllOf reads the ten verdicts off that, walking
// only the abstract history again. The facade's Run and sfs-check share that
// one call, and keep the scan; All (the sweep's) reads the same scan
// borrowed, through model.ReadScan, and the per-property functions index the
// model-level history they are given the same way, through model.ReadIndex.
// A history naming a process outside 0..model.MaxProcs is not indexed, and
// every property reports that proc-id violation instead of holding.
//
// What a check works in and drops when it returns — the borrowed readings,
// the happens-before clocks, failed-before's colours, sFS2d's chains, the
// Witness search and its view of the quorum rows — is pooled, so a run read
// through All or a per-property function allocates its verdicts and a
// violation's detail, and nothing else.
package checker

import (
	"fmt"
	"strings"
	"sync"

	"failstop/internal/byz"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/quorum"
	"failstop/internal/reliable"
)

// Verdict is the outcome of checking one property on one history.
type Verdict struct {
	// Property is the paper's name for the property ("FS1", "sFS2d", ...).
	Property string
	// Holds reports whether the property holds on the history.
	Holds bool
	// Detail describes the first violation found; empty when Holds.
	Detail string
}

// String renders the verdict as "FS1: ok" or "FS2: VIOLATED (detail)".
func (v Verdict) String() string {
	if v.Holds {
		return v.Property + ": ok"
	}
	return v.Property + ": VIOLATED (" + v.Detail + ")"
}

func ok(prop string) Verdict { return Verdict{Property: prop, Holds: true} }

// holds is the verdict of a check that found no violation in what x indexes:
// ok — unless x indexes nothing (Index.Err), so that every lookup answered
// "none" and the check saw nothing; the verdict is then that violation.
func holds(prop string, x *model.Index) Verdict {
	if err := x.Err(); err != nil {
		return bad(prop, "%v", err)
	}
	return ok(prop)
}

func bad(prop, format string, args ...any) Verdict {
	return Verdict{Property: prop, Detail: fmt.Sprintf(format, args...)}
}

// FS1 checks strong completeness on the finite horizon: every process that
// is crashed when the history ends is detected by every process that is
// not. Meaningful on quiescent runs.
//
// Crash-recovery histories (internal/recovery) make the down-at-end
// distinction matter: a process that crashed but restarted is live again,
// so it neither needs detecting nor is excused from detecting the
// processes that stayed down — a restarted process is not "crashed" for
// FS1 accounting. On restart-free histories DownAtEnd equals Crashed and
// this is the paper's FS1 verbatim.
//
//	FS1: ∀r,i: r ⊨ □(CRASH_i ⇒ ∀j: ◇(CRASH_j ∨ FAILED_j(i)))
func FS1(h model.History) (v Verdict) {
	model.ReadIndex(h, func(x *model.Index) { v = fs1At(x, x.Processes()) })
	return v
}

// FS1At is FS1 with the membership size given explicitly. FS1 infers n
// from the history, which is right when every process leaves a trace; in
// crash-recovery scenarios a process can be entirely silent — it never
// sends, detects, crashes, or restarts — and inference would silently
// drop it, together with its obligation to detect every down process
// (the property would then pass vacuously). Callers that know the true
// membership pass it here; silent processes count as live.
func FS1At(h model.History, n int) (v Verdict) {
	model.ReadIndex(h, func(x *model.Index) { v = fs1At(x, n) })
	return v
}

func fs1At(x *model.Index, n int) Verdict {
	// Walk processes in id order, so the counterexample a failing run
	// reports is the same on every execution.
	for i := model.ProcID(1); int(i) <= n; i++ {
		if !x.DownAtEnd(i) {
			continue
		}
		for j := model.ProcID(1); int(j) <= n; j++ {
			if j == i || x.DownAtEnd(j) {
				continue
			}
			if x.Detection(j, i) < 0 {
				return bad("FS1", "crash_%d never detected by live process %d", i, j)
			}
		}
	}
	return holds("FS1", x)
}

// FS2 checks strong accuracy: no process is detected before it has crashed.
// In history terms, crash_i precedes failed_j(i) for every detection.
//
//	FS2: ∀r,i,j: r ⊨ □(FAILED_j(i) ⇒ CRASH_i)
func FS2(h model.History) (v Verdict) {
	model.ReadIndex(h, func(x *model.Index) { v = fs2(x) })
	return v
}

func fs2(x *model.Index) Verdict {
	for _, d := range x.Detections() {
		ci := x.CrashIndex(d.Detected)
		if ci < 0 || ci > d.Index {
			return bad("FS2", "failed_%d(%d) at index %d precedes crash_%d (index %d)",
				d.Detector, d.Detected, d.Index, d.Detected, ci)
		}
	}
	return holds("FS2", x)
}

// Accuracy checks ground-truth accuracy against an external allow-set: every
// detection targets a process in allowed — typically the plan's scheduled
// crash victims plus its Byzantine victims. This is the Byzantine analogue
// of FS2: under an active adversary the recorded crash order races the
// detection that masked the misbehavior (the victim crashes on its own
// completed SUSP, which may serialize after other processes' failed events),
// so FS2's crash-precedes-detection reading is unachievable even when every
// conviction is correct. What must hold instead is that nobody innocent is
// ever detected.
func Accuracy(h model.History, allowed map[model.ProcID]bool) Verdict {
	for _, d := range h.Detections() {
		if !allowed[d.Detected] {
			return bad("Accuracy", "failed_%d(%d) at index %d detects a process that neither crashed by plan nor misbehaved",
				d.Detector, d.Detected, d.Index)
		}
	}
	return ok("Accuracy")
}

// SFS2a checks that every detected process eventually crashes:
//
//	sFS2a: ∀r,i,j: r ⊨ □(FAILED_i(j) ⇒ ◇CRASH_j)
//
// Meaningful on quiescent runs (the crash may be in flight otherwise).
func SFS2a(h model.History) (v Verdict) {
	model.ReadIndex(h, func(x *model.Index) { v = sfs2a(x) })
	return v
}

func sfs2a(x *model.Index) Verdict {
	for _, d := range x.Detections() {
		if x.CrashIndex(d.Detected) < 0 {
			return bad("sFS2a", "failed_%d(%d) but %d never crashes",
				d.Detector, d.Detected, d.Detected)
		}
	}
	return holds("sFS2a", x)
}

// SFS2b checks that the failed-before relation is acyclic (Condition 2).
func SFS2b(h model.History) (v Verdict) {
	model.ReadIndex(h, func(x *model.Index) { v = sfs2b(x) })
	return v
}

func sfs2b(x *model.Index) Verdict {
	if cyc := x.FailedBefore().Cycle(); cyc != nil {
		return bad("sFS2b", "failed-before cycle %v", cyc)
	}
	return holds("sFS2b", x)
}

// SFS2c checks that no process detects its own failure:
//
//	sFS2c: ∀r,i: r ⊨ □¬FAILED_i(i)
func SFS2c(h model.History) (v Verdict) {
	model.ReadIndex(h, func(x *model.Index) { v = sfs2c(x) })
	return v
}

func sfs2c(x *model.Index) Verdict {
	for _, d := range x.Detections() {
		if d.Detector == d.Detected {
			return bad("sFS2c", "failed_%d(%d) at index %d", d.Detector, d.Detected, d.Index)
		}
	}
	return holds("sFS2c", x)
}

// SFS2d checks the contamination barrier: once i has executed failed_i(j),
// any message i subsequently sends to k is not received until k has also
// executed failed_k(j).
//
//	sFS2d: r ⊨ □[FAILED_i(j) ∧ ¬SEND_i(k,m) ⇒
//	             □((SEND_i(k,m) ∧ RECV_k(i,m)) ⇒ FAILED_k(j))]
func SFS2d(h model.History) (v Verdict) {
	model.ReadIndex(h, func(x *model.Index) { v = sfs2d(h, x) })
	return v
}

func sfs2d(h model.History, x *model.Index) Verdict {
	dets := x.Detections()
	if len(dets) == 0 {
		return holds("sFS2d", x)
	}
	// The detections i has executed so far are a chain through dets:
	// lastBy[i] is 1 + the position of i's latest, prev[k] the same for the
	// one i executed before dets[k]. A send is tainted by its sender's chain
	// at that moment, which later detections only extend at the head.
	tb := tablePool.Get().(*tables)
	defer tablePool.Put(tb)
	tb.chain = append(tb.chain[:0], make([]int32, len(dets)+x.Processes()+1)...)
	prev, lastBy := tb.chain[:len(dets)], tb.chain[len(dets):]
	taint, seen := map[model.MsgID]int32{}, 0

	for idx := range h {
		e := &h[idx]
		switch e.Kind {
		case model.KindFailed:
			prev[seen], lastBy[e.Proc] = lastBy[e.Proc], int32(seen+1)
			seen++
		case model.KindSend:
			if k := lastBy[e.Proc]; k != 0 {
				taint[e.Msg] = k
			}
		case model.KindCrash, model.KindInternal:
			// No contamination flows through crashes or internal events.
		case model.KindRecv:
			// The chain runs latest first; the violation reported is the
			// sender's earliest detection the receiver has not caught up on.
			missing := model.ProcID(-1)
			for k := taint[e.Msg]; k != 0; k = prev[k-1] {
				j := dets[k-1].Detected
				if at := x.Detection(e.Proc, j); at < 0 || dets[at].Index > idx {
					missing = j
				}
			}
			if missing >= 0 {
				return bad("sFS2d",
					"recv_%d(%d, m%d) at index %d before failed_%d(%d): message sent after sender detected %d",
					e.Proc, e.Peer, e.Msg, idx, e.Proc, missing, missing)
			}
		}
	}
	return holds("sFS2d", x)
}

// Condition1 checks §3.2 Condition 1: if failed_i(j) occurs in the history
// then crash_j occurs in the history. Operationally identical to sFS2a on a
// finite horizon but reported under its own name.
func Condition1(h model.History) Verdict { return relabel(SFS2a(h), "Condition1") }

// Condition2 checks §3.2 Condition 2: the failed-before relation is acyclic.
func Condition2(h model.History) Verdict { return relabel(SFS2b(h), "Condition2") }

// relabel reports v under another property's name.
func relabel(v Verdict, prop string) Verdict {
	v.Property = prop
	return v
}

// Condition3 checks §3.2 Condition 3: there is no event e of process j such
// that failed_i(j) happens-before e.
func Condition3(h model.History) (v Verdict) {
	model.ReadIndex(h, func(x *model.Index) { v = condition3(h, x) })
	return v
}

// condition3 asks the happens-before a borrowed x lends over h, or — if x
// is its own — clocks of its own. Either is computed only when a detected
// process goes on to execute something: a run whose crashes all precede
// their detections needs no clocks.
func condition3(h model.History, x *model.Index) Verdict {
	hb := x.HB()
	for _, d := range x.Detections() {
		for idx := d.Index + 1; idx < len(h); idx++ {
			if h[idx].Proc != d.Detected {
				continue
			}
			if hb == nil {
				hb = model.NewHB(h)
			}
			if hb.Before(d.Index, idx) {
				return bad("Condition3", "failed_%d(%d) at %d happens-before %s at %d",
					d.Detector, d.Detected, d.Index, h[idx], idx)
			}
		}
	}
	return holds("Condition3", x)
}

// QuorumSets reconstructs, from the history alone, the quorum set Q_{i,j}
// of every completed detection (Definition 5), in history order: the
// detector i itself plus every process from which i received "j failed"
// (tag core SUSP) before executing failed_i(j). The §5 protocol merges SUSP
// and ACK.SUSP, so received suspicion messages are the acknowledgements.
func QuorumSets(h model.History, suspTag string) []quorum.Set {
	s := model.NewScan(h, suspTag, TransportTags(suspTag)...)
	return quorumSets(make([]quorum.Set, 0, len(s.Index.Detections())), s)
}

// quorumSets appends to out the scan's quorum rows as sets, one per
// detection.
func quorumSets(out []quorum.Set, s *model.Scan) []quorum.Set {
	for k := range s.Index.Detections() {
		out = append(out, s.Quorums[k*s.Words:(k+1)*s.Words:(k+1)*s.Words])
	}
	return out
}

// tables is what the checks work in and drop when they return, pooled: a
// check trusts nothing in it but its capacity.
type tables struct {
	chain []int32      // sfs2d's detection chains
	sets  []quorum.Set // witness's view of the quorum rows
}

var tablePool = sync.Pool{New: func() any { return new(tables) }}

// WitnessProperty checks §4's Witness property W on the quorum sets
// reconstructed from the history, in the form Theorem 7's quorum size
// guarantees and sFS2b requires: every subfamily of at most t quorum sets
// has a common witness (a failed-before cycle involves at most t processes,
// hence at most t quorum sets — larger subfamilies never matter). A
// violation names the offending detections, in history order.
func WitnessProperty(h model.History, suspTag string, t int) (v Verdict) {
	model.ReadScan(h, suspTag, TransportTags(suspTag), func(s *model.Scan) { v = witness(s, t) })
	return v
}

func witness(s *model.Scan, t int) Verdict {
	tb := tablePool.Get().(*tables)
	defer func() {
		clear(tb.sets) // the rows are the scan's: the pool must not keep them
		tablePool.Put(tb)
	}()
	sets := quorumSets(tb.sets[:0], s)
	tb.sets = sets
	sub := quorum.EmptySubfamily(sets, t)
	if sub == nil {
		return holds("W", s.Index)
	}
	names := make([]string, len(sub))
	for i, k := range sub {
		d := s.Index.Detections()[k]
		names[i] = fmt.Sprintf("failed_%d(%d) %v", d.Detector, d.Detected, sets[k])
	}
	return bad("W", "the quorum sets of %s share no member (%d of %d detections, t = %d)",
		strings.Join(names, ", "), len(sub), len(sets), t)
}

// SFS checks the full simulated-fail-stop specification of Figure 1:
// FS1 + sFS2a + sFS2b + sFS2c + sFS2d.
func SFS(h model.History) (vs []Verdict) {
	model.ReadIndex(h, func(x *model.Index) {
		vs = []Verdict{fs1At(x, x.Processes()), sfs2a(x), sfs2b(x), sfs2c(x), sfs2d(h, x)}
	})
	return vs
}

// FS checks the fail-stop specification: FS1 + FS2.
func FS(h model.History) (vs []Verdict) {
	model.ReadIndex(h, func(x *model.Index) { vs = []Verdict{fs1At(x, x.Processes()), fs2(x)} })
	return vs
}

// TransportTags lists the payload tags of the protocol stack's own traffic
// — the detector's "j failed" round, fd heartbeats, reliable-delivery acks
// and Byzantine witness echoes — that History.DropTags removes to obtain
// the model-level history. suspTag is the detector's tag (core.TagSusp
// unless a trace says otherwise). This is the one such list: the facade,
// All, the sweep and sfs-check all abstract a history through it.
func TransportTags(suspTag string) []string {
	return []string{suspTag, fd.TagHeartbeat, reliable.TagAck, byz.TagEcho}
}

// Abstract returns the model-level history of h: h without its transport
// traffic (TransportTags); a caller that wants verdicts too takes both from
// one model.NewScan.
func Abstract(h model.History, suspTag string) model.History {
	return h.DropTags(TransportTags(suspTag)...)
}

// All checks every property this package knows about on the recorded run h,
// reading it through a borrowed scan (model.ReadScan): AllOf's verdicts,
// with nothing of the reading kept.
func All(h model.History, suspTag string, t int) (vs []Verdict) {
	model.ReadScan(h, suspTag, TransportTags(suspTag), func(s *model.Scan) { vs = AllOf(s, t) })
	return vs
}

// AllOf reads All's ten verdicts off a scan already made: the sFS and FS
// properties from the abstract (model-level) history and its index, the
// Witness property from the quorum rows, which needed the full trace.
// Conditions 1 and 2 restate the sFS2a and sFS2b verdicts they are defined
// to equal.
func AllOf(s *model.Scan, t int) []Verdict {
	x := s.Index
	a, b := sfs2a(x), sfs2b(x)
	return []Verdict{
		fs1At(x, x.Processes()), fs2(x),
		a, b, sfs2c(x), sfs2d(s.Abstract, x),
		relabel(a, "Condition1"), relabel(b, "Condition2"), condition3(s.Abstract, x),
		witness(s, t),
	}
}

// AllHold reports whether every verdict holds, and if not, the first
// failing verdict.
func AllHold(vs []Verdict) (Verdict, bool) {
	for _, v := range vs {
		if !v.Holds {
			return v, false
		}
	}
	return Verdict{}, true
}
