package model

import (
	"errors"
	"fmt"
)

// History is a finite prefix of a run's history: the sequence of events
// (e_0, e_1, e_2, ...) that transforms the initial global state into the
// final one. The paper's runs are infinite; this repository works with
// finite executions run to quiescence, and each property checker documents
// how it treats the finite horizon (see internal/checker).
type History []Event

// Normalize assigns each event's Seq field to its index and returns h.
func (h History) Normalize() History {
	for i := range h {
		h[i].Seq = int32(i)
	}
	return h
}

// Clone returns a deep copy of the history.
func (h History) Clone() History {
	c := make(History, len(h))
	copy(c, h)
	return c
}

// Processes returns the largest process id that appears anywhere in the
// history (as actor, peer, or target). Histories produced by the simulator
// use the contiguous id space 1..n, so this is n.
func (h History) Processes() int {
	max := ProcID(0)
	for _, e := range h {
		for _, p := range [...]ProcID{e.Proc, e.Peer, e.Target} {
			if p > max {
				max = p
			}
		}
	}
	return int(max)
}

// Projection returns the subsequence of events executed by process p,
// in history order. This is the operational form of the paper's r_i (the
// state sequence of i with stutters removed): two histories are isomorphic
// with respect to i exactly when their projections onto i are Same-equal
// event for event.
func (h History) Projection(p ProcID) []Event {
	var out []Event
	for _, e := range h {
		if e.Proc == p {
			out = append(out, e)
		}
	}
	return out
}

// IsomorphicTo reports whether h =_P h': every process executes the same
// events in the same order in both histories (Definition 4's r =_P r').
// Histories of unequal length are not isomorphic. Every event is compared
// under its Proc, whatever that is — an event without an actor is
// Validate's business and is matched like any other — except that a history
// naming an actor outside 0..MaxProcs is isomorphic to nothing. One pass
// over each history with a cursor per process: O(|h| + n).
func (h History) IsomorphicTo(o History) bool {
	if len(h) != len(o) {
		return false
	}
	lo, n := ProcID(0), ProcID(0)
	for i := range h {
		lo, n = min(lo, h[i].Proc, o[i].Proc), max(n, h[i].Proc, o[i].Proc)
	}
	if lo < 0 || n > MaxProcs {
		return false
	}
	// head[p] is 1 + the index of p's next unmatched event in o, next[k]
	// the same for the event that follows o[k] at its process.
	tab := make([]int32, int(n)+1+len(o))
	head, next := tab[:n+1], tab[n+1:]
	for k := len(o) - 1; k >= 0; k-- {
		p := o[k].Proc
		next[k], head[p] = head[p], int32(k+1)
	}
	for i := range h {
		e := &h[i]
		k := head[e.Proc]
		if k == 0 || !e.Same(o[k-1]) {
			return false
		}
		head[e.Proc] = next[k-1]
	}
	return true
}

// DropTags returns the subsequence of h without send/receive events whose
// payload tag is in tags. Crash, failed, and internal events are always
// kept.
//
// This is the abstraction step between a protocol implementation and the
// paper's model: the §5 protocol exchanges SUSP messages (and the fd layer
// exchanges heartbeats) in order to IMPLEMENT the failed/crash events, and
// the sFS properties of §3 constrain the model-level history — application
// messages plus crash and failed events — not the detector's own machinery.
// (§4 makes this explicit: a one-round protocol "exchanges one round of
// messages ... before executing failed_i(j)"; those messages realize the
// event, they are not events the model reasons about.) Dropping a tag
// removes both the send and the matching receive, so the result is again a
// valid history. It is the scan's abstraction (NewScan) without the rest; a
// history naming a process outside 0..MaxProcs has none, and the result is
// nil.
func (h History) DropTags(tags ...string) History {
	return scan(h, tags, "", readAbstract).Abstract
}

// CrashIndex returns the index of crash_p in h, or -1 if p never crashes.
func (h History) CrashIndex(p ProcID) int {
	for i, e := range h {
		if e.Kind == KindCrash && e.Proc == p {
			return i
		}
	}
	return -1
}

// FailedIndex returns the index of failed_i(j) in h, or -1 if i never
// detects the failure of j.
func (h History) FailedIndex(i, j ProcID) int {
	for k, e := range h {
		if e.Kind == KindFailed && e.Proc == i && e.Target == j {
			return k
		}
	}
	return -1
}

// DownAtEnd returns the set of processes that are crashed when the history
// ends: a crash puts a process in the set, a restart (internal TagRestart
// event) takes it out again. For histories without restarts this is every
// process that crashed. FS1-style completeness accounting uses this set on
// both sides: a process that crashed but restarted is live again, so it
// neither needs detecting nor is excused from detecting others.
func (h History) DownAtEnd() map[ProcID]bool {
	out := make(map[ProcID]bool)
	for _, e := range h {
		switch {
		case e.Kind == KindCrash:
			out[e.Proc] = true
		case e.Kind == KindInternal && e.Tag == TagRestart:
			delete(out, e.Proc)
		}
	}
	return out
}

// Detections returns every (detector, detected) pair realized in h, in
// history order: one entry per failed_i(j) event.
func (h History) Detections() []Detection {
	var out []Detection
	for i, e := range h {
		if e.Kind == KindFailed {
			out = append(out, Detection{Detector: e.Proc, Detected: e.Target, Index: i})
		}
	}
	return out
}

// Detection is one failure-detection event: Detector executed
// failed_Detector(Detected) at history index Index.
type Detection struct {
	Detector ProcID
	Detected ProcID
	Index    int
}

// ValidationError describes a way in which a sequence of events fails to be
// a history of any run of the paper's system model.
type ValidationError struct {
	Index int    // offending event index, or -1 for history-wide violations
	Rule  string // short rule name, e.g. "fifo", "crash-finality"
	Desc  string
}

// Error implements the error interface.
func (v *ValidationError) Error() string {
	if v.Index >= 0 {
		return fmt.Sprintf("invalid history at event %d: %s: %s", v.Index, v.Rule, v.Desc)
	}
	return fmt.Sprintf("invalid history: %s: %s", v.Rule, v.Desc)
}

// ErrInvalidHistory is the sentinel wrapped by all validation errors.
var ErrInvalidHistory = errors.New("invalid history")

func violation(idx int, rule, format string, args ...any) error {
	return fmt.Errorf("%w: %w", ErrInvalidHistory,
		&ValidationError{Index: idx, Rule: rule, Desc: fmt.Sprintf(format, args...)})
}

// Validate checks that h could be the history of a run of the system model
// of §2 / Appendix A.1:
//
//   - every event has a valid kind and an actor process, and every process
//     id lies in 0..MaxProcs (Index and the checkers' dense tables index by
//     id);
//   - each message id is sent at most once and received at most once;
//   - every receive matches an earlier send with the same message id over
//     the same channel (recv_i(j,m) requires an earlier send_j(i,m)), and
//     the payload tag and subject agree;
//   - channels are FIFO: receives on channel C_{j,i} occur in the order of
//     their matching sends. Sent-but-never-received messages are permitted
//     (the receiver may have crashed, or a network adversary may have
//     dropped the message — loss does not leave the model); receiving a
//     message the channel cursor has already passed does (reorder);
//   - crash is final: a crashed process executes no further events, and
//     crash_p occurs at most once per lifetime. The single deviation from
//     the paper's model is the crash-recovery restart event (an internal
//     event tagged TagRestart): it may follow a crash and clears the
//     process's crashed status, after which the process executes events —
//     including another crash — again. A restart by a process that is not
//     crashed is a violation;
//   - detection is stable and single-shot: failed_i(j) occurs at most once
//     per ordered pair (i, j).
//
// Validate returns nil for a valid history, or an error wrapping both
// ErrInvalidHistory and a *ValidationError describing the first violation.
func (h History) Validate() error {
	_, err := h.validate(nil)
	return err
}

// ValidateUnderByz validates h as Validate does, except that the three
// wire-level violations a scripted Byzantine sender produces — a payload
// that differs between send and receive (garble), a ghost re-receive of
// an already-received message (replay), and the FIFO overtake a delayed
// ghost causes — are tolerated when the message's sender is one of the
// fault plan's Byzantine victims. Every other rule, and every rule for
// honest senders, is enforced unchanged. It returns how many receive
// events were tolerated as scripted tampering.
func (h History) ValidateUnderByz(victims map[ProcID]bool) (tampered int, err error) {
	return h.validate(victims)
}

// outOfRange reports whether e names a process outside 0..MaxProcs.
func (e *Event) outOfRange() bool {
	return min(e.Proc, e.Peer, e.Target) < 0 || max(e.Proc, e.Peer, e.Target) > MaxProcs
}

func procIDViolation(idx int, e *Event) error {
	return violation(idx, "proc-id", "event %s names a process outside 0..%d", *e, MaxProcs)
}

func (h History) validate(byzSenders map[ProcID]bool) (tampered int, err error) {
	var kinds [KindInternal + 1]int // events of each kind: what the maps are sized from
	for i := range h {
		if k := h[i].Kind; k > 0 && k <= KindInternal {
			kinds[k]++
		}
	}
	// Message ids in a decoded trace are arbitrary, so these two cannot be
	// dense. msgs[m] is the index of send m, doubled, plus one once m has
	// been received. Sends on one channel happen in history order, so its
	// FIFO cursor is a history index: cursor[C_{j,i}] is the first position
	// a send may have and still be receivable on the channel.
	msgs := make(map[MsgID]int, kinds[KindSend])
	cursor := make(map[[2]ProcID]int, min(kinds[KindRecv], 64))
	detected := make(map[[2]ProcID]struct{}, kinds[KindFailed]) // (i,j) with failed_i(j) seen
	var crashed []bool                                          // crashed[p]: p has crashed and not restarted; grown on demand

	for idx := range h {
		e := &h[idx]
		if e.Proc == None {
			return tampered, violation(idx, "actor", "event %s has no actor process", *e)
		}
		if e.outOfRange() {
			return tampered, procIDViolation(idx, e)
		}
		switch e.Kind {
		case KindSend, KindRecv, KindCrash, KindFailed, KindInternal:
		default:
			return tampered, violation(idx, "kind", "event has invalid kind %d", int(e.Kind))
		}
		down := int(e.Proc) < len(crashed) && crashed[e.Proc]
		if restart := e.Kind == KindInternal && e.Tag == TagRestart; down {
			if !restart {
				return tampered, violation(idx, "crash-finality", "process %d executes %s after crashing", e.Proc, *e)
			}
			crashed[e.Proc] = false
		} else if restart {
			return tampered, violation(idx, "restart-without-crash", "process %d restarts without a prior crash", e.Proc)
		}
		switch e.Kind {
		case KindInternal:
			// Internal events carry no structural constraints beyond the
			// actor/finality checks above.
		case KindSend:
			if e.Peer == None || e.Msg == 0 {
				return tampered, violation(idx, "send", "send event %s lacks destination or message id", *e)
			}
			if prev, dup := msgs[e.Msg]; dup {
				return tampered, violation(idx, "unique-msg", "message m%d sent twice (first at %d)", e.Msg, prev/2)
			}
			msgs[e.Msg] = 2 * idx
		case KindRecv:
			if e.Peer == None || e.Msg == 0 {
				return tampered, violation(idx, "recv", "receive event %s lacks source or message id", *e)
			}
			m, ok := msgs[e.Msg]
			if !ok {
				return tampered, violation(idx, "recv-before-send", "message m%d received but never sent earlier", e.Msg)
			}
			fromByz := byzSenders[e.Peer]
			if m&1 != 0 {
				if fromByz {
					// A replay ghost: the plan re-injected an already
					// delivered wire payload on the victim's link.
					tampered++
					continue
				}
				return tampered, violation(idx, "unique-recv", "message m%d received twice", e.Msg)
			}
			si := m / 2
			s := &h[si]
			if s.Proc != e.Peer || s.Peer != e.Proc {
				return tampered, violation(idx, "channel", "message m%d sent on C_{%d,%d} but received as if on C_{%d,%d}",
					e.Msg, s.Proc, s.Peer, e.Peer, e.Proc)
			}
			if s.Tag != e.Tag || s.Target != e.Target {
				if !fromByz {
					return tampered, violation(idx, "garble", "message m%d payload differs between send (%s) and receive (%s)",
						e.Msg, s.payload(), e.payload())
				}
				// Scripted corruption or equivocation on the victim's link:
				// the send records what the victim passed in, the receive
				// what the plan put on the wire.
				tampered++
			}
			// Sends the cursor skips over are lost messages (allowed); a
			// send behind it was overtaken by a later one — a FIFO violation.
			k := [2]ProcID{e.Peer, e.Proc}
			msgs[e.Msg] = m | 1
			if si < cursor[k] {
				if fromByz {
					// A delayed replay ghost of a never-delivered original
					// lands behind the channel cursor.
					tampered++
					continue
				}
				return tampered, violation(idx, "fifo", "message m%d received out of FIFO order on C_{%d,%d}", e.Msg, e.Peer, e.Proc)
			}
			cursor[k] = si + 1
		case KindCrash:
			if int(e.Proc) >= len(crashed) {
				crashed = append(crashed, make([]bool, int(e.Proc)+1-len(crashed))...)
			}
			crashed[e.Proc] = true
		case KindFailed:
			if e.Target == None {
				return tampered, violation(idx, "failed", "failed event of %d lacks a target", e.Proc)
			}
			key := [2]ProcID{e.Proc, e.Target}
			if _, dup := detected[key]; dup {
				return tampered, violation(idx, "failed-once", "failed_%d(%d) executed twice", e.Proc, e.Target)
			}
			detected[key] = struct{}{}
		}
	}
	return tampered, nil
}

// String renders the history one event per line, in the paper's notation.
func (h History) String() string {
	out := make([]byte, 0, len(h)*24)
	for i, e := range h {
		out = append(out, fmt.Sprintf("%4d  %s\n", i, e)...)
	}
	return string(out)
}
