// Package model defines the formal event model of Sabel & Marzullo,
// "Simulating Fail-Stop in Asynchronous Distributed Systems" (TR 94-1413).
//
// A system is a set of n processes {1..n} communicating over reliable,
// unidirectional FIFO channels. An execution is described by a History: a
// finite sequence of events, each of which belongs to exactly one process.
// The four event kinds of the paper — send, receive, crash, and failure
// detection — are represented directly, plus an "internal" kind used to
// record application-visible local steps (leader changes, suspicion onsets)
// that the paper folds into unnamed state transitions.
//
// All higher layers of this repository (simulator, protocol, checkers,
// rewriters) produce and consume values of this package; properties such as
// FS1/FS2 and sFS2a-d are defined over Histories, never over live state.
package model

import (
	"fmt"
	"strconv"
)

// ProcID identifies a process. Valid process ids are 1..n; 0 is reserved as
// "no process" for event fields that do not apply. It is 32 bits wide: a
// valid history names no process above MaxProcs (2²⁰) and every configured n
// is at most MaxProcs, so every id a run records fits — and an Event, with
// its 32-bit MsgID and Seq, is 48 bytes.
type ProcID int32

// None is the zero ProcID, used when an event field carries no process.
const None ProcID = 0

// String returns the decimal form of the process id.
func (p ProcID) String() string { return strconv.Itoa(int(p)) }

// MsgID uniquely identifies a message within a history. The paper assumes
// all messages are unique ("they can easily be made so by including in m its
// source and a sequence number"); we realize that assumption with a
// history-wide counter. 0 means "no message". It is 32 bits wide, like
// ProcID: the simulator refuses a send past math.MaxInt32 rather than wrap.
type MsgID int32

// Kind enumerates the event kinds of the paper's formal model.
type Kind uint8

// Event kinds. Values start at 1 so that the zero Kind is invalid and
// accidental zero-valued events are caught by validation.
const (
	// KindSend is send_i(j, m): process i appends message m to channel C_{i,j}.
	KindSend Kind = iota + 1
	// KindRecv is recv_i(j, m): process i removes message m from the head of
	// channel C_{j,i}.
	KindRecv
	// KindCrash is crash_i: the local variable crash_i becomes true. The
	// process executes no further events.
	KindCrash
	// KindFailed is failed_i(j): process i detects the crash of process j;
	// the local variable failed_i(j) becomes true and stays true.
	KindFailed
	// KindInternal is a local computation step with no channel effect. The
	// paper's model permits such events (an event need not touch a channel);
	// we use them to record application-level observations.
	KindInternal
)

// TagSuspect is the internal-event tag recording that Proc suspects Target:
// the start of a detection, which the §5 detector emits and latency,
// false-suspicion and span accounting read.
const TagSuspect = "suspect"

// kindNames holds the paper's name of each event kind, indexed by Kind (0,
// the invalid kind, names nothing).
var kindNames = [...]string{KindSend: "send", KindRecv: "recv", KindCrash: "crash",
	KindFailed: "failed", KindInternal: "internal"}

// String returns the paper's name for the event kind.
func (k Kind) String() string {
	if k == 0 || int(k) >= len(kindNames) {
		return "invalid(" + strconv.Itoa(int(k)) + ")"
	}
	return kindNames[k]
}

// Event is a single event of a history. The meaning of the auxiliary fields
// depends on Kind:
//
//   - KindSend:   Proc sends message Msg with payload tag Tag to Peer.
//     Target optionally names the subject process of a protocol
//     message (e.g. the j in "j failed").
//   - KindRecv:   Proc receives message Msg with payload tag Tag from Peer.
//     Target mirrors the send's Target.
//   - KindCrash:  Proc crashes. Peer, Target, Msg are unused.
//   - KindFailed: Proc detects the crash of Target. Peer, Msg are unused.
//   - KindInternal: Proc performs a local step described by Tag; Target may
//     name a subject process.
//
// Seq is the event's index within its history (assigned by Normalize or by
// the trace recorder). Time is the virtual time at which the simulator
// executed the event; it is informational only and plays no role in the
// formal model or in any property checker.
type Event struct {
	Seq    int32  `json:"seq"`
	Proc   ProcID `json:"proc"`
	Kind   Kind   `json:"kind"`
	Peer   ProcID `json:"peer,omitempty"`
	Target ProcID `json:"target,omitempty"`
	Msg    MsgID  `json:"msg,omitempty"`
	Tag    string `json:"tag,omitempty"`
	Time   int64  `json:"time,omitempty"`
}

// Send constructs a send event: from sends message id to to, carrying tag
// and an optional subject process.
func Send(from, to ProcID, id MsgID, tag string, subject ProcID) Event {
	return Event{Proc: from, Kind: KindSend, Peer: to, Msg: id, Tag: tag, Target: subject}
}

// Recv constructs a receive event: by receives message id from from.
func Recv(by, from ProcID, id MsgID, tag string, subject ProcID) Event {
	return Event{Proc: by, Kind: KindRecv, Peer: from, Msg: id, Tag: tag, Target: subject}
}

// Crash constructs a crash event of p.
func Crash(p ProcID) Event { return Event{Proc: p, Kind: KindCrash} }

// Failed constructs a failure-detection event: i executes failed_i(j).
func Failed(i, j ProcID) Event { return Event{Proc: i, Kind: KindFailed, Target: j} }

// Internal constructs an internal event of p described by tag with an
// optional subject process.
func Internal(p ProcID, tag string, subject ProcID) Event {
	return Event{Proc: p, Kind: KindInternal, Tag: tag, Target: subject}
}

// TagRestart is the internal-event tag recording that a crashed process
// restarted (the crash-recovery deviation from the paper's model; see
// internal/recovery). A restart event clears the process's crashed status
// for history validation and for down-at-end accounting: the process
// executes events again afterwards.
const TagRestart = "restart"

// Restart constructs the internal event recording that p restarted after a
// crash. It is deliberately an internal event, not a new Kind: the paper's
// four-kind model is untouched, and only recovery-aware consumers (history
// validation, the FS1 checker's liveness accounting) interpret the tag.
func Restart(p ProcID) Event { return Internal(p, TagRestart, None) }

// String renders the event in the paper's notation, e.g. "failed_3(7)",
// "send_1(2, m5[SUSP j=4])".
func (e Event) String() string {
	switch e.Kind {
	case KindSend:
		return fmt.Sprintf("send_%d(%d, m%d[%s])", e.Proc, e.Peer, e.Msg, e.payload())
	case KindRecv:
		return fmt.Sprintf("recv_%d(%d, m%d[%s])", e.Proc, e.Peer, e.Msg, e.payload())
	case KindCrash:
		return fmt.Sprintf("crash_%d", e.Proc)
	case KindFailed:
		return fmt.Sprintf("failed_%d(%d)", e.Proc, e.Target)
	case KindInternal:
		if e.Target != None {
			return fmt.Sprintf("internal_%d[%s j=%d]", e.Proc, e.Tag, e.Target)
		}
		return fmt.Sprintf("internal_%d[%s]", e.Proc, e.Tag)
	default:
		return fmt.Sprintf("invalid_%d(kind=%d)", e.Proc, e.Kind)
	}
}

func (e Event) payload() string {
	if e.Target != None {
		return e.Tag + " j=" + e.Target.String()
	}
	return e.Tag
}

// Same reports whether two events are the same event up to position: all
// fields except Seq and Time are equal. Isomorphism of runs with respect to
// a process is defined over Same-equality of that process's events.
func (e Event) Same(o Event) bool {
	return e.Proc == o.Proc && e.Kind == o.Kind && e.Peer == o.Peer &&
		e.Target == o.Target && e.Msg == o.Msg && e.Tag == o.Tag
}

// Mix is splitmix64's output mix, the module's one bit mixer: the fault
// plane's decision streams, the interposer's MACs, span sampling and gossip
// peer draws are all functions of it, so recorded runs depend on its exact
// constants.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
