package obs

import (
	"slices"
	"sync"

	"failstop/internal/model"
)

// SpanKind names a step of a message's lifecycle (or a detection event
// hung off it). Kinds are strings on the wire so traces stay greppable.
type SpanKind string

// The lifecycle: a send span roots a message; a fate span records the
// fault plane's verdict; each surviving copy gets an enqueue span; the
// copy ends in a deliver or drop span. Retransmit spans hang off the
// reliable layer's resends; suspect and crash-confirm spans tie detection
// back to the delivery that caused it via their parent IDs.
const (
	SpanSend         SpanKind = "send"
	SpanFate         SpanKind = "fate"
	SpanEnqueue      SpanKind = "enqueue"
	SpanDeliver      SpanKind = "deliver"
	SpanDrop         SpanKind = "drop"
	SpanRetransmit   SpanKind = "retransmit"
	SpanSuspect      SpanKind = "suspect"
	SpanCrashConfirm SpanKind = "crash-confirm"
	// SpanRestart records a crash-recovery restart (internal/recovery):
	// the note carries the recovery mode and, under durable recovery, the
	// snapshot size restored. Detection-grade: never sampled out.
	SpanRestart SpanKind = "restart"
	// SpanByzDetect records a Byzantine-misbehavior conviction by the
	// validation layer (internal/byz): Proc is the convicting process,
	// Peer the culprit, and the note carries the reason ("bad-mac" or
	// "equivocation"). Detection-grade: never sampled out.
	SpanByzDetect SpanKind = "byz-detect"
)

// SpanKinds lists every kind this package defines, in lifecycle order: the
// message's stages in causal order, then the detection-grade kinds.
var SpanKinds = []SpanKind{SpanSend, SpanFate, SpanEnqueue, SpanDeliver, SpanDrop,
	SpanRetransmit, SpanSuspect, SpanCrashConfirm, SpanRestart, SpanByzDetect}

// Known reports whether k is one of SpanKinds. Readers use it to validate
// traces without rejecting kinds added by future versions at parse time.
func (k SpanKind) Known() bool { return slices.Contains(SpanKinds, k) }

// Span is one lifecycle step. ID is unique and increasing within a
// recorder; Parent is the causally preceding span (0 for roots): a send
// issued from inside a message handler parents to that delivery's span,
// which is how cross-process causal chains arise.
//
//sfs:wire
type Span struct {
	ID     int64        `json:"id"`
	Parent int64        `json:"parent,omitempty"`
	Time   int64        `json:"time,omitempty"`
	Kind   SpanKind     `json:"kind"`
	Proc   model.ProcID `json:"proc,omitempty"`
	Peer   model.ProcID `json:"peer,omitempty"`
	Msg    model.MsgID  `json:"msg,omitempty"`
	Tag    string       `json:"tag,omitempty"`
	Target model.ProcID `json:"target,omitempty"`
	Note   string       `json:"note,omitempty"`
}

// SpanRecorder collects spans with sequential IDs and decides, per
// message, whether its lifecycle is sampled. Sampling is a pure function
// of (seed, message id) — not of recording order — so two runs of the same
// (spec, seed) record byte-identical span streams, and the live runtime's
// concurrent sends sample the same messages the simulator would. A nil
// recorder samples nothing and records nothing.
type SpanRecorder struct {
	seed uint64
	rate float64

	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewSpanRecorder returns a recorder sampling message lifecycles at rate
// (clamped to [0,1]) under the given seed. Detection spans (suspect,
// crash-confirm) are always recorded regardless of rate.
func NewSpanRecorder(seed int64, rate float64) *SpanRecorder {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &SpanRecorder{seed: uint64(seed), rate: rate}
}

// Sampled reports whether msg's lifecycle is recorded under this
// recorder's (seed, rate).
func (r *SpanRecorder) Sampled(msg model.MsgID) bool {
	if r == nil || r.rate <= 0 {
		return false
	}
	if r.rate >= 1 {
		return true
	}
	u := model.Mix(r.seed ^ model.Mix(uint64(msg)))
	return float64(u>>11)/(1<<53) < r.rate
}

// Record assigns the next span ID, stores the span, and returns the ID
// (0 on a nil recorder). The caller sets every other field, including
// Parent and Time.
func (r *SpanRecorder) Record(s Span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// Spans returns a copy of the recorded spans in ID order.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}
