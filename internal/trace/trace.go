// Package trace serializes histories to and from a line-oriented JSON
// format, so that runs can be recorded by cmd/sfs-sim and re-checked
// offline by cmd/sfs-check (or exchanged with other tools).
//
// The format is one JSON object per line: a header line with metadata, then
// one line per event in history order. Streaming line-delimited JSON keeps
// large traces greppable and diffable.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/obs"
)

// Header carries run metadata at the top of a trace file.
//
//sfs:wire
type Header struct {
	// Version identifies the trace format.
	Version int `json:"version"`
	// N is the number of processes.
	N int `json:"n"`
	// T is the failure bound the run was configured with.
	T int `json:"t,omitempty"`
	// Protocol names the detection protocol ("sfs", "cheap", "unilateral").
	Protocol string `json:"protocol,omitempty"`
	// Seed is the simulation seed.
	Seed int64 `json:"seed,omitempty"`
	// Schedule names the fault-injection schedule the run used, if any.
	Schedule string `json:"schedule,omitempty"`
	// Plan names the network fault plan the run used, if any. A trace with
	// a plan may legitimately fail strict model validation: loss,
	// duplication, and reorder leave the reliable-channel model, and this
	// field records that context.
	Plan string `json:"plan,omitempty"`
	// FaultPlan carries the full serialized fault plan, not just its name,
	// so a trace replays without access to the builtin registry that
	// generated it.
	FaultPlan *netadv.Plan `json:"fault_plan,omitempty"`
	// Note is free-form commentary.
	Note string `json:"note,omitempty"`
	// SpanCount is the number of lifecycle spans appended after the events.
	// 0 means the trace carries no spans.
	SpanCount int `json:"span_count,omitempty"`
	// SpanRate is the seed-deterministic sampling rate the spans were
	// recorded at.
	SpanRate float64 `json:"span_rate,omitempty"`
}

// FormatVersion is the trace format version, the only one Write produces
// and ReadSpans accepts: a header with fault context (Schedule, Plan, the
// optional fully-serialized FaultPlan), event lines, then message-lifecycle
// spans each wrapped as {"span":{...}} so event lines stay unchanged, with
// SpanCount and SpanRate in the header.
const FormatVersion = 3

// Write streams a header and history to w (with no spans).
func Write(w io.Writer, hdr Header, h model.History) error {
	return WriteSpans(w, hdr, h, nil)
}

// spanLine wraps a span on the wire so span lines are distinguishable
// from event lines without lookahead: events never carry a "span" key.
type spanLine struct {
	Span *obs.Span `json:"span"`
}

// WriteSpans streams a header, history, and lifecycle spans to w. The
// header's SpanCount is set from spans; SpanRate is the caller's to fill.
func WriteSpans(w io.Writer, hdr Header, h model.History, spans []obs.Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr.Version = FormatVersion
	if hdr.N == 0 {
		hdr.N = h.Processes()
	}
	hdr.SpanCount = len(spans)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	for i := range h {
		if err := enc.Encode(h[i]); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", i, err)
		}
	}
	for i := range spans {
		if err := enc.Encode(spanLine{Span: &spans[i]}); err != nil {
			return fmt.Errorf("trace: encoding span %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing: %w", err)
	}
	return nil
}

// ErrBadTrace is wrapped by all read-side format errors.
var ErrBadTrace = errors.New("trace: malformed trace")

// Read parses a trace produced by Write and returns its header and history,
// discarding any spans. The history is normalized but NOT validated;
// callers that need model validity should call History.Validate themselves.
func Read(r io.Reader) (Header, model.History, error) {
	hdr, h, _, err := ReadSpans(r)
	return hdr, h, err
}

// ReadSpans parses a trace and returns its header, history, and lifecycle
// spans (nil when the trace carries none). Span lines follow the event
// lines, each wrapped as {"span":{...}}.
func ReadSpans(r io.Reader) (Header, model.History, []obs.Span, error) {
	var hdr Header
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, nil, fmt.Errorf("%w: %w", ErrBadTrace, err)
		}
		return hdr, nil, nil, fmt.Errorf("%w: empty input", ErrBadTrace)
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, nil, fmt.Errorf("%w: header: %w", ErrBadTrace, err)
	}
	if hdr.Version != FormatVersion {
		return hdr, nil, nil, fmt.Errorf("%w: unsupported version %d (this reader handles version %d only)", ErrBadTrace, hdr.Version, FormatVersion)
	}
	if hdr.N < 0 || hdr.T < 0 {
		// A bound below 0 would read as "every subfamily has a witness".
		return hdr, nil, nil, fmt.Errorf("%w: header: n = %d, t = %d; neither can be negative", ErrBadTrace, hdr.N, hdr.T)
	}
	var h model.History
	var spans []obs.Span
	// A run has a handful of distinct tags, and the decoder hands every event
	// a copy of its own: keep the first, so equal tags share their bytes as
	// they do in a history straight out of the simulator.
	tags := make(map[string]string)
	line := 1
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if bytes.HasPrefix(b, spanPrefix) {
			var sl spanLine
			if err := json.Unmarshal(b, &sl); err != nil {
				return hdr, nil, nil, fmt.Errorf("%w: line %d: %w", ErrBadTrace, line, err)
			}
			if sl.Span == nil {
				return hdr, nil, nil, fmt.Errorf("%w: line %d: span line without span object", ErrBadTrace, line)
			}
			spans = append(spans, *sl.Span)
			continue
		}
		var e model.Event
		if err := json.Unmarshal(b, &e); err != nil {
			return hdr, nil, nil, fmt.Errorf("%w: line %d: %w", ErrBadTrace, line, err)
		}
		if t, ok := tags[e.Tag]; ok {
			e.Tag = t
		} else {
			tags[e.Tag] = e.Tag
		}
		h = append(h, e)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, nil, fmt.Errorf("%w: %w", ErrBadTrace, err)
	}
	return hdr, h.Normalize(), spans, nil
}

// spanPrefix is how a span line begins as emitted by WriteSpans
// (encoding/json renders the single-field wrapper deterministically).
var spanPrefix = []byte(`{"span":`)
