package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"failstop/internal/model"
	"failstop/internal/obs"
)

func sampleSpans() []obs.Span {
	return []obs.Span{
		{ID: 1, Kind: obs.SpanSend, Time: 0, Proc: 1, Peer: 2, Msg: 1, Tag: "SUSP"},
		{ID: 2, Parent: 1, Kind: obs.SpanFate, Time: 0, Proc: 1, Peer: 2, Msg: 1, Note: "drop p=0.35"},
		{ID: 3, Parent: 1, Kind: obs.SpanEnqueue, Time: 0, Proc: 2, Msg: 1},
		{ID: 4, Parent: 3, Kind: obs.SpanDeliver, Time: 3, Proc: 2, Peer: 1, Msg: 1, Tag: "SUSP"},
		{ID: 5, Parent: 4, Kind: obs.SpanSuspect, Time: 3, Proc: 2, Target: 3},
		{ID: 6, Parent: 4, Kind: obs.SpanCrashConfirm, Time: 9, Proc: 2, Target: 3},
	}
}

// TestSpanRoundTrip: a v3 trace carries its spans losslessly, and the
// header records their count.
func TestSpanRoundTrip(t *testing.T) {
	h := sample()
	spans := sampleSpans()
	var buf bytes.Buffer
	hdr := Header{N: 3, T: 1, Protocol: "sfs", Seed: 42, SpanRate: 0.5}
	if err := WriteSpans(&buf, hdr, h, spans); err != nil {
		t.Fatal(err)
	}
	got, gh, gs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || got.SpanCount != len(spans) || got.SpanRate != 0.5 {
		t.Errorf("header = %+v", got)
	}
	if len(gh) != len(h) {
		t.Errorf("history length %d, want %d", len(gh), len(h))
	}
	if !reflect.DeepEqual(gs, spans) {
		t.Errorf("spans = %+v\nwant %+v", gs, spans)
	}
}

// TestWriteWithoutSpansStaysSpanFree: the common path (Write, no spans)
// must not sprout span lines or a span count.
func TestWriteWithoutSpansStaysSpanFree(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{N: 3}, sample()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"span"`) {
		t.Errorf("span artifacts in a span-free trace:\n%s", buf.String())
	}
	hdr, _, spans, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.SpanCount != 0 || spans != nil {
		t.Errorf("span-free trace read back count=%d spans=%v", hdr.SpanCount, spans)
	}
}

// TestReadVersion2: a version-2 trace (fault metadata, no spans) is refused
// like every version but the current one.
func TestReadVersion2(t *testing.T) {
	in := `{"version":2,"n":2,"t":1,"protocol":"sfs","seed":7,"schedule":"mutual","plan":"split-brain"}` + "\n" +
		`{"seq":0,"proc":1,"kind":3}` + "\n"
	_, h, spans, err := ReadSpans(strings.NewReader(in))
	if !errors.Is(err, ErrBadTrace) || h != nil || spans != nil {
		t.Fatalf("version-2 trace: err = %v, h = %v, spans = %v; want ErrBadTrace and nothing else", err, h, spans)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, "version 3") {
		t.Errorf("error %q does not name versions 2 and 3", msg)
	}
}

// TestVersion1SpanLinesAreEvents: an old-version header is refused before
// any line below it is looked at, so span lines under one never come back
// as spans.
func TestVersion1SpanLinesAreEvents(t *testing.T) {
	in := `{"version":1,"n":2}` + "\n" +
		`{"span":{"id":1,"kind":"send"}}` + "\n"
	_, _, spans, err := ReadSpans(strings.NewReader(in))
	if !errors.Is(err, ErrBadTrace) || spans != nil {
		t.Errorf("version-1 trace with a span line: err = %v, spans = %v", err, spans)
	}
}

// TestSpanBadJSONRejected: a malformed span line fails loudly.
func TestSpanBadJSONRejected(t *testing.T) {
	in := `{"version":3,"n":2,"span_count":1}` + "\n" +
		`{"span":nope}` + "\n"
	if _, _, _, err := ReadSpans(strings.NewReader(in)); err == nil {
		t.Error("malformed span line parsed without error")
	}
	in = `{"version":3,"n":2,"span_count":1}` + "\n" +
		`{"span":null}` + "\n"
	if _, _, _, err := ReadSpans(strings.NewReader(in)); err == nil {
		t.Error("null span parsed without error")
	}
}

// TestSpanPropertyRoundTrip: arbitrary span slices survive the wire format
// bit-for-bit, whatever their field values.
func TestSpanPropertyRoundTrip(t *testing.T) {
	f := func(ids []int64, kinds []uint8, notes []string) bool {
		n := len(ids)
		if len(kinds) < n {
			n = len(kinds)
		}
		if len(notes) < n {
			n = len(notes)
		}
		if n > 64 {
			n = 64
		}
		known := obs.SpanKinds
		spans := make([]obs.Span, n)
		for i := 0; i < n; i++ {
			note := notes[i]
			if !utf8Valid(note) {
				// encoding/json replaces invalid UTF-8 rather than
				// round-tripping it; that is JSON's contract, not a trace bug.
				note = ""
			}
			spans[i] = obs.Span{
				ID:     ids[i],
				Kind:   known[int(kinds[i])%len(known)],
				Proc:   model.ProcID(int(kinds[i]) % 7),
				Msg:    model.MsgID(ids[i] % 1000),
				Note:   note,
				Time:   int64(i),
				Parent: int64(i),
			}
		}
		var buf bytes.Buffer
		if err := WriteSpans(&buf, Header{N: 7}, sample(), spans); err != nil {
			return false
		}
		_, _, got, err := ReadSpans(&buf)
		if err != nil {
			return false
		}
		if len(spans) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, spans)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func utf8Valid(s string) bool {
	for _, r := range s {
		if r == 0xFFFD {
			return false
		}
	}
	return true
}
