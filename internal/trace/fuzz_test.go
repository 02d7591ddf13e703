package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/obs"
	"failstop/internal/sim"
)

// realTrace records a 5-process run — a crash everyone detects plus a
// false suspicion — with every message's lifecycle sampled, as the v3 trace
// sfs-sim -o -spans would write.
func realTrace(f *testing.F) []byte {
	rec := obs.NewSpanRecorder(3, 1)
	c := cluster.New(cluster.Options{
		Det: core.Config{N: 5, T: 2},
		Sim: sim.Config{Seed: 3, MinDelay: 1, MaxDelay: 5, Spans: rec},
	})
	c.CrashAt(1, 5)
	c.SuspectAt(10, 1, 5)
	c.SuspectAt(12, 2, 3)
	res := c.Run()
	spans := rec.Spans()
	if len(res.History) == 0 || len(spans) == 0 {
		f.Fatalf("seed run recorded %d events and %d spans", len(res.History), len(spans))
	}
	var buf bytes.Buffer
	hdr := Header{N: 5, T: 2, Protocol: "sfs", Seed: 3, Schedule: "crash", SpanRate: 1}
	if err := WriteSpans(&buf, hdr, res.History, spans); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSpans feeds ReadSpans arbitrary bytes: it must not panic, and
// whatever it accepts must be a fixed point of the format — WriteSpans of
// the result reads back to the same history and spans under the same header
// (Version and SpanCount are WriteSpans's to set, N its to default).
// Headers are compared as they serialize, since an empty list in a fault
// plan is written as no list at all.
func FuzzReadSpans(f *testing.F) {
	f.Add(realTrace(f))
	f.Add([]byte(`{"span":{"id":1,"kind":"send"}}` + "\n" + `{"version":3,"n":2}` + "\n"))
	f.Add([]byte(`{"version":3,"n":2,"span_count":1}` + "\n" + `{"span":null}` + "\n"))
	f.Add([]byte(`{"version":3,"n":2,"note":"` + strings.Repeat("a", 1<<20) + `"}`))
	f.Add([]byte(`{"version":3,"n":6,"t":-5}` + "\n" + `{"seq":0,"proc":1,"kind":3,"time":5}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, h, spans, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSpans(&buf, hdr, h, spans); err != nil {
			t.Fatalf("WriteSpans of what ReadSpans accepted: %v", err)
		}
		hdr2, h2, spans2, err := ReadSpans(&buf)
		if err != nil {
			t.Fatalf("ReadSpans of what WriteSpans wrote: %v", err)
		}
		hdr.SpanCount = len(spans)
		if hdr.N == 0 {
			hdr.N = h.Processes()
		}
		want, _ := json.Marshal(hdr)
		got, _ := json.Marshal(hdr2)
		if !bytes.Equal(got, want) {
			t.Errorf("header re-read as %s, want %s", got, want)
		}
		if !reflect.DeepEqual(h2, h) {
			t.Errorf("history re-read as %v, want %v", h2, h)
		}
		if !reflect.DeepEqual(spans2, spans) {
			t.Errorf("spans re-read as %+v, want %+v", spans2, spans)
		}
	})
}
