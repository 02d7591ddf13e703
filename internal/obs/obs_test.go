package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"failstop/internal/model"
)

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	var zeta, mid Counter
	var alpha Gauge
	r.RegisterCounter("zeta_total", &zeta)
	r.RegisterGauge("alpha_level", &alpha)
	r.RegisterCounter("mid_total", &mid)
	zeta.Add(3)
	alpha.Set(-2)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	if v := snap.Value("zeta_total"); v != 3 {
		t.Errorf("zeta_total = %d, want 3", v)
	}
	if v := snap.Value("alpha_level"); v != -2 {
		t.Errorf("alpha_level = %d, want -2", v)
	}
	if m, ok := snap.Get("mid_total"); !ok || m.Kind != KindCounter || m.Value != 0 {
		t.Errorf("mid_total = %+v", m)
	}
	if m, _ := snap.Get("alpha_level"); m.Kind != KindGauge {
		t.Errorf("alpha_level kind = %s, want gauge", m.Kind)
	}
}

func TestRegistryDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	var a, b Counter
	r.RegisterCounter("dup_total", &a)
	r.RegisterCounter("dup_total", &b)
}

func TestRegistryBadNamePanics(t *testing.T) {
	for _, name := range []string{"", "Upper", "has-dash", "_leading", "9leading", "spa ce"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			var c Counter
			NewRegistry().RegisterCounter(name, &c)
		}()
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	var c Counter
	var g Gauge
	r.RegisterCounter("w", &c)
	r.RegisterGauge("x", &g)
	if snap := r.Snapshot(); snap != nil {
		t.Errorf("nil registry snapshot = %v, want nil", snap)
	}
}

func TestRegisteredInstrumentObserved(t *testing.T) {
	// The embed-and-register pattern the hot paths use: the host owns the
	// zero-value instrument, the registry only exposes it.
	r := NewRegistry()
	var sent Counter
	r.RegisterCounter("sim_sent_total", &sent)
	sent.Add(41)
	sent.Inc()
	if v := r.Snapshot().Value("sim_sent_total"); v != 42 {
		t.Errorf("sim_sent_total = %d, want 42", v)
	}
}

func TestMergeSumsAndSorts(t *testing.T) {
	a := Metrics{
		{Name: "b_total", Kind: KindCounter, Value: 2},
		{Name: "a_total", Kind: KindCounter, Value: 1},
	}
	b := Metrics{
		{Name: "b_total", Kind: KindCounter, Value: 5},
		{Name: "c_level", Kind: KindGauge, Value: 7},
	}
	got := Merge(a, b)
	want := Metrics{
		{Name: "a_total", Kind: KindCounter, Value: 1},
		{Name: "b_total", Kind: KindCounter, Value: 7},
		{Name: "c_level", Kind: KindGauge, Value: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d metrics, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Inputs must not be modified.
	if a[0].Value != 2 || b[0].Value != 5 {
		t.Error("Merge modified its inputs")
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	var sent Counter
	var inflight Gauge
	r.RegisterCounter("sent_total", &sent)
	r.RegisterGauge("inflight", &inflight)
	sent.Add(9)
	inflight.Set(4)
	snap := r.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"counter"`) {
		t.Errorf("kind not encoded as text: %s", raw)
	}
	var back Metrics
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Errorf("round trip = %+v, want %+v", back, snap)
	}
}

func TestKindUnmarshalRejectsUnknown(t *testing.T) {
	for _, name := range []string{"exotic", "histogram"} {
		var k Kind
		if err := k.UnmarshalText([]byte(name)); err == nil {
			t.Errorf("kind %q decoded without error, as %s", name, k)
		}
	}
	if _, err := Kind(0).MarshalText(); err == nil {
		t.Error("invalid kind encoded without error")
	}
}

func TestSpanSamplingDeterministic(t *testing.T) {
	a := NewSpanRecorder(7, 0.5)
	b := NewSpanRecorder(7, 0.5)
	sampled := 0
	for m := model.MsgID(1); m <= 1000; m++ {
		if a.Sampled(m) != b.Sampled(m) {
			t.Fatalf("msg %d: sampling differs between identical recorders", m)
		}
		if a.Sampled(m) {
			sampled++
		}
	}
	// The mix is unbiased: at rate 0.5 over 1000 messages the count should
	// land well inside (250, 750).
	if sampled < 250 || sampled > 750 {
		t.Errorf("sampled %d of 1000 at rate 0.5", sampled)
	}
	// A different seed selects a different message set.
	c := NewSpanRecorder(8, 0.5)
	same := 0
	for m := model.MsgID(1); m <= 1000; m++ {
		if a.Sampled(m) == c.Sampled(m) {
			same++
		}
	}
	if same == 1000 {
		t.Error("seed does not influence sampling")
	}
}

func TestSpanSamplingRateBounds(t *testing.T) {
	all := NewSpanRecorder(1, 1.0)
	none := NewSpanRecorder(1, 0.0)
	clampedHi := NewSpanRecorder(1, 2.5)
	clampedLo := NewSpanRecorder(1, -1)
	for m := model.MsgID(1); m <= 100; m++ {
		if !all.Sampled(m) || !clampedHi.Sampled(m) {
			t.Fatalf("msg %d not sampled at rate 1", m)
		}
		if none.Sampled(m) || clampedLo.Sampled(m) {
			t.Fatalf("msg %d sampled at rate 0", m)
		}
	}
}

func TestSpanRecorderSequentialIDs(t *testing.T) {
	r := NewSpanRecorder(1, 1)
	id1 := r.Record(Span{Kind: SpanSend, Proc: 1, Msg: 10})
	id2 := r.Record(Span{Kind: SpanDeliver, Proc: 2, Msg: 10, Parent: id1})
	if id1 != 1 || id2 != 2 {
		t.Errorf("ids = %d, %d, want 1, 2", id1, id2)
	}
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0].ID != 1 || spans[1].ID != 2 || spans[1].Parent != 1 {
		t.Errorf("spans = %+v", spans)
	}
}

func TestNilSpanRecorderSafe(t *testing.T) {
	var r *SpanRecorder
	if r.Sampled(1) {
		t.Error("nil recorder sampled a message")
	}
	if id := r.Record(Span{Kind: SpanSend}); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	if r.Spans() != nil {
		t.Error("nil recorder not inert")
	}
}

func TestSpanKindKnown(t *testing.T) {
	for _, k := range []SpanKind{SpanSend, SpanFate, SpanEnqueue, SpanDeliver,
		SpanDrop, SpanRetransmit, SpanSuspect, SpanCrashConfirm, SpanRestart, SpanByzDetect} {
		if !k.Known() {
			t.Errorf("kind %q not Known", k)
		}
	}
	if SpanKind("future-kind").Known() {
		t.Error("unknown kind reported Known")
	}
}

func TestTimelineCadenceAndSnapshot(t *testing.T) {
	tl := NewTimeline(10, 0)
	if tl.Every() != 10 {
		t.Errorf("Every = %d, want 10", tl.Every())
	}
	tl.Observe("inflight", 0, 1)
	tl.Observe("inflight", 10, 3)
	tl.Observe("backlog", 0, 2)
	snap := tl.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	if snap[0].Name != "backlog" || snap[1].Name != "inflight" {
		t.Errorf("series not sorted: %q, %q", snap[0].Name, snap[1].Name)
	}
	in := snap[1]
	if in.Every != 10 || len(in.Points) != 2 || in.Points[1].Value != 3 {
		t.Errorf("inflight = %+v", in)
	}
	if in.Peak != 3 {
		t.Errorf("Peak = %g, want 3", in.Peak)
	}
}

// TestTimelinePeakOutlivesEviction: a series' peak is the largest value it
// was ever given, even once the ring has evicted that point, and a series
// that only ever falls peaks at its first value.
func TestTimelinePeakOutlivesEviction(t *testing.T) {
	tl := NewTimeline(1, 2)
	for i, v := range []float64{1, 7, 2, 3} {
		tl.Observe("rise", int64(i), v)
		tl.Observe("fall", int64(i), -v)
	}
	snap := tl.Snapshot()
	fall, rise := snap[0], snap[1]
	if rise.Peak != 7 || rise.Dropped != 2 || rise.Points[0].Value != 2 || rise.Points[1].Value != 3 {
		t.Errorf("rise = %+v, want peak 7 over surviving points 2, 3", rise)
	}
	if fall.Peak != -1 {
		t.Errorf("fall peak = %g, want -1", fall.Peak)
	}
}

func TestTimelineRingEviction(t *testing.T) {
	tl := NewTimeline(1, 4)
	for i := int64(0); i < 10; i++ {
		tl.Observe("s", i, float64(i))
	}
	snap := tl.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series, want 1", len(snap))
	}
	s := snap[0]
	if s.Dropped != 6 || len(s.Points) != 4 {
		t.Fatalf("dropped=%d points=%d, want 6 and 4", s.Dropped, len(s.Points))
	}
	for i, p := range s.Points {
		if want := float64(6 + i); p.Value != want {
			t.Errorf("point %d = %g, want %g (oldest evicted first)", i, p.Value, want)
		}
	}
}

func TestTimelineClampsEveryAndCap(t *testing.T) {
	tl := NewTimeline(0, -1)
	if tl.Every() != 1 {
		t.Errorf("Every = %d, want clamped to 1", tl.Every())
	}
	if tl.cap != DefaultTimelineCap {
		t.Errorf("cap = %d, want %d", tl.cap, DefaultTimelineCap)
	}
}

func TestNilTimelineSafe(t *testing.T) {
	var tl *Timeline
	tl.Observe("x", 0, 1)
	if tl.Snapshot() != nil || tl.Every() != 0 {
		t.Error("nil timeline not inert")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var sent Counter
	var inflight Gauge
	r.RegisterCounter("sent_total", &sent)
	r.RegisterGauge("inflight", &inflight)
	sent.Add(12)
	inflight.Set(4)
	var b strings.Builder
	// A metric of no valid kind is skipped rather than rendered unparsable.
	if err := WritePrometheus(&b, append(r.Snapshot(), Metric{Name: "bad", Value: 1})); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if want := "# TYPE inflight gauge\ninflight 4\n" +
		"# TYPE sent_total counter\nsent_total 12\n"; out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
	// Rendering the same snapshot twice is byte-identical.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("two renderings of the same registry differ")
	}
}

func TestMetricsString(t *testing.T) {
	r := NewRegistry()
	var a Counter
	var b Gauge
	r.RegisterCounter("a_total", &a)
	r.RegisterGauge("b_level", &b)
	a.Add(3)
	b.Set(-1)
	got := r.Snapshot().String()
	if got != "a_total=3\nb_level=-1\n" {
		t.Errorf("String() = %q", got)
	}
}
