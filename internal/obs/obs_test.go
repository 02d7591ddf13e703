package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"failstop/internal/model"
)

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total").Add(3)
	r.Gauge("alpha_level").Set(-2)
	r.Histogram("mid_hist").Observe(1.5)
	r.Histogram("mid_hist").Observe(2.5)

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
	m, ok := snap.Get("mid_hist")
	if !ok || m.Summary == nil || m.Summary.N != 2 || m.Summary.Mean != 2.0 {
		t.Errorf("mid_hist = %+v", m)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c_total") != r.Counter("c_total") {
		t.Error("Counter did not return the same instrument twice")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge did not return the same instrument twice")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram did not return the same instrument twice")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("requesting a counter name as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("clash")
	r.Gauge("clash")
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
			NewRegistry().Counter(name)
		}()
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(5)
	r.Histogram("z").Observe(1)
	var c Counter
	r.RegisterCounter("w", &c)
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
	r.Counter("sent_total").Add(9)
	r.Histogram("delay").Observe(3)
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
	if len(back) != 2 || back.Value("sent_total") != 9 {
		t.Errorf("round trip = %+v", back)
	}
	m, _ := back.Get("delay")
	if m.Kind != KindHistogram || m.Summary == nil || m.Summary.N != 1 {
		t.Errorf("histogram round trip = %+v", m)
	}
}

func TestKindUnmarshalRejectsUnknown(t *testing.T) {
	var k Kind
	if err := k.UnmarshalText([]byte("exotic")); err == nil {
		t.Error("unknown kind decoded without error")
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
		SpanDrop, SpanRetransmit, SpanSuspect, SpanCrashConfirm, SpanRestart} {
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
	if mx := in.Max(); mx != 3 {
		t.Errorf("Max = %g, want 3", mx)
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
	r.Counter("sent_total").Add(12)
	r.Gauge("inflight").Set(4)
	h := r.Histogram("delay_ticks")
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sent_total counter\nsent_total 12\n",
		"# TYPE inflight gauge\ninflight 4\n",
		"# TYPE delay_ticks summary\n",
		`delay_ticks{quantile="0.5"} 2.5`,
		`delay_ticks{quantile="0.999"}`,
		"delay_ticks_sum 10\n",
		"delay_ticks_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
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

func TestWritePrometheusEmptyHistogram(t *testing.T) {
	var b strings.Builder
	ms := Metrics{{Name: "empty_hist", Kind: KindHistogram}}
	if err := WritePrometheus(&b, ms); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty_hist_count 0\n") {
		t.Errorf("summary-less histogram rendered as %q", b.String())
	}
}

func TestMetricsString(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Histogram("b_hist").Observe(2)
	got := r.Snapshot().String()
	if got != "a_total=3\nb_hist=~2.00/1\n" {
		t.Errorf("String() = %q", got)
	}
}
