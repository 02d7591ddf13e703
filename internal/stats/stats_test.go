package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-9 {
		t.Errorf("std = %v", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.P95 != 7 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {150, 40},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
}

// Property: Min <= Median <= P95 <= P99 <= P999 <= Max and Mean within
// [Min, Max] — the full quantile ladder the observability plane exposes.
func TestSummaryOrdering(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median+1e-9 && s.Median <= s.P95+1e-9 &&
			s.P95 <= s.P99+1e-9 && s.P99 <= s.P999+1e-9 &&
			s.P999 <= s.Max+1e-9 && s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarizeTailQuantiles(t *testing.T) {
	// 1..1000: the tail quantiles interpolate over the top of the range.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	for _, tt := range []struct {
		name      string
		got, want float64
	}{
		{"P99", s.P99, 990.01},
		{"P999", s.P999, 999.001},
		{"Min", s.Min, 1},
		{"Max", s.Max, 1000},
	} {
		if math.Abs(tt.got-tt.want) > 1e-6 {
			t.Errorf("%s = %v, want %v", tt.name, tt.got, tt.want)
		}
	}
	// Degenerate sets collapse every quantile to the sample.
	s = Summarize([]float64{5})
	if s.P99 != 5 || s.P999 != 5 {
		t.Errorf("single-sample tail quantiles = %v / %v, want 5", s.P99, s.P999)
	}
}

// TestSummaryJSONRoundTrip: Summary is a wire struct (sweep shard
// reports); every field — including the tail quantiles — must survive
// encoding.
func TestSummaryJSONRoundTrip(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 100})
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"p95"`, `"p99"`, `"p999"`, `"min"`, `"max"`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("encoded summary missing %s: %s", field, raw)
		}
	}
	var back Summary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip = %+v, want %+v", back, s)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("n", "t", "result").
		Row(5, 2, "ok").
		Row(100, 10, 3.14159)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "result") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[3], "3.14") {
		t.Errorf("float not formatted: %q", lines[3])
	}
	// Columns align: every line same width or longer header separator.
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator missing: %q", lines[1])
	}
}
