package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"failstop/internal/model"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

var smokeParams = runParams{seed: 1, seconds: 0.02, smoke: true}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts that got holds exactly the metrics want lists, each
// with the listed unit and a finite value.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: BENCHMARK.json lists %s, the run did not report it", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %s = %v is not finite", what, m.Name, g.Value)
		}
	}
	for name := range got {
		if !listed[name] {
			t.Errorf("%s: the run reported %s, which BENCHMARK.json does not list", what, name)
		}
	}
}

// TestSpec checks BENCHMARK.json against the limits the pipeline's driver
// enforces before a single run, and against the workloads the harness has.
func TestSpec(t *testing.T) {
	spec := mustSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("%d end-to-end, %d per-layer metrics, run_seconds %d: outside the driver's limits", len(spec.EndToEnd), len(spec.PerLayer), spec.RunSeconds)
	}
}

// TestSmoke runs every workload untraced and traced, and the probes, at
// smoke size: every op must pass its correctness check, the traced stack
// must leave sim_digest unchanged (traceWorkload fails otherwise), and the
// names and units reported must be exactly those BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	spec := mustSpec(t)
	probes := newResult(workloads[0], smokeParams, true)
	if err := runProbes(probes, smokeParams); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := measure(w, smokeParams)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < w.smokeCycle {
			t.Errorf("%s: correct=%v after %d ops: %s", w.name, res.Correct, res.Attempted, res.FirstErr)
		}
		checkMetrics(t, w.name, res.Metrics, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			}
		}

		traced, err := traceWorkload(w, smokeParams)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: %s", w.name, traced.FirstErr)
		}
		if traced.Digest != res.Digest {
			t.Errorf("%s: sim_digest %s traced, %s untraced", w.name, traced.Digest, res.Digest)
		}
		for name, m := range probes.Metrics {
			traced.Metrics[name] = m
		}
		checkMetrics(t, w.name+" traced", traced.Metrics, spec.PerLayer)
	}
}

// TestDriverLine checks the contract of a single-workload run: the last
// line of standard output is one JSON object with exactly four keys.
func TestDriverLine(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"--workload", "detect-sfs-n20", "--seed", "7", "--seconds", "0.02", "--trace", "0", "-smoke"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result has no %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("result has %d keys, want exactly 4: %s", len(got), lines[len(lines)-1])
	}
	if code := run([]string{"--workload", "nope"}, &out, &errw); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestTickLatencyExtractor checks simStats on hand-built histories.
func TestTickLatencyExtractor(t *testing.T) {
	at := func(e model.Event, tick int64) model.Event { e.Time = tick; return e }

	// An erroneous suspicion: 2 suspects 1 at tick 10, detects it at 18,
	// and 1 only crashes (on its own death sentence) at 30.
	var s simStats
	s.add(model.History{
		at(model.Internal(2, "suspect", 1), 10),
		at(model.Failed(2, 1), 18),
		at(model.Crash(1), 30),
	}, 2)
	if len(s.detect) != 1 || s.detect[0] != 8 {
		t.Errorf("suspect→failed samples = %v, want [8]", s.detect)
	}
	if len(s.detectAll) != 0 {
		t.Errorf("crash→detected-by-all samples = %v, want none: the detection preceded the crash", s.detectAll)
	}
	if s.failed != 1 || s.expected != 1 || s.undetected != 0 || s.falseSuspicions != 1 {
		t.Errorf("failed=%d expected=%d undetected=%d falseSuspicions=%d, want 1 1 0 1", s.failed, s.expected, s.undetected, s.falseSuspicions)
	}

	// A genuine crash of 3 at tick 2 that only process 1 of the two
	// survivors detects; then the same run with 2 detecting as well.
	partial := model.History{
		at(model.Crash(3), 2),
		at(model.Internal(1, "suspect", 3), 50),
		at(model.Failed(1, 3), 57),
	}
	s = simStats{}
	s.add(partial, 3)
	if s.expected != 2 || s.undetected != 1 || len(s.detectAll) != 0 || s.falseSuspicions != 0 {
		t.Errorf("partial detection: expected=%d undetected=%d detectAll=%v falseSuspicions=%d, want 2 1 [] 0", s.expected, s.undetected, s.detectAll, s.falseSuspicions)
	}
	s = simStats{}
	s.add(append(partial, at(model.Internal(2, "suspect", 3), 58), at(model.Failed(2, 3), 66)), 3)
	if s.undetected != 0 || len(s.detectAll) != 1 || s.detectAll[0] != 64 {
		t.Errorf("full detection: undetected=%d detectAll=%v, want 0 [64]", s.undetected, s.detectAll)
	}
	if got := tickPercentile(s.detect, 0.5); got != 7 {
		t.Errorf("p50 of %v = %v, want 7 (nearest rank)", s.detect, got)
	}
}

// TestVerdict checks -compare's three outcomes.
func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		name   string
		worse  float64
		a, b   []float64
		expect string
	}{
		{"within bound", 0.03, steady, []float64{10.3, 10.2, 10.4, 10.3, 10.3}, "ok"},
		{"beyond bound", 0.20, steady, []float64{12, 12.1, 11.9, 12, 12}, "worse"},
		{"noisy side", 0.02, steady, []float64{8, 12, 10, 14, 7}, "unresolved"},
		{"noisy but every run better", -0.5, []float64{20, 30, 25, 40, 22}, []float64{5, 5.1, 4.9, 5, 5}, "ok"},
	} {
		if got := verdict(tc.worse, lower, tc.a, tc.b); got != tc.expect {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.expect)
		}
	}
}
