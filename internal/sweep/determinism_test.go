// Regression tests for the determinism contract sfs-lint enforces
// statically: the same spec and seeds must produce byte-identical reports
// no matter how the host schedules the work — worker-pool size and
// GOMAXPROCS are execution knobs, not inputs.
package sweep

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"failstop/internal/byz"
)

// runAt executes the spec with the given GOMAXPROCS and worker count and
// returns the rendered report and its canonical JSON (Workers zeroed: it
// records execution bookkeeping, not results).
func runAt(t *testing.T, spec Spec, procs, workers int) (string, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep, err := Run(spec, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	rep.Workers = 0
	text := rep.String()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return text, raw
}

// TestReportStableAcrossGOMAXPROCS pins the tentpole invariant end to end:
// a checked sweep with crashes, a fault plan, and the reliable layer in the
// grid produces identical text and JSON under serial, oversubscribed, and
// fully parallel scheduling.
func TestReportStableAcrossGOMAXPROCS(t *testing.T) {
	crash, ok := Builtin("crash")
	if !ok {
		t.Fatal("builtin crash schedule missing")
	}
	spec := Spec{
		Grid:      []NT{{5, 2}},
		Schedules: []Schedule{crash},
		Plans:     plansByName(t, "flaky-quorum"),
		Seeds:     SeedRange{Count: 6},
		MaxTime:   3000,
		Check:     true,
	}
	baseText, baseJSON := runAt(t, spec, 1, 1)
	cases := []struct {
		name           string
		procs, workers int
	}{
		{"procs=1 workers=4 (oversubscribed)", 1, 4},
		{"procs=2 workers=2", 2, 2},
		{"procs=max workers=8", runtime.NumCPU(), 8},
	}
	for _, c := range cases {
		text, raw := runAt(t, spec, c.procs, c.workers)
		if text != baseText {
			t.Errorf("%s: rendered report diverged from serial baseline:\n--- baseline\n%s\n--- got\n%s", c.name, baseText, text)
		}
		if string(raw) != string(baseJSON) {
			t.Errorf("%s: JSON report diverged from serial baseline", c.name)
		}
	}
}

// TestObsTimelineStableAcrossWorkers extends the invariant to the
// observability plane: obs metric totals, per-cell timeline aggregates,
// and the CSV rendering must not depend on the worker count. The spec
// deliberately combines heartbeats with a lossy plan — the configuration
// whose simultaneous-timeout suspicions once leaked map order into the
// report (see fd.Heartbeat.OnTimer).
func TestObsTimelineStableAcrossWorkers(t *testing.T) {
	crash, ok := Builtin("crash")
	if !ok {
		t.Fatal("builtin crash schedule missing")
	}
	spec := Spec{
		Grid:             []NT{{5, 2}},
		Schedules:        []Schedule{crash},
		Plans:            plansByName(t, "flaky-quorum"),
		Seeds:            SeedRange{Count: 8},
		MaxTime:          2000,
		HeartbeatEvery:   25,
		HeartbeatTimeout: 80,
		Timeline:         true,
		TimelineEvery:    5,
		Check:            true,
	}
	render := func(workers int) (string, string) {
		rep, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep.Workers = 0
		var csv strings.Builder
		if err := rep.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), csv.String()
	}
	baseJSON, baseCSV := render(1)
	if !strings.Contains(baseJSON, `"obs"`) || !strings.Contains(baseJSON, `"timeseries"`) {
		t.Fatalf("report carries no obs/timeline data: %s", baseJSON[:200])
	}
	for _, workers := range []int{2, 8} {
		gotJSON, gotCSV := render(workers)
		if gotJSON != baseJSON {
			t.Errorf("workers=%d: JSON (incl. obs totals and timeline aggregates) diverged from serial", workers)
		}
		if gotCSV != baseCSV {
			t.Errorf("workers=%d: CSV diverged from serial", workers)
		}
	}
}

// TestByzantineAxisStableAcrossWorkers extends the invariant to the
// Byzantine axis: a sweep gridding the validation interposer off and on
// over a plan with Byzantine rules must render identical text, JSON, and
// CSV — including the byz_detected/byz_masked conviction totals and the
// fault plane's corrupted/equivocated/replayed injection totals — no
// matter the worker count.
func TestByzantineAxisStableAcrossWorkers(t *testing.T) {
	// false-suspicion keeps the plan's victims (the two highest-numbered
	// processes) alive and talking; the crash schedule would kill them
	// before their first SUSP.
	sched, ok := Builtin("false-suspicion")
	if !ok {
		t.Fatal("builtin false-suspicion schedule missing")
	}
	spec := Spec{
		Grid:      []NT{{5, 2}},
		Schedules: []Schedule{sched},
		Plans:     plansByName(t, "byzantine-minority"),
		Byzantine: []byz.Options{{}, {Enabled: true}},
		Seeds:     SeedRange{Count: 6},
		MaxTime:   3000,
		Check:     true,
	}
	render := func(procs, workers int) (string, string, string) {
		text, raw := runAt(t, spec, procs, workers)
		rep, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep.Workers = 0
		var csv strings.Builder
		if err := rep.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return text, string(raw), csv.String()
	}
	baseText, baseJSON, baseCSV := render(1, 1)
	if !strings.Contains(baseText, " byz") {
		t.Fatalf("cell table carries no byz cells:\n%s", baseText)
	}
	for _, col := range []string{"byz-detected", "corrupted", "equivocated", "replayed"} {
		if !strings.Contains(baseText, col) {
			t.Errorf("cell table missing %q column:\n%s", col, baseText)
		}
	}
	if !strings.Contains(baseCSV, ",byzantine,") || !strings.Contains(baseCSV, ",byz_detected,") {
		t.Errorf("CSV header missing Byzantine columns:\n%s", strings.SplitN(baseCSV, "\n", 2)[0])
	}
	if !strings.Contains(baseJSON, `"byzantine":true`) {
		t.Errorf("JSON report missing interposer-on cell identity")
	}
	// The schedule's SUSP broadcasts flow through the plan's Byzantine
	// rules: both cells must record injections, and the interposer-on
	// cell must convict.
	rep, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Obs["plane_byz_corrupted_total"] == 0 && c.Obs["plane_byz_equivocated_total"] == 0 {
			t.Errorf("cell %q: plan injected no Byzantine faults", c.Cell.String())
		}
		if c.Cell.Byzantine && c.Obs["byz_detected_total"] == 0 {
			t.Errorf("cell %q: interposer on but no convictions", c.Cell.String())
		}
		if !c.Cell.Byzantine && (c.Obs["byz_detected_total"] != 0 || c.Obs["byz_masked_total"] != 0) {
			t.Errorf("cell %q: interposer off but det=%d masked=%d", c.Cell.String(), c.Obs["byz_detected_total"], c.Obs["byz_masked_total"])
		}
	}
	for _, c := range []struct{ procs, workers int }{{1, 4}, {runtime.NumCPU(), 8}} {
		text, raw, csv := render(c.procs, c.workers)
		if text != baseText {
			t.Errorf("procs=%d workers=%d: text report diverged from serial baseline", c.procs, c.workers)
		}
		if raw != baseJSON {
			t.Errorf("procs=%d workers=%d: JSON report diverged from serial baseline", c.procs, c.workers)
		}
		if csv != baseCSV {
			t.Errorf("procs=%d workers=%d: CSV diverged from serial baseline", c.procs, c.workers)
		}
	}
}

// TestShardJSONStableAcrossGOMAXPROCS extends the invariant to the on-disk
// shard format: the bytes a shard writes must not depend on scheduling,
// or CI's byte-identity merge checks would flake.
func TestShardJSONStableAcrossGOMAXPROCS(t *testing.T) {
	spec := Spec{
		Grid:    []NT{{5, 2}, {7, 3}},
		Seeds:   SeedRange{Count: 4},
		MaxTime: 2000,
		Check:   true,
		Shard:   Shard{Index: 1, Count: 2},
	}
	_, baseJSON := runAt(t, spec, 1, 1)
	_, parJSON := runAt(t, spec, runtime.NumCPU(), 8)
	if string(baseJSON) != string(parJSON) {
		t.Error("shard report JSON depends on GOMAXPROCS/worker count")
	}
}
