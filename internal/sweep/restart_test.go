package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"failstop/internal/recovery"
)

// recoverySpec is the acceptance-criteria sweep: the restart-storm plan
// gridded over every recovery mode, with timelines and checking on, so a
// single spec exercises restart execution, the recovery report columns,
// and the obs/timeline aggregation paths together.
func recoverySpec() Spec {
	return Spec{
		Grid:     []NT{{5, 2}},
		Seeds:    SeedRange{Count: 6},
		MaxTime:  3000,
		Recovery: []recovery.Mode{recovery.Off, recovery.Amnesia, recovery.Durable},
		Timeline: true, TimelineEvery: 10,
		Check: true,
	}
}

// TestRecoveryAxisExpansion: the recovery axis is innermost and defaults
// to {Off}, and the mode shows up in the cell identity string.
func TestRecoveryAxisExpansion(t *testing.T) {
	spec := Spec{
		Grid:     []NT{{5, 2}},
		Plans:    plansByName(t, "restart-storm"),
		Recovery: []recovery.Mode{recovery.Off, recovery.Durable},
		MaxTime:  1000,
	}
	cells := spec.Cells()
	if len(cells) != 2 {
		t.Fatalf("expanded to %d cells, want 2", len(cells))
	}
	if cells[0].Recovery != recovery.Off || cells[1].Recovery != recovery.Durable {
		t.Errorf("recovery axis order: %v, %v", cells[0].Recovery, cells[1].Recovery)
	}
	if got := cells[1].String(); !strings.Contains(got, "rec=durable") {
		t.Errorf("cell string %q does not name the recovery mode", got)
	}
	if got := cells[0].String(); strings.Contains(got, "rec=") {
		t.Errorf("cell string %q names recovery mode off", got)
	}
}

// TestRecoveryValidateUnboundedPlan: an unbounded restart plan with a
// recovering mode and no horizon is a spec error, not a worker panic.
func TestRecoveryValidateUnboundedPlan(t *testing.T) {
	spec := Spec{
		Grid:     []NT{{5, 2}},
		Plans:    plansByName(t, "restart-storm"),
		Recovery: []recovery.Mode{recovery.Amnesia},
	}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "forever") {
		t.Errorf("Validate() = %v, want unbounded-plan error", err)
	}
	// Off-only is fine: the first storm window is terminal.
	spec.Recovery = []recovery.Mode{recovery.Off}
	if err := spec.Validate(); err != nil {
		t.Errorf("Validate() with Off = %v, want nil", err)
	}
}

// TestRecoverySweepStableAcrossWorkersAndShards is the acceptance
// criterion: a restart-storm sweep over all three recovery modes, with
// metrics and timelines on, renders byte-identically no matter the worker
// count, and its shard reports merge back to exactly the unsharded report.
func TestRecoverySweepStableAcrossWorkersAndShards(t *testing.T) {
	spec := recoverySpec()
	spec.Plans = plansByName(t, "restart-storm")

	render := func(rep *Report) (string, string) {
		rep.Workers = 0
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String(), string(raw)
	}

	base, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseText, baseJSON := render(base)
	if !strings.Contains(baseText, "restarts") || !strings.Contains(baseText, "recovered") {
		t.Fatalf("report lacks recovery columns:\n%s", baseText)
	}

	// The storm must actually execute, and durable restarts must recover.
	for _, c := range base.Cells {
		if c.Cell.Recovery == recovery.Off {
			if c.Obs["sim_restarts_total"] != 0 {
				t.Errorf("off cell restarted %d times", c.Obs["sim_restarts_total"])
			}
			continue
		}
		if c.Obs["sim_plan_crashes_total"] == 0 || c.Obs["sim_restarts_total"] == 0 {
			t.Errorf("%v: PlanCrashes=%d Restarts=%d, want both > 0", c.Cell, c.Obs["sim_plan_crashes_total"], c.Obs["sim_restarts_total"])
		}
		wantRecovered := int64(0)
		if c.Cell.Recovery == recovery.Durable {
			wantRecovered = c.Obs["sim_restarts_total"]
		}
		if c.Obs["sim_recovered_total"] != wantRecovered {
			t.Errorf("%v: Recovered=%d, want %d", c.Cell, c.Obs["sim_recovered_total"], wantRecovered)
		}
	}

	for _, workers := range []int{2, 8} {
		rep, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		text, raw := render(rep)
		if text != baseText {
			t.Errorf("workers=%d: rendered report diverged:\n--- baseline\n%s\n--- got\n%s", workers, baseText, text)
		}
		if raw != baseJSON {
			t.Errorf("workers=%d: JSON report diverged", workers)
		}
	}

	const k = 3
	var shards []*Report
	for i := 0; i < k; i++ {
		s := spec
		s.Shard = Shard{Index: i, Count: k}
		rep, err := Run(s, Options{Workers: 2})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("shard %d: WriteJSON: %v", i, err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("shard %d: ReadJSON: %v", i, err)
		}
		shards = append(shards, back)
	}
	merged, err := Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	mergedText, mergedJSON := render(merged)
	if mergedText != baseText || mergedJSON != baseJSON {
		t.Errorf("merged shard reports diverged from the unsharded report:\n--- baseline\n%s\n--- merged\n%s", baseText, mergedText)
	}
	if !reflect.DeepEqual(merged, base) {
		t.Error("merged report structurally differs from the unsharded report")
	}
}
