package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"failstop/internal/byz"
	"failstop/internal/netadv"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
	"failstop/internal/topo"
)

// updateGolden rewrites testdata/report_golden.* from the current engine.
// The committed files were captured before the accumulator and the report
// columns were rebuilt around CellResult.Obs; re-capture only for a change
// that means to alter the report, and say so in CHANGES.md.
var updateGolden = flag.Bool("update", false, "rewrite testdata/report_golden.* from the current engine")

// goldenReportSpec lights every column of the report in 32 cells: a
// fault-free plan, one that drops and duplicates (no built-in plan
// duplicates), a crash-restart and a Byzantine plan, each over
// the mesh and a gossip overlay, with the reliable layer and the
// validation interposer off and on, under durable recovery, with
// heartbeats (the false-suspicion metric), timelines and the checker.
func goldenReportSpec() Spec {
	falseSusp, _ := Builtin("false-suspicion")
	lossyDup := netadv.Generator{Name: "lossy-dup", Make: func(n, t int) netadv.Plan {
		return netadv.Plan{Name: "lossy-dup", Rules: []netadv.Rule{{Drop: 0.2, Duplicate: 0.2, JitterMax: 5}}}
	}}
	return Spec{
		Grid:             []NT{{8, 2}},
		Schedules:        []Schedule{falseSusp},
		Plans:            append([]netadv.Generator{{}, lossyDup}, builtinPlans("restart-storm", "byzantine-minority")...),
		Topologies:       []topo.Spec{{}, {Kind: topo.KindGossip, Fanout: 3}},
		Reliable:         []reliable.Options{{}, {Enabled: true, MaxRetries: 5}},
		Recovery:         []recovery.Mode{recovery.Durable},
		Byzantine:        []byz.Options{{}, {Enabled: true}},
		Seeds:            SeedRange{Start: 1, Count: 4},
		MaxTime:          1500,
		HeartbeatEvery:   25,
		HeartbeatTimeout: 80,
		Timeline:         true,
		TimelineEvery:    10,
		Check:            true,
	}
}

// renderings returns the report's three serialized forms. Workers is
// execution bookkeeping (and 0 on a merged report), so it is zeroed first.
func renderings(t *testing.T, rep *Report) map[string][]byte {
	t.Helper()
	rep.Workers = 0
	var csv, js bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"txt": []byte(rep.String()), "csv": csv.Bytes(), "json": js.Bytes()}
}

// TestReportGolden compares the text, CSV and JSON renderings of
// goldenReportSpec, byte for byte, against files captured at the commit
// before the sweep accumulator became a CellResult under construction —
// from unsharded runs on 1, 2 and 8 workers, and once from three shards that
// each went through WriteJSON and ReadJSON before Merge. The spec has no
// Runner and no Observe hook, so every run's Result is released to the next:
// a history or a snapshot read after its release moves a column.
func TestReportGolden(t *testing.T) {
	spec := goldenReportSpec()
	type rendered struct {
		what string
		as   map[string][]byte
	}
	var got []rendered
	for _, workers := range []int{1, 2, 8} {
		unsharded, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rendered{"unsharded report on " + strconv.Itoa(workers) + " worker(s)", renderings(t, unsharded)})
	}
	var shards []*Report
	for i := 0; i < 3; i++ {
		back, err := ReadJSON(bytes.NewReader(shardJSON(t, spec, i, 3)))
		if err != nil {
			t.Fatalf("shard %d: ReadJSON: %v", i, err)
		}
		shards = append(shards, back)
	}
	merged, err := Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, rendered{"report merged from 3 shard files", renderings(t, merged)})

	for _, ext := range []string{"txt", "csv", "json"} {
		path := filepath.Join("testdata", "report_golden."+ext)
		if *updateGolden {
			if err := os.WriteFile(path, got[0].as[ext], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if !bytes.Equal(r.as[ext], want) {
				t.Errorf("%s: %s differs from the golden file (%d bytes, want %d)", path, r.what, len(r.as[ext]), len(want))
			}
		}
	}
}

// TestEveryColumnHasAProducer ties each row of the column table to the layer
// that exports its metric. The name is the only link between the two: a
// misspelt one would print a column of zeros. Over goldenReportSpec, which
// lights every group, each metric is totalled in some cell and non-zero in
// some cell.
func TestEveryColumnHasAProducer(t *testing.T) {
	rep, err := Run(goldenReportSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range columns {
		present, nonZero := false, false
		for i := range rep.Cells {
			v, ok := rep.Cells[i].Obs[col.metric]
			present = present || ok
			nonZero = nonZero || v != 0
		}
		if !present {
			t.Errorf("column %q reads %q, which no run exports", col.heading, col.metric)
		} else if !nonZero {
			t.Errorf("column %q (%s) is zero in every cell of a spec meant to light it", col.heading, col.metric)
		}
	}
}

// TestOneRowAddsAColumn is the "adding a counter is a one-line change"
// proof: a metric the simulator already exports, with no CellResult field,
// becomes a text column (gated on its row's group) and a CSV column by
// appending one row to the column table.
func TestOneRowAddsAColumn(t *testing.T) {
	crash, _ := Builtin("crash")
	spec := Spec{
		Grid:      []NT{{5, 2}},
		Schedules: []Schedule{crash},
		Reliable:  []reliable.Options{{}, {Enabled: true, MaxRetries: 3}},
		Seeds:     SeedRange{Count: 2},
	}
	bare := spec
	bare.Reliable = nil
	withRel, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withoutRel, err := Run(bare, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(withRel.CellTable(), "timers") {
		t.Fatal("the report already has a timers column")
	}

	defer func(saved []column) { columns = saved }(columns)
	columns = append(columns[:len(columns):len(columns)],
		column{metric: "sim_timers_fired_total", heading: "timers", csv: "timers_fired", group: groupReliable})

	table := withRel.CellTable()
	lines := strings.Split(table, "\n")
	if !strings.HasSuffix(strings.TrimSpace(lines[0]), "timers") {
		t.Fatalf("no timers column after the reliable group's:\n%s", table)
	}
	// lines[2] is the bare cell (no retransmission timers), lines[3] the
	// reliable one; the new column is the row's last field.
	for i, c := range withRel.Cells {
		fields := strings.Fields(lines[2+i])
		if got, want := fields[len(fields)-1], strconv.FormatInt(c.Obs["sim_timers_fired_total"], 10); got != want {
			t.Errorf("cell %v: timers column reads %s, want %s", c.Cell, got, want)
		}
	}
	if withRel.Cells[1].Obs["sim_timers_fired_total"] == 0 {
		t.Error("the reliable cell fired no timers; the column proves nothing")
	}
	if strings.Contains(withoutRel.CellTable(), "timers") {
		t.Error("timers column shows although no cell lights its group")
	}
	var csv strings.Builder
	if err := withoutRel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if header := strings.SplitN(csv.String(), "\n", 2)[0]; !strings.Contains(header, ",timers_fired,events_p50,") {
		t.Errorf("CSV header lacks the new column before events_p50: %s", header)
	}
}
