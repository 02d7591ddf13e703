package sweep

import (
	"bytes"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"failstop/internal/byz"
	"failstop/internal/netadv"
)

// shardSpec is the grid the shard tests fan out: two (n, t) cells × two
// schedules × a Byzantine plan with the interposer off and on × 7 seeds
// (7 deliberately coprime with the shard counts under test, so shards get
// uneven slices). The Byzantine axis keeps the merge path honest about
// the conviction and injection totals it recombines.
func shardSpec() Spec {
	crash, _ := Builtin("crash")
	falseSusp, _ := Builtin("false-suspicion")
	return Spec{
		Grid:      []NT{{5, 2}, {8, 2}},
		Schedules: []Schedule{crash, falseSusp},
		Plans:     builtinPlans("byzantine-minority"),
		Byzantine: []byz.Options{{}, {Enabled: true}},
		Seeds:     SeedRange{Start: 3, Count: 7},
		MaxTime:   3000,
		Check:     true,
	}
}

// builtinPlans resolves built-in plan generators by name, panicking on a
// missing name (test-setup helper).
func builtinPlans(names ...string) []netadv.Generator {
	var out []netadv.Generator
	for _, name := range names {
		g, ok := netadv.Builtin(name)
		if !ok {
			panic("no built-in plan " + name)
		}
		out = append(out, g)
	}
	return out
}

// TestShardPartitionDisjointExhaustive is the property test behind Merge's
// correctness: for several shard counts k, the k shards' job streams are
// pairwise disjoint and their union is exactly the unsharded (cell, seed)
// stream.
func TestShardPartitionDisjointExhaustive(t *testing.T) {
	spec := shardSpec().withDefaults()
	numCells := len(spec.Cells())

	type jobKey struct {
		cellIdx int
		seed    int64
	}
	stream := numCells * spec.Seeds.Count
	var all []jobKey
	for g := 0; g < stream; g++ {
		cellIdx, seed, ours := spec.job(g)
		if !ours || cellIdx != g/spec.Seeds.Count || seed < spec.Seeds.Start || seed >= spec.Seeds.Start+int64(spec.Seeds.Count) {
			t.Fatalf("unsharded job(%d) = cell %d, seed %d, ours %v", g, cellIdx, seed, ours)
		}
		all = append(all, jobKey{cellIdx, seed})
	}

	for _, k := range []int{1, 2, 3, 4, 5, 13, 100} {
		seen := map[jobKey]int{}
		total := 0
		for i := 0; i < k; i++ {
			s := spec
			s.Shard = Shard{Index: i, Count: k}
			count := 0
			for g := 0; g < stream; g++ {
				if cellIdx, seed, ours := s.job(g); ours {
					seen[jobKey{cellIdx, seed}]++
					count++
				}
			}
			if count != s.Runs() {
				t.Errorf("k=%d shard %d: emitted %d jobs, Runs() = %d", k, i, count, s.Runs())
			}
			total += count
		}
		if total != len(all) {
			t.Errorf("k=%d: shards cover %d jobs, want %d", k, total, len(all))
		}
		for _, j := range all {
			if seen[j] != 1 {
				t.Errorf("k=%d: job %+v covered %d times, want exactly once", k, j, seen[j])
			}
		}
	}
}

// TestShardMergeEqualsUnsharded is the acceptance criterion: for several
// k, running every shard separately (JSON-round-tripping each report, as
// the CI artifact hand-off does) and merging reproduces the unsharded
// report — reflect.DeepEqual after zeroing Workers, and byte-identical
// String rendering.
func TestShardMergeEqualsUnsharded(t *testing.T) {
	spec := shardSpec()
	unsharded, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	unsharded.Workers = 0

	for _, k := range []int{2, 3, 5} {
		var shards []*Report
		for i := 0; i < k; i++ {
			s := spec
			s.Shard = Shard{Index: i, Count: k}
			rep, err := Run(s, Options{Workers: 2})
			if err != nil {
				t.Fatalf("k=%d shard %d: %v", k, i, err)
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatalf("k=%d shard %d: WriteJSON: %v", k, i, err)
			}
			back, err := ReadJSON(&buf)
			if err != nil {
				t.Fatalf("k=%d shard %d: ReadJSON: %v", k, i, err)
			}
			shards = append(shards, back)
		}
		// Merge in reverse order too: shard artifacts arrive in no
		// particular order.
		for _, order := range [][]*Report{shards, reversed(shards)} {
			merged, err := Merge(order...)
			if err != nil {
				t.Fatalf("k=%d: Merge: %v", k, err)
			}
			if !reflect.DeepEqual(merged, unsharded) {
				t.Errorf("k=%d: merged shard reports differ from the unsharded report:\n--- merged\n%+v\n--- unsharded\n%+v",
					k, merged, unsharded)
			}
			if merged.String() != unsharded.String() {
				t.Errorf("k=%d: merged report renders differently:\n--- merged\n%s\n--- unsharded\n%s",
					k, merged, unsharded)
			}
		}
	}
}

func reversed(in []*Report) []*Report {
	out := make([]*Report, len(in))
	for i, r := range in {
		out[len(in)-1-i] = r
	}
	return out
}

// TestShardReportListsEveryCell: a shard whose slice misses a cell still
// reports that cell (with zero runs), so shard reports align positionally.
func TestShardReportListsEveryCell(t *testing.T) {
	spec := Spec{
		Grid:  []NT{{5, 2}, {8, 2}},
		Seeds: SeedRange{Count: 1}, // 2 jobs over 4 shards: 2 shards go idle
		Shard: Shard{Index: 3, Count: 4},
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (idle shards must still list the full grid)", len(rep.Cells))
	}
	if rep.Runs != 0 {
		t.Errorf("runs = %d, want 0", rep.Runs)
	}
}

// TestMergeRejectsMismatchedReports: merging reports from different specs
// — or an incomplete, duplicated, or overlapping shard set — is an error,
// not a silent misalignment.
func TestMergeRejectsMismatchedReports(t *testing.T) {
	shardOf := func(grid []NT, i, k int) *Report {
		rep, err := Run(Spec{Grid: grid, Shard: Shard{Index: i, Count: k}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	grid := []NT{{5, 2}}
	a0, a1 := shardOf(grid, 0, 2), shardOf(grid, 1, 2)

	if _, err := Merge(); err == nil {
		t.Error("Merge accepted zero reports")
	}
	if _, err := Merge(a0); err == nil {
		t.Error("Merge accepted 1 report of a 2-shard stream (missing shard)")
	}
	if _, err := Merge(a0, a0); err == nil {
		t.Error("Merge accepted a duplicated shard report")
	}
	if _, err := Merge(a0, shardOf(grid, 0, 3)); err == nil {
		t.Error("Merge accepted shards of different stream widths")
	}
	if _, err := Merge(a0, shardOf([]NT{{5, 2}, {8, 2}}, 1, 2)); err == nil {
		t.Error("Merge accepted reports with different cell counts")
	}
	if _, err := Merge(a0, shardOf([]NT{{6, 2}}, 1, 2)); err == nil {
		t.Error("Merge accepted reports with different cell identities")
	}
	noIdentity := *a1
	noIdentity.Shard = Shard{}
	if _, err := Merge(&noIdentity, a0); err == nil {
		t.Error("Merge accepted a report without shard identity")
	}

	// A cell whose run-length samples do not number its runs (here: five
	// runs claimed over the one recorded sample) would skew percentiles.
	skewed := *a1
	skewed.Cells = append([]CellResult(nil), a1.Cells...)
	skewed.Cells[0].Runs = 5
	_, err := Merge(a0, &skewed)
	if err == nil {
		t.Error("Merge accepted a cell with 5 runs and fewer run-length samples")
	} else if !strings.Contains(err.Error(), "report 1 cell 0") {
		t.Errorf("sample-count mismatch error %q does not name the file index and cell", err)
	}

	// The complete, well-formed set still merges.
	if _, err := Merge(a0, a1); err != nil {
		t.Errorf("Merge rejected a complete shard set: %v", err)
	}
}

// shardJSON runs shard i of k of the spec and returns the report file a
// shard job would write.
func shardJSON(t testing.TB, spec Spec, i, k int) []byte {
	t.Helper()
	spec.Shard = Shard{Index: i, Count: k}
	rep, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatalf("shard %d/%d: %v", i, k, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("shard %d/%d: WriteJSON: %v", i, k, err)
	}
	return buf.Bytes()
}

// TestMergeIgnoresRetiredCounterKeys: shard files written before the twelve
// counter fields left CellResult still merge. The retired keys are spliced
// back into every cell of shard 0 the way an older binary wrote them — with
// wrong values, so a reader that honoured them would show — and the merged
// report still renders exactly as the unsharded run does.
func TestMergeIgnoresRetiredCounterKeys(t *testing.T) {
	falseSusp, _ := Builtin("false-suspicion")
	spec := Spec{
		Grid:      []NT{{5, 2}},
		Schedules: []Schedule{falseSusp},
		Plans:     builtinPlans("split-brain"),
		Seeds:     SeedRange{Count: 5},
		MaxTime:   3000,
		Check:     true,
	}
	unsharded, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	retired := ""
	for _, key := range []string{"dropped", "duplicated", "retransmits", "acked_duplicates", "plan_crashes", "restarts",
		"recovered", "byz_detected", "byz_masked", "corrupted", "equivocated", "replayed"} {
		retired += "\n      \"" + key + "\": 999999,"
	}
	checked := regexp.MustCompile(`\n +"checked": \d+,`)
	old := shardJSON(t, spec, 0, 2)
	if n := len(checked.FindAll(old, -1)); n != len(unsharded.Cells) {
		t.Fatalf("found %d cells to splice the retired keys into, want %d", n, len(unsharded.Cells))
	}
	old = checked.ReplaceAll(old, []byte("$0"+retired))

	var shards []*Report
	for _, file := range [][]byte{old, shardJSON(t, spec, 1, 2)} {
		rep, err := ReadJSON(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, rep)
	}
	merged, err := Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if unsharded.Cells[0].Obs["sim_dropped_total"] == 0 {
		t.Fatal("split-brain dropped nothing; the comparison proves nothing")
	}
	want, got := renderings(t, unsharded), renderings(t, merged)
	for _, form := range []string{"txt", "csv"} {
		if !bytes.Equal(got[form], want[form]) {
			t.Errorf("%s of the merged report differs from the unsharded run's:\n%s\n--- unsharded\n%s", form, got[form], want[form])
		}
	}
}

// FuzzReadJSONMerge feeds ReadJSON arbitrary bytes and merges whatever
// decodes with itself, re-labelled as the two shards of one stream: Merge
// must either refuse or return a report that renders. Seeded with a real
// two-shard report, so mutations start from well-formed files — of one
// grid point, because the fuzzer minimizes every input that reaches new
// code and a 50 KB file stalls it there.
func FuzzReadJSONMerge(f *testing.F) {
	spec := shardSpec()
	spec.Grid = spec.Grid[:1]
	spec.Seeds.Count = 3
	spec.Timeline = true
	for i := 0; i < 2; i++ {
		f.Add(shardJSON(f, spec, i, 2))
	}
	f.Add([]byte(`{"cells":[{"cell":{"nt":{"n":5,"t":2},"recovery":"durable"},"runs":5,"event_samples":[1,2],"end_time_samples":[3]}],"shard":{"index":0,"count":2}}`))
	f.Add([]byte(`{"cells":[{"cell":{"protocol":9},"runs":1,"event_samples":[1e308],"end_time_samples":[-2],"stops":{"drained":-1},"metrics":{"m":3},"obs":{"sim_dropped_total":-7},"timeseries_samples":{"s":[]}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		a, b := *rep, *rep
		a.Shard, b.Shard = Shard{Index: 0, Count: 2}, Shard{Index: 1, Count: 2}
		merged, err := Merge(&a, &b)
		if err != nil {
			return
		}
		_ = merged.String()
		if err := merged.WriteCSV(io.Discard); err != nil {
			t.Fatalf("WriteCSV of a merged report: %v", err)
		}
	})
}

// TestMergeSingleUnshardedIdentity: a single unsharded report merges to
// itself (shard identity {0, 1}).
func TestMergeSingleUnshardedIdentity(t *testing.T) {
	rep, err := Run(shardSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(rep)
	if err != nil {
		t.Fatal(err)
	}
	rep.Workers = 0
	if !reflect.DeepEqual(merged, rep) {
		t.Errorf("identity merge differs:\n--- merged\n%+v\n--- original\n%+v", merged, rep)
	}
}

// TestShardValidate rejects out-of-range shard indices.
func TestShardValidate(t *testing.T) {
	for _, sh := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}} {
		spec := Spec{Grid: []NT{{5, 2}}, Shard: sh}
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("Validate accepted shard %+v", sh)
		}
	}
}

// TestShardRunsSum: the per-shard Runs() counts partition the total.
func TestShardRunsSum(t *testing.T) {
	spec := shardSpec()
	total := spec.Runs()
	for _, k := range []int{2, 3, 4, 9} {
		sum := 0
		for i := 0; i < k; i++ {
			s := spec
			s.Shard = Shard{Index: i, Count: k}
			sum += s.Runs()
		}
		if sum != total {
			t.Errorf("k=%d: shard Runs() sum to %d, want %d", k, sum, total)
		}
	}
}
