package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"failstop"
)

// TestMain runs the command itself when SFS_SWEEP_ARGS is set, so a test can
// watch a whole process: its exit status and all it prints, a panic on a
// worker goroutine included.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SFS_SWEEP_ARGS"); ok {
		os.Args = append([]string{"sfs-sweep"}, strings.Fields(args)...)
		main()
	}
	os.Exit(m.Run())
}

// TestSweepRejectsRunConfigurations: each of these was accepted while the
// sweep restated the facade's rules — the first four exited 0 (no fd layer;
// every run stopped at 0 events; every run taken to 2^20 events, twice) and
// the last panicked on a worker goroutine. The one rule set in
// cluster.Options makes each a usage error: exit 2, one line naming the field.
func TestSweepRejectsRunConfigurations(t *testing.T) {
	for _, tc := range []struct{ args, field string }{
		{"-heartbeat -3 -hb-timeout 5 -max-time 100", "HeartbeatEvery"},
		{"-max-events -5", "MaxEvents"},
		{"-heartbeat 5 -hb-timeout 20 -max-time -5", "MaxTime"},
		{"-reliable on -max-time -5", "MaxTime"},
		{"-plan restart-storm -recovery amnesia -max-time -5", "MaxTime"},
		// Read as a cadence of 1 tick: the report was -timeline-every 1's.
		{"-timeline -timeline-every -5 -csv -", "TimelineEvery"},
		// Every message would arrive before it was sent.
		{"-min-delay -5 -max-delay -1", "MinDelay"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "SFS_SWEEP_ARGS=-grid 5:2 -seeds 1 -schedules crash "+tc.args)
		out, err := cmd.CombinedOutput()
		code := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		if code != 2 || len(lines) != 1 || !strings.Contains(lines[0], tc.field) || strings.Contains(string(out), "goroutine ") {
			t.Errorf("sfs-sweep %s: exit %d, want 2 and one line naming %s:\n%s", tc.args, code, tc.field, out)
		}
	}
}

func TestSweepDefaultGrid(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-seeds", "4"}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"sweep: 12 runs over 3 cells", "n=10 t=3", "property verdicts", "sFS2d"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestSweepDefaultsGoThroughTheParsers: each list flag's default is parsed
// the way a value on the command line is, so spelling the defaults out runs
// the same sweep.
func TestSweepDefaultsGoThroughTheParsers(t *testing.T) {
	var implicit, explicit bytes.Buffer
	if code := run([]string{"-seeds", "4"}, &implicit); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, implicit.String())
	}
	args := []string{"-seeds", "4", "-grid", "10:3", "-protocols", "sfs",
		"-schedules", "false-suspicion,crash,mutual", "-q-delta", "0"}
	if code := run(args, &explicit); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, explicit.String())
	}
	if implicit.String() != explicit.String() {
		t.Errorf("defaults spelled out ran a different sweep:\n--- -seeds 4\n%s\n--- %v\n%s", implicit.String(), args, explicit.String())
	}
}

// TestSweepFlagOrder: file plans follow the builtin plans on the plan axis,
// and -max-retries bounds the enabled reliable entry, whichever flag comes
// first. The run without -max-retries differs, so a dropped bound shows.
func TestSweepFlagOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "my-cut.json")
	body := `{"rules":[{"from":5,"cut":true,"links":{"groups":[[1,2],[3,4]]}}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sweep := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		base := []string{"-grid", "5:2", "-seeds", "3", "-schedules", "crash"}
		if code := run(append(base, args...), &out); code != 0 {
			t.Fatalf("%v: exit = %d:\n%s", args, code, out.String())
		}
		return out.String()
	}
	if a, b := sweep("-plan-file", path, "-plan", "split-brain"), sweep("-plan", "split-brain", "-plan-file", path); a != b {
		t.Errorf("-plan-file before -plan ran a different sweep:\n%s\n--- -plan first\n%s", a, b)
	}
	healing := []string{"-plan", "healing-partition", "-max-time", "3000"}
	retriesFirst := sweep(append([]string{"-max-retries", "1", "-reliable", "on"}, healing...)...)
	reliableFirst := sweep(append([]string{"-reliable", "on", "-max-retries", "1"}, healing...)...)
	if retriesFirst != reliableFirst {
		t.Errorf("-max-retries before -reliable ran a different sweep:\n%s\n--- -reliable first\n%s", retriesFirst, reliableFirst)
	}
	if unbounded := sweep(append([]string{"-reliable", "on"}, healing...)...); unbounded == reliableFirst {
		t.Errorf("-max-retries 1 changed nothing:\n%s", unbounded)
	}
}

// TestSweepThousandScenarios is the acceptance-criteria grid: 250 seeds ×
// 4 (n, t) cells = 1000 scenarios through the parallel engine, with an
// aggregated verdict table.
func TestSweepThousandScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-scenario sweep in -short mode")
	}
	var out bytes.Buffer
	args := []string{
		"-grid", "8:2,10:3,12:3,15:3",
		"-seeds", "250",
		"-schedules", "false-suspicion",
	}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "sweep: 1000 runs over 4 cells") {
		t.Errorf("output:\n%s", s)
	}
	if !strings.Contains(s, "property verdicts") {
		t.Errorf("no aggregated verdict table:\n%s", s)
	}
}

func TestSweepListSchedules(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list-schedules"}, &out); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"quiet", "false-suspicion", "crash", "mutual", "mixed", "park-ring"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestSweepListPlans(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list-plans"}, &out); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"split-brain", "isolated-minority", "flaky-quorum", "healing-partition"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q:\n%s", want, out.String())
		}
	}
}

// TestSweepPlanGridDeterministic is the acceptance criterion: every
// built-in plan runs a partition grid, and the identical invocation
// reproduces a byte-identical report — dropped/duplicated tallies and the
// quorum-starvation diagnostic included.
func TestSweepPlanGridDeterministic(t *testing.T) {
	for _, plan := range []string{"split-brain", "isolated-minority", "flaky-quorum", "healing-partition"} {
		args := []string{
			"-grid", "5:2,10:3",
			"-seeds", "5",
			"-plan", plan,
			"-max-time", "3000",
			"-workers", "4",
		}
		var a, b bytes.Buffer
		if code := run(args, &a); code != 0 {
			t.Fatalf("%s: exit = %d:\n%s", plan, code, a.String())
		}
		if code := run(args, &b); code != 0 {
			t.Fatalf("%s: rerun exit = %d:\n%s", plan, code, b.String())
		}
		if a.String() != b.String() {
			t.Errorf("%s: identical invocations produced different reports:\n--- first\n%s\n--- second\n%s",
				plan, a.String(), b.String())
		}
		for _, want := range []string{"plan=" + plan, "dropped", "duplicated", "quorum-starved"} {
			if !strings.Contains(a.String(), want) {
				t.Errorf("%s: report missing %q:\n%s", plan, want, a.String())
			}
		}
	}
}

// TestSweepShardMergeRoundTrip is the scale-out acceptance test at the CLI
// layer, mirroring what the CI shard job does across runners: run the same
// grid as k shard processes with -json artifacts, recombine with -merge,
// and require the merged text report byte-identical to the unsharded one.
func TestSweepShardMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-grid", "5:2,8:2",
		"-seeds", "6",
		"-schedules", "crash,false-suspicion",
	}

	var unsharded bytes.Buffer
	if code := run(base, &unsharded); code != 0 {
		t.Fatalf("unsharded exit = %d:\n%s", code, unsharded.String())
	}

	for _, k := range []int{2, 3} {
		var files []string
		for i := 0; i < k; i++ {
			file := filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", i, k))
			args := append(append([]string{}, base...),
				"-shard", fmt.Sprintf("%d/%d", i, k),
				"-json", file)
			var out bytes.Buffer
			if code := run(args, &out); code != 0 {
				t.Fatalf("shard %d/%d exit = %d:\n%s", i, k, code, out.String())
			}
			files = append(files, file)
		}
		var merged bytes.Buffer
		if code := run(append([]string{"-merge"}, files...), &merged); code != 0 {
			t.Fatalf("merge exit = %d:\n%s", code, merged.String())
		}
		if merged.String() != unsharded.String() {
			t.Errorf("k=%d: merged report differs from unsharded:\n--- merged\n%s\n--- unsharded\n%s",
				k, merged.String(), unsharded.String())
		}
	}
}

// TestSweepJSONStdout: -json - replaces the text report with JSON on
// stdout, parseable and carrying the grid's cells.
func TestSweepJSONStdout(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-grid", "5:2", "-seeds", "2", "-json", "-"}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	var rep struct {
		Cells []json.RawMessage
		Runs  int
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v:\n%s", err, out.String())
	}
	if rep.Runs != 6 || len(rep.Cells) != 3 {
		t.Errorf("runs=%d cells=%d, want 6 runs over 3 cells", rep.Runs, len(rep.Cells))
	}
}

// TestSweepStdoutFormLeavesTheFile: with one form on stdout and the other
// bound for a file — in either pairing, from a sweep or from -merge — the
// file holds exactly the bytes that form has on its own, and stdout exactly
// the other form.
func TestSweepStdoutFormLeavesTheFile(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "shard.json")
	var out bytes.Buffer
	if code := run([]string{"-grid", "5:2", "-seeds", "2", "-json", shard}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	for name, base := range map[string][]string{
		"sweep": {"-grid", "5:2", "-seeds", "2"},
		"merge": {"-merge", shard},
	} {
		alone := map[string]string{}
		for _, form := range []string{"-json", "-csv"} {
			var out bytes.Buffer
			if code := run(append([]string{form, "-"}, base...), &out); code != 0 {
				t.Fatalf("%s %s -: exit = %d:\n%s", name, form, code, out.String())
			}
			alone[form] = out.String()
		}
		for _, pair := range [][2]string{{"-csv", "-json"}, {"-json", "-csv"}} {
			toStdout, toFile := pair[0], pair[1]
			file := filepath.Join(dir, name+toFile)
			var out bytes.Buffer
			if code := run(append([]string{toStdout, "-", toFile, file}, base...), &out); code != 0 {
				t.Fatalf("%s %s - %s f: exit = %d:\n%s", name, toStdout, toFile, code, out.String())
			}
			if out.String() != alone[toStdout] {
				t.Errorf("%s %s - %s f: stdout is not the %s form alone:\n%s", name, toStdout, toFile, toStdout, out.String())
			}
			got, err := os.ReadFile(file)
			if err != nil {
				t.Errorf("%s %s - %s f: %v", name, toStdout, toFile, err)
			} else if string(got) != alone[toFile] {
				t.Errorf("%s %s - %s f: the file differs from the %s form alone", name, toStdout, toFile, toFile)
			}
		}
	}
}

// TestSweepSeedsFlagNamed: a seed count below 1 is refused by name instead
// of being defaulted to one seed per cell.
func TestSweepSeedsFlagNamed(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-grid", "5:2", "-seeds", "0"}, &out); code != 2 || !strings.Contains(out.String(), "-seeds") {
		t.Errorf("-seeds 0: exit = %d, output %q; want 2 and a message naming -seeds", code, out.String())
	}
}

// TestSweepProtocolNames: -protocols goes through core.ParseProtocol — the
// long alias and any letter case name the same cells as the short names.
func TestSweepProtocolNames(t *testing.T) {
	var long, short bytes.Buffer
	base := []string{"-grid", "5:2", "-seeds", "2", "-schedules", "crash"}
	if code := run(append([]string{"-protocols", " simulated-fail-stop,CHEAP"}, base...), &long); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, long.String())
	}
	if code := run(append([]string{"-protocols", "sfs,cheap"}, base...), &short); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, short.String())
	}
	if long.String() != short.String() || !strings.Contains(long.String(), "proto=cheap") {
		t.Errorf("alias and upper-case names ran a different sweep:\n%s\n--- sfs,cheap\n%s", long.String(), short.String())
	}
	var bad bytes.Buffer
	run([]string{"-protocols", "raft"}, &bad)
	if !strings.Contains(bad.String(), "sfs, cheap, unilateral") {
		t.Errorf("unknown protocol's message does not list the choices: %q", bad.String())
	}
}

// TestSweepProfileFlags: -cpuprofile and -memprofile write non-empty pprof
// files without disturbing the sweep.
func TestSweepProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	args := []string{"-grid", "5:2", "-seeds", "4", "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "sweep: 12 runs") {
		t.Errorf("profiled sweep lost its report:\n%s", out.String())
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Errorf("profile not written: %v", err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestSweepBadFlags(t *testing.T) {
	cases := [][]string{
		{"-grid", "10x3"},
		{"-protocols", "raft"},
		{"-schedules", "nope"},
		{"-plan", "nope"},
		{"-q-delta", "a,b"},
		{"-shard", "2"},
		{"-shard", "a/b"},
		{"-shard", "4/4"},
		{"-shard", "-1/4"},
		{"-shard", "0/0"}, // must not silently run the whole grid
		{"-seeds", "-3"},
		{"-merge"},
		{"-merge", "/no/such/report.json"},
		// The first panicked on a worker's goroutine; the second exited 0
		// with every run blocked.
		{"-grid", "5:2", "-seeds", "2", "-schedules", "crash", "-max-delay", "9223372036854775807"},
		{"-grid", "5:2", "-seeds", "2", "-schedules", "crash", "-max-delay", "9223372036854775806"},
		// Exited 0, printing eight equal rows and counting two runs sixteen
		// times.
		{"-grid", "5:2,5:2", "-seeds", "2", "-protocols", "sfs,sfs", "-q-delta", "0,0", "-schedules", "crash"},
		// Exited 0: three cells that all ran quorum 1, and a fixed quorum of
		// 51 over gossip pools of 9–17 processes.
		{"-grid", "5:2", "-q-delta", "-2,-3,-4", "-schedules", "crash", "-seeds", "4"},
		{"-grid", "64:5", "-topo", "gossip:8", "-q-delta", "-1,0,1", "-schedules", "crash"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%v) = %d, want 2:\n%s", args, code, out.String())
		}
	}
}

// TestSweepReliableAxis: -reliable both grids every cell with and without
// the layer and surfaces the retransmit columns.
func TestSweepReliableAxis(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-grid", "5:2", "-seeds", "3", "-schedules", "crash",
		"-plan", "healing-partition", "-reliable", "both", "-max-time", "3000"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"sweep: 6 runs over 2 cells", " rel", "retransmits", "quorum-starved"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestSweepHeartbeatFalseSuspicionColumn: heartbeat grids aggregate the
// false-suspicion diagnostic, charting the Theorem 1 timeout dilemma under
// real loss — the healing partition silences cross-half heartbeats past
// the timeout, so every run accuses a process that never crashed.
func TestSweepHeartbeatFalseSuspicionColumn(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-grid", "5:2", "-seeds", "3", "-schedules", "quiet",
		"-plan", "healing-partition", "-heartbeat", "25", "-hb-timeout", "60", "-max-time", "2000"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "false-suspicion") {
		t.Errorf("heartbeat grid missing the false-suspicion column:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "3/3") {
		t.Errorf("partition-silenced heartbeats should accuse the living on every run:\n%s", out.String())
	}
}

func TestSweepReliableBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-reliable", "sometimes"},
		{"-reliable", "on", "-schedules", "crash"}, // retries forever without -max-time
		{"-heartbeat", "25"},                       // heartbeats forever without -max-time
		{"-heartbeat", "25", "-max-time", "2000"},  // no -hb-timeout: the detector would never suspect
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%v) = %d, want 2:\n%s", args, code, out.String())
		}
	}
}

// TestSweepPlanFileMatchesBuiltin is the PR's acceptance criterion: a
// builtin plan serialized to the plan-file format and re-run via -plan-file
// produces a report byte-identical to the -plan run.
func TestSweepPlanFileMatchesBuiltin(t *testing.T) {
	plan, err := failstop.BuiltinFaultPlan("split-brain", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "split-brain.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := failstop.WriteFaultPlan(f, plan); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var builtin, fromFile bytes.Buffer
	if code := run([]string{"-grid", "5:2", "-seeds", "6", "-plan", "split-brain"}, &builtin); code != 0 {
		t.Fatalf("builtin run exit = %d:\n%s", code, builtin.String())
	}
	if code := run([]string{"-grid", "5:2", "-seeds", "6", "-plan-file", path}, &fromFile); code != 0 {
		t.Fatalf("plan-file run exit = %d:\n%s", code, fromFile.String())
	}
	if builtin.String() != fromFile.String() {
		t.Errorf("reports differ:\n--- -plan\n%s\n--- -plan-file\n%s", builtin.String(), fromFile.String())
	}
}

// TestSweepPlanFileAxis: file plans ride the same grid axis as builtins —
// both in one sweep yields the cross product, and an unnamed plan file
// takes its base name as cell identity.
func TestSweepPlanFileAxis(t *testing.T) {
	path := filepath.Join(t.TempDir(), "my-cut.json")
	body := `{"rules":[{"from":5,"cut":true,"links":{"groups":[[1,2],[3,4]]}}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	args := []string{"-grid", "5:2", "-seeds", "2", "-schedules", "crash",
		"-plan", "split-brain", "-plan-file", path}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"plan=split-brain", "plan=my-cut", "2 cells"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestSweepPlanFileBadInputs(t *testing.T) {
	dir := t.TempDir()
	tooBig := filepath.Join(dir, "too-big.json")
	if err := os.WriteFile(tooBig, []byte(`{"rules":[{"cut":true,"links":{"groups":[[1,9]]}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"rules":[{"cutt":true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"missing file":          {"-plan-file", filepath.Join(dir, "nope.json")},
		"unknown field":         {"-plan-file", typo},
		"plan too big for grid": {"-grid", "5:2", "-plan-file", tooBig},
		"trailing comma":        {"-plan-file", tooBig + ","},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%s: run(%v) = %d, want 2:\n%s", name, args, code, out.String())
		}
	}
}
