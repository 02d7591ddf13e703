package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"failstop/internal/trace"
)

func TestRunBasicScenario(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-n", "5", "-t", "2", "-suspect", "2:1@10"}, &out)
	if code != 0 {
		t.Fatalf("exit = %d, output:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"quiescent=true", "FS1: ok", "sFS2d: ok", "isomorphic fail-stop run constructed"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunVerbosePrintsHistory(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-n", "3", "-t", "1", "-suspect", "2:1@5", "-v"}, &out); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "internal_2[suspect j=1]") {
		t.Errorf("verbose output missing history:\n%s", out.String())
	}
}

// -v closes the history with the four latency measures of its detections.
func TestRunVerbosePrintsLatencies(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-n", "5", "-t", "2", "-crash", "3@5", "-suspect", "2:3@10", "-v"}, &out); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{
		"\n  first-suspicion: count=4 p50=8 p95=9.85 max=10\n",
		"\n  pair: count=4 p50=7 p95=8.85 max=9\n",
		"\n  quorum: count=4 p50=18 p95=19.85 max=20\n",
		"\n  all: count=1 p50=15 p95=15 max=15\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verbose output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if code := run([]string{"-n", "4", "-t", "1", "-suspect", "2:1@5", "-o", path}, &out); code != 0 {
		t.Fatalf("exit = %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "trace written") {
		t.Errorf("missing confirmation:\n%s", out.String())
	}
}

func TestRunCheapProtocolAndCrash(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-n", "4", "-t", "2", "-protocol", "Cheap", "-crash", "1@5", "-suspect", "2:1@20"}, &out)
	if code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "protocol=cheap") {
		t.Error("protocol not reported")
	}
}

func TestRunHeartbeatMode(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-n", "4", "-t", "1", "-heartbeat", "10", "-timeout", "50", "-crash", "1@100"}, &out)
	if code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
}

// TestRunSplitBrainPlan drives the network adversary from the CLI:
// process 5 crashes, both halves suspect it, the majority half assembles
// its quorum but the isolated process 4 cannot — FS1 fails (exit 1) — while
// the run stays deterministic, reports its fault counters, and records a
// trace carrying the plan name in its version-2 header.
func TestRunSplitBrainPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-n", "5", "-t", "2",
		"-crash", "5@10", "-suspect", "1:5@30", "-suspect", "4:5@30",
		"-plan", "split-brain", "-o", path}
	var out bytes.Buffer
	code := run(args, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (partition starves FS1):\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"faults: plan=split-brain dropped=", "FS1: VIOLATED"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, _, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != trace.FormatVersion || hdr.Plan != "split-brain" {
		t.Errorf("trace header = %+v, want version %d with plan split-brain", hdr, trace.FormatVersion)
	}
	if hdr.Schedule != "crash 5@10; suspect 1:5@30; suspect 4:5@30" {
		t.Errorf("trace header schedule = %q; the injection script was not recorded", hdr.Schedule)
	}
	// Determinism: the identical invocation reproduces the output byte for
	// byte (modulo the trace path, which we hold constant).
	var again bytes.Buffer
	if code := run(args, &again); code != 1 {
		t.Fatalf("rerun exit = %d", code)
	}
	if out.String() != again.String() {
		t.Error("identical invocations produced different output")
	}
}

func TestRunBadInputs(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		{"-suspect", "garbage"},
		{"-crash", "garbage"},
		{"-badflag"},
		{"-plan", "nope"},
		{"-n", "1"},
		// Each of these ran, exit 0: no fd layer, never suspect, no horizon,
		// every message sampled.
		{"-n", "5", "-heartbeat", "-3", "-timeout", "5", "-maxtime", "100"},
		{"-n", "5", "-heartbeat", "5", "-timeout", "-5", "-maxtime", "100"},
		{"-n", "5", "-maxtime", "-5"},
		{"-n", "5", "-span-rate", "7"},
		{"-n", "5", "-spans", "-span-rate", "NaN"},
		// Ran as -timeline-every 1.
		{"-n", "5", "-timeline", filepath.Join(t.TempDir(), "tl.json"), "-timeline-every", "-3", "-suspect", "2:1@5"},
		// Ran only the 2->1 suspicion, and a crash at 50: fmt.Sscanf ignored
		// whatever followed its format.
		{"-n", "5", "-t", "2", "-suspect", "2:1@10,4:3@20"},
		{"-n", "5", "-crash", "3@50x"},
		// Ran with T = 1 and reported t=0.
		{"-n", "5", "-t", "0", "-suspect", "2:1@5"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestRunRejectsIDsNamingNoProcess: an injection whose process ids are not
// among 1..n is a usage error named in one line. At -n 5, "-suspect 9:1@5"
// used to die with an index out of range inside Run, "-crash 0@5" recorded a
// crash_0 that Validate rejects and exited 0, and "-suspect 2:9@5" had three
// processes execute failed_i(9).
func TestRunRejectsIDsNamingNoProcess(t *testing.T) {
	for _, args := range [][]string{
		{"-suspect", "9:1@5"},
		{"-crash", "0@5"},
		{"-suspect", "2:9@5"},
		{"-suspect", "2:1@5", "-crash", "6@9"},
	} {
		var out bytes.Buffer
		code := run(append([]string{"-n", "5"}, args...), &out)
		if got := out.String(); code != 2 || strings.Count(got, "\n") != 1 || !strings.Contains(got, "bad "+args[len(args)-2]+" ") || !strings.Contains(got, "1..5") {
			t.Errorf("run(-n 5 %v) = %d, printing %q; want 2 and one line naming the flag and the range", args, code, got)
		}
	}
}

func TestRunUnilateralFailsVerdicts(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-n", "3", "-t", "1", "-protocol", "unilateral", "-suspect", "2:1@5"}, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (sFS2a violated):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "sFS2a: VIOLATED") {
		t.Errorf("expected sFS2a violation:\n%s", out.String())
	}
}

// TestRunReliableHealingPartition: the -reliable flag recovers the
// minority-side detection across the heal (exit 0, FS1 ok), reports the
// layer's counters, and records the fully serialized fault plan in the
// trace header.
func TestRunReliableHealingPartition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-n", "5", "-t", "2",
		"-crash", "1@15", "-suspect", "5:1@20",
		"-plan", "healing-partition", "-reliable", "-o", path}
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"reliable: retransmits=", "FS1: ok"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, _, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.FaultPlan == nil || hdr.FaultPlan.Name != "healing-partition" || len(hdr.FaultPlan.Rules) == 0 {
		t.Errorf("trace header does not carry the serialized plan: %+v", hdr.FaultPlan)
	}

	// The identical scenario without -reliable starves: FS1 is violated.
	var bare bytes.Buffer
	code := run([]string{"-n", "5", "-t", "2", "-maxtime", "5000",
		"-crash", "1@15", "-suspect", "5:1@20", "-plan", "healing-partition"}, &bare)
	if code != 1 || !strings.Contains(bare.String(), "FS1: VIOLATED") {
		t.Errorf("exit = %d without -reliable, want 1 with FS1 VIOLATED:\n%s", code, bare.String())
	}
}

// TestValidatePlanLintsExampleFiles: every authored plan under
// examples/plans must lint clean for the README's n=5 walkthrough size —
// the same check CI runs.
func TestValidatePlanLintsExampleFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "plans", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example plan files found")
	}
	for _, f := range files {
		var out bytes.Buffer
		if code := run([]string{"-n", "5", "-plan-file", f, "-validate-plan"}, &out); code != 0 {
			t.Errorf("%s: exit = %d:\n%s", f, code, out.String())
		}
		if !strings.Contains(out.String(), "valid for n=5") {
			t.Errorf("%s: no confirmation:\n%s", f, out.String())
		}
	}
}

// TestValidatePlanRejectsBadPlan: a structurally broken plan exits 1 with
// the validation error; a plan too big for -n likewise.
func TestValidatePlanRejectsBadPlan(t *testing.T) {
	dir := t.TempDir()
	contradiction := filepath.Join(dir, "contradiction.json")
	if err := os.WriteFile(contradiction, []byte(`{"rules":[{"cut":true,"hold":true,"until":50}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-n", "5", "-plan-file", contradiction, "-validate-plan"}, &out); code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "contradictory") {
		t.Errorf("lint error not surfaced:\n%s", out.String())
	}

	// Valid plan, wrong cluster size: rolling-blackout names process 5.
	out.Reset()
	example := filepath.Join("..", "..", "examples", "plans", "rolling-blackout.json")
	if code := run([]string{"-n", "3", "-plan-file", example, "-validate-plan"}, &out); code != 1 {
		t.Errorf("exit = %d for n=3, want 1:\n%s", code, out.String())
	}
}

// TestDumpPlanRoundTrips: -dump-plan emits the plan-file shape, which
// loads back via -plan-file into a byte-identical run — the builtin and
// its file twin report the same simulation.
func TestDumpPlanRoundTrips(t *testing.T) {
	var dumped bytes.Buffer
	if code := run([]string{"-n", "5", "-t", "2", "-plan", "moving-partition", "-dump-plan"}, &dumped); code != 0 {
		t.Fatalf("dump exit = %d:\n%s", code, dumped.String())
	}
	path := filepath.Join(t.TempDir(), "moving-partition.json")
	if err := os.WriteFile(path, dumped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	scenario := []string{"-n", "5", "-t", "2", "-crash", "1@15", "-suspect", "2:1@200"}
	var builtin, fromFile bytes.Buffer
	b := run(append(scenario, "-plan", "moving-partition"), &builtin)
	f := run(append(scenario, "-plan-file", path), &fromFile)
	if b != f {
		t.Fatalf("exits differ: builtin %d vs plan-file %d", b, f)
	}
	if builtin.String() != fromFile.String() {
		t.Errorf("outputs differ:\n--- -plan\n%s\n--- -plan-file\n%s", builtin.String(), fromFile.String())
	}
	if !strings.Contains(builtin.String(), "faults: plan=moving-partition") {
		t.Errorf("fault counters not reported:\n%s", builtin.String())
	}
}

// TestDumpPlanValidatesFirst: -dump-plan must never emit a plan file that
// -validate-plan (or any run entry point) would reject.
func TestDumpPlanValidatesFirst(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"rules":[{"cut":true,"hold":true,"until":50}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-n", "5", "-plan-file", bad, "-dump-plan"}, &out); code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "contradictory") {
		t.Errorf("validation error not surfaced:\n%s", out.String())
	}
	if strings.Contains(out.String(), `"rules"`) {
		t.Errorf("invalid plan was dumped anyway:\n%s", out.String())
	}
}

// TestPlanFileRunRecordsTrace: a file-loaded plan flows into the trace
// header — name and fully serialized rules — like a builtin does.
func TestPlanFileRunRecordsTrace(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "half-cut.json")
	body := `{"rules":[{"from":5,"cut":true,"links":{"groups":[[1,2],[3,4]]}}]}`
	if err := os.WriteFile(planPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	code := run([]string{"-n", "5", "-t", "2", "-suspect", "2:1@10",
		"-plan-file", planPath, "-o", tracePath}, &out)
	if code != 0 && code != 1 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, _, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Plan != "half-cut" {
		t.Errorf("header plan = %q, want the file base name", hdr.Plan)
	}
	if hdr.FaultPlan == nil || hdr.FaultPlan.Name != "half-cut" || len(hdr.FaultPlan.Rules) != 1 {
		t.Errorf("header does not carry the serialized file plan: %+v", hdr.FaultPlan)
	}
}

func TestPlanFileBadInputs(t *testing.T) {
	dir := t.TempDir()
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"rules":[{"cutt":true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-plan-file", filepath.Join(dir, "missing.json")},
		{"-plan-file", typo},                         // unknown field: strict decode
		{"-plan", "split-brain", "-plan-file", typo}, // mutually exclusive
		{"-validate-plan"},                           // nothing to validate
		{"-dump-plan"},                               // nothing to dump
		{"-plan", "split-brain", "-validate-plan", "-dump-plan"}, // pick one
	}
	for _, args := range cases {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%v) = %d, want 2:\n%s", args, code, out.String())
		}
	}
}

// TestBadFlagRefusedInOneLine: a bad flag is a usage error named in one
// line, not buried at the top of the usage page.
func TestBadFlagRefusedInOneLine(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-protocol", "bogus"}
	code := run(args, &out)
	if lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); code != 2 || len(lines) != 1 {
		t.Errorf("sfs-sim %v: exit %d, printing %q; want 2 and one line", args, code, out.String())
	}
}

// TestHelpListsFlags: -h prints the usage, with the flags listed, and exits
// 0: a help request is not a usage error.
func TestHelpListsFlags(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-h"}
	if code := run(args, &out); code != 0 {
		t.Errorf("sfs-sim -h: exit %d, want 0", code)
	}
	for _, f := range []string{"-n", "-protocol", "-suspect"} {
		if !strings.Contains(out.String(), "\n  "+f+" ") && !strings.Contains(out.String(), "\n  "+f+"\n") {
			t.Errorf("sfs-sim -h does not list %s:\n%s", f, out.String())
		}
	}
}
