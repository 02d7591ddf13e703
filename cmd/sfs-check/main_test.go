package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"failstop"
	"failstop/internal/model"
	"failstop/internal/trace"
)

// writeScenarioTrace records a standard false-suspicion run to a file.
func writeScenarioTrace(t *testing.T, path string) {
	t.Helper()
	c := failstop.NewCluster(failstop.Options{N: 5, T: 2, Seed: 1})
	c.SuspectAt(10, 2, 1)
	rep := c.Run()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, trace.Header{N: 5, T: 2, Protocol: "sfs", Seed: 1}, rep.History); err != nil {
		t.Fatal(err)
	}
}

func TestCheckValidTrace(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "trace.json")
	writeScenarioTrace(t, in)
	var out bytes.Buffer
	if code := run([]string{"-in", in}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	for _, want := range []string{"history: valid", "Condition3: ok", "W: ok", "isomorphic fail-stop run constructed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

// A trace naming a process past model.MaxProcs is an invalid history —
// Validate's proc-id rule — not tables sized for it: before model.MaxProcs
// the file passed validation and the check died out of memory. An id no
// model.ProcID holds, 2⁴⁰, is a malformed trace: the reader names the line
// and the field rather than truncate the id into range.
func TestCheckRejectsHugeProcessID(t *testing.T) {
	recorded, err := os.ReadFile("testdata/huge-proc-id.trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{strconv.Itoa(model.MaxProcs + 1), []string{"history INVALID", "proc-id"}},
		{"1099511627776", []string{"reading trace", "malformed trace: line 25", "Event.proc"}},
	} {
		in := filepath.Join(t.TempDir(), "trace.json")
		if err := os.WriteFile(in, bytes.Replace(recorded, []byte("1099511627776"), []byte(tc.id), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := run([]string{"-in", in}, &out); code != 1 {
			t.Fatalf("process %s: exit = %d, want 1:\n%s", tc.id, code, out.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("process %s: output lacks %q:\n%s", tc.id, want, out.String())
			}
		}
	}
}

func TestCheckWritesWitness(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "trace.json")
	wit := filepath.Join(dir, "witness.json")
	writeScenarioTrace(t, in)
	var out bytes.Buffer
	if code := run([]string{"-in", in, "-rewrite", wit}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	// The witness must itself be a readable trace satisfying FS.
	wf, err := os.Open(wit)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	_, h, err := trace.Read(wf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range failstop.CheckFS(h) {
		if !v.Holds {
			t.Errorf("witness: %s", v)
		}
	}
}

// TestCheckByzantineTrace: a trace recorded under a Byzantine fault plan
// carries scripted garbling/replays on the victims' links; with the plan
// embedded in the header, the check tolerates exactly those and still
// passes — and without the plan the same history is rejected as garbled.
func TestCheckByzantineTrace(t *testing.T) {
	plan, err := failstop.BuiltinFaultPlan("byzantine-minority", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Seed 2: a seed where the interposer's echo quorums mask the scripted
	// tampering before it can induce a property violation (some seeds — a
	// minority — let the garbling through, which is a genuine outcome of the
	// Byzantine model, but not the scenario this test is about).
	c := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 2, MaxTime: 5000,
		Faults:    &plan,
		Byzantine: failstop.ByzantineOptions{Enabled: true},
	})
	c.SuspectAt(30, 5, 3) // a victim lies; the plan mutates it in flight
	rep := c.Run()

	dir := t.TempDir()
	write := func(name string, hdr trace.Header) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := trace.Write(f, hdr, rep.History); err != nil {
			t.Fatal(err)
		}
		return path
	}

	withPlan := write("byz.json", trace.Header{N: 5, T: 2, Protocol: "sfs", Seed: 2, Plan: plan.Name, FaultPlan: &plan})
	var out bytes.Buffer
	if code := run([]string{"-in", withPlan}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "tampered by the scripted Byzantine plan") {
		t.Errorf("missing tampering note:\n%s", out.String())
	}

	// The same history without the embedded plan is just a corrupt trace.
	bare := write("bare.json", trace.Header{N: 5, T: 2, Protocol: "sfs", Seed: 2})
	out.Reset()
	if code := run([]string{"-in", bare}, &out); code != 1 {
		t.Fatalf("plan-less exit = %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "history INVALID") {
		t.Errorf("plan-less trace must fail validation:\n%s", out.String())
	}
}

// TestCheckSpanSummaryNamesEveryKind: the per-kind span summary covers every
// kind obs defines. A scripted Byzantine run records convictions, whose
// byz-detect spans a private list of kinds once left out, so the counts the
// summary printed did not add up to the span total.
func TestCheckSpanSummaryNamesEveryKind(t *testing.T) {
	plan, err := failstop.BuiltinFaultPlan("byzantine-minority", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 1, MaxTime: 3000,
		Faults:    &plan,
		Byzantine: failstop.ByzantineOptions{Enabled: true},
		Spans:     failstop.NewSpanRecorder(1, 1),
	})
	c.SuspectAt(30, 5, 3)
	rep := c.Run()
	in := filepath.Join(t.TempDir(), "byz.trace")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	hdr := trace.Header{N: 5, T: 2, Protocol: "sfs", Seed: 1, Plan: plan.Name, FaultPlan: &plan, SpanRate: 1}
	if err := trace.WriteSpans(f, hdr, rep.History, rep.Spans); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if code := run([]string{"-in", in}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	_, line, ok := strings.Cut(out.String(), "spans: ")
	line, _, _ = strings.Cut(line, "\n")
	total, counts, found := strings.Cut(line, " valid (rate 1):")
	if !ok || !found {
		t.Fatalf("no span summary:\n%s", out.String())
	}
	sum := 0
	for _, pair := range strings.Fields(counts) {
		_, n, _ := strings.Cut(pair, "=")
		v, err := strconv.Atoi(n)
		if err != nil {
			t.Fatalf("summary pair %q: %v", pair, err)
		}
		sum += v
	}
	if !strings.Contains(counts, " byz-detect=") {
		t.Errorf("the summary of a run with convictions names no byz-detect spans: %s", line)
	}
	if want, _ := strconv.Atoi(total); sum != want || want != len(rep.Spans) {
		t.Errorf("per-kind counts sum to %d of %s spans (%d recorded): %s", sum, total, len(rep.Spans), line)
	}
}

func TestCheckMissingAndBadInputs(t *testing.T) {
	var out bytes.Buffer
	if code := run(nil, &out); code != 2 {
		t.Errorf("no -in: exit = %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"-in", "/nonexistent/zzz"}, &out); code != 1 {
		t.Errorf("missing file: exit = %d, want 1", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-in", bad}, &out); code != 1 {
		t.Errorf("bad trace: exit = %d, want 1", code)
	}
	// Negative process ids parse as JSON but name no process; they must be
	// reported, not reach the checkers' id-indexed tables.
	neg := filepath.Join(dir, "neg.json")
	negTrace := `{"version":3,"n":3,"t":1,"protocol":"sfs","seed":1}
{"seq":0,"proc":2,"kind":3,"time":5}
{"seq":1,"proc":1,"kind":4,"target":-2,"time":6}
`
	if err := os.WriteFile(neg, []byte(negTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-in", neg}, &out); code != 1 || !strings.Contains(out.String(), "history INVALID") {
		t.Errorf("negative process id: exit = %d, want 1 with a validation error:\n%s", code, out.String())
	}
}

// A negative failure bound is a usage error, from the flag or from the trace
// header: quorum.EmptySubfamily finds no subfamily of at most t < 1 sets,
// and W used to print "ok" whatever the trace held.
func TestCheckRejectsNegativeT(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "trace.json")
	writeScenarioTrace(t, in)
	var out bytes.Buffer
	if code := run([]string{"-in", in, "-t", "-1"}, &out); code != 2 || !strings.HasPrefix(out.String(), "bad -t -1") {
		t.Errorf("-t -1: exit = %d, want 2 naming the flag:\n%s", code, out.String())
	}
	data, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	neg := filepath.Join(dir, "neg-t.json")
	if err := os.WriteFile(neg, bytes.Replace(data, []byte(`"t":2`), []byte(`"t":-5`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-in", neg}, &out); code != 1 || !strings.Contains(out.String(), "reading trace") || strings.Contains(out.String(), "W: ok") {
		t.Errorf(`header "t": -5: exit = %d, want 1 refusing the trace:\n%s`, code, out.String())
	}
}

// TestSimCheckRoundTripSameVerdicts: sfs-sim judges the run it just made,
// sfs-check judges the trace of it; both must abstract the stack's own
// traffic (SUSP, heartbeats, reliable acks, Byzantine echoes) the same way,
// so every verdict line sfs-sim prints appears verbatim in sfs-check's
// output. With only SUSP and heartbeats dropped, sfs-check read post-
// detection acks as sFS2d contamination on exactly these scenarios.
func TestSimCheckRoundTripSameVerdicts(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build sfs-sim")
	}
	dir := t.TempDir()
	sim := filepath.Join(dir, "sfs-sim")
	if msg, err := exec.Command(goTool, "build", "-o", sim, "failstop/cmd/sfs-sim").CombinedOutput(); err != nil {
		t.Fatalf("building sfs-sim: %v\n%s", err, msg)
	}
	scenario := []string{"-n", "10", "-t", "3", "-max-retries", "5",
		"-crash", "3@5", "-crash", "7@6", "-crash", "9@7",
		"-suspect", "1:3@10", "-suspect", "1:7@11", "-suspect", "1:9@12"}
	for _, layers := range [][]string{{"-reliable"}, {"-reliable", "-byz"}} {
		for _, seed := range []string{"4", "5", "6"} {
			in := filepath.Join(dir, "t.trace")
			args := append(append([]string{"-seed", seed, "-o", in}, layers...), scenario...)
			simOut, err := exec.Command(sim, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("sfs-sim %v: %v\n%s", args, err, simOut)
			}
			var checkOut bytes.Buffer
			if code := run([]string{"-in", in}, &checkOut); code != 0 {
				t.Errorf("%v seed %s: sfs-check exit = %d on a trace sfs-sim passed:\n%s", layers, seed, code, checkOut.String())
			}
			_, verdicts, found := strings.Cut(string(simOut), "verdicts:\n")
			if !found {
				t.Fatalf("sfs-sim printed no verdicts:\n%s", simOut)
			}
			lines := 0
			for _, line := range strings.Split(verdicts, "\n") {
				if !strings.HasPrefix(line, "  ") {
					break // end of the indented verdict block
				}
				lines++
				if !strings.Contains(checkOut.String(), line+"\n") {
					t.Errorf("%v seed %s: sfs-sim says %q, sfs-check does not:\n%s", layers, seed, line, checkOut.String())
				}
			}
			if lines != 7 {
				t.Errorf("%v seed %s: compared %d verdict lines, want sfs-sim's 7:\n%s", layers, seed, lines, simOut)
			}
		}
	}
}

// TestBadFlagRefusedInOneLine: a bad flag is a usage error named in one
// line, not buried at the top of the usage page.
func TestBadFlagRefusedInOneLine(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-t", "x"}
	code := run(args, &out)
	if lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); code != 2 || len(lines) != 1 {
		t.Errorf("sfs-check %v: exit %d, printing %q; want 2 and one line", args, code, out.String())
	}
}

// TestHelpListsFlags: -h prints the usage, with the flags listed, and exits
// 0: a help request is not a usage error.
func TestHelpListsFlags(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-h"}
	if code := run(args, &out); code != 0 {
		t.Errorf("sfs-check -h: exit %d, want 0", code)
	}
	for _, f := range []string{"-in", "-rewrite", "-t"} {
		if !strings.Contains(out.String(), "\n  "+f+" ") && !strings.Contains(out.String(), "\n  "+f+"\n") {
			t.Errorf("sfs-check -h does not list %s:\n%s", f, out.String())
		}
	}
}
