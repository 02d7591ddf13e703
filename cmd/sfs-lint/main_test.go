package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"failstop/internal/lint"
)

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestExitOneOnFindings(t *testing.T) {
	code, out, _ := runLint(t, "-dir", filepath.Join("testdata", "dirty"), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	for _, sub := range []string{
		"p/p.go:12:9: detwallclock: time.Now reads the wall clock",
		"p/p.go:17:9: detrand: rand.Intn uses the process-global random source",
		"sfs-lint: 2 finding(s)",
	} {
		if !strings.Contains(out, sub) {
			t.Errorf("output missing %q:\n%s", sub, out)
		}
	}
}

func TestExitZeroOnCleanTree(t *testing.T) {
	code, out, errw := runLint(t, "-dir", filepath.Join("testdata", "clean"), "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	if out != "" {
		t.Errorf("clean run printed %q, want nothing", out)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runLint(t, "-json", "-dir", filepath.Join("testdata", "dirty"), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var findings []lint.Finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, out)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	if findings[0].Analyzer != "detwallclock" || findings[0].File != "p/p.go" || findings[0].Line != 12 {
		t.Errorf("first finding = %+v, want detwallclock at p/p.go:12", findings[0])
	}
	if findings[1].Analyzer != "detrand" {
		t.Errorf("second finding analyzer = %q, want detrand", findings[1].Analyzer)
	}
}

func TestJSONEmptyArrayWhenClean(t *testing.T) {
	code, out, _ := runLint(t, "-json", "-dir", filepath.Join("testdata", "clean"), "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json output = %q, want []", out)
	}
}

func TestAnalyzerSubsetFlag(t *testing.T) {
	code, out, _ := runLint(t, "-analyzers", "detrand", "-dir", filepath.Join("testdata", "dirty"), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if strings.Contains(out, "detwallclock") {
		t.Errorf("-analyzers detrand still ran detwallclock:\n%s", out)
	}
	if !strings.Contains(out, "detrand") {
		t.Errorf("-analyzers detrand reported no detrand finding:\n%s", out)
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	code, _, errw := runLint(t, "-analyzers", "nosuch", "-dir", filepath.Join("testdata", "clean"), "./...")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errw, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr = %q, want unknown-analyzer message", errw)
	}
}

func TestListFlag(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}

// TestBadFlagRefusedInOneLine: a bad flag is a usage error named in one
// line, not buried at the top of the usage page.
func TestBadFlagRefusedInOneLine(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-bogus"}
	code := run(args, &bytes.Buffer{}, &out)
	if lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); code != 2 || len(lines) != 1 {
		t.Errorf("sfs-lint %v: exit %d, printing %q; want 2 and one line", args, code, out.String())
	}
}

// TestHelpListsFlags: -h prints the usage, with the flags listed, and exits
// 0: a help request is not a usage error.
func TestHelpListsFlags(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-h"}
	if code := run(args, &bytes.Buffer{}, &out); code != 0 {
		t.Errorf("sfs-lint -h: exit %d, want 0", code)
	}
	for _, f := range []string{"-json", "-dir", "-analyzers", "-list"} {
		if !strings.Contains(out.String(), "\n  "+f+" ") && !strings.Contains(out.String(), "\n  "+f+"\n") {
			t.Errorf("sfs-lint -h does not list %s:\n%s", f, out.String())
		}
	}
}
