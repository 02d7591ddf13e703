package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-run", "E4"}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "E4") || !strings.Contains(out.String(), "REPRODUCED") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestBenchSubset(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-run", "E4, E7"}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "Theorem 3") || !strings.Contains(s, "Theorem 7") {
		t.Errorf("output:\n%s", s)
	}
}

func TestBenchList(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, id := range []string{"E1", "E12", "E13"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list missing %s:\n%s", id, out.String())
		}
	}
}

// TestBenchE13Smoke keeps the reliable-channels experiment in the smoke
// run: the table must reproduce and carry its overhead column.
func TestBenchE13Smoke(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-run", "E13"}, &out); code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"E13", "REPRODUCED", "reliable", "overhead"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestBenchUnknownID(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-run", "E99"}, &out); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

func TestBenchBadFlag(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-nope"}, &out); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestBadFlagRefusedInOneLine: a bad flag is a usage error named in one
// line, not buried at the top of the usage page.
func TestBadFlagRefusedInOneLine(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-bogus"}
	code := run(args, &out)
	if lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); code != 2 || len(lines) != 1 {
		t.Errorf("sfs-experiments %v: exit %d, printing %q; want 2 and one line", args, code, out.String())
	}
}

// TestHelpListsFlags: -h prints the usage, with the flags listed, and exits
// 0: a help request is not a usage error.
func TestHelpListsFlags(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-h"}
	if code := run(args, &out); code != 0 {
		t.Errorf("sfs-experiments -h: exit %d, want 0", code)
	}
	for _, f := range []string{"-run", "-list"} {
		if !strings.Contains(out.String(), "\n  "+f+" ") && !strings.Contains(out.String(), "\n  "+f+"\n") {
			t.Errorf("sfs-experiments -h does not list %s:\n%s", f, out.String())
		}
	}
}
