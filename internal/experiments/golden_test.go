package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites testdata/experiments.golden from the current code.
// The committed file was captured before E3, E13, E15 and E16 moved onto the
// sweep engine; re-capture only for a change that means to alter a table or
// a note, and say so in CHANGES.md.
var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current code")

// TestExperimentsGolden holds every experiment's rendered output, in IDs
// order, to the bytes cmd/sfs-experiments prints for a full run. Nothing in
// it may depend on the machine: not the worker count, not the wall clock.
func TestExperimentsGolden(t *testing.T) {
	var out bytes.Buffer
	reg := Registry()
	for _, id := range IDs() {
		fmt.Fprintln(&out, reg[id]())
	}
	path := filepath.Join("testdata", "experiments.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
