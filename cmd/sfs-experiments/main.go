// Command sfs-experiments regenerates the paper-reproduction tables: one
// experiment per theorem, figure, and worked example of the paper (E1..E12),
// the post-paper measurements E13..E16 and the ablations A1..A3, as listed
// in the README's Experiments section. A full run prints exactly
// internal/experiments/testdata/experiments.golden.
//
// Usage:
//
//	sfs-experiments                # run everything
//	sfs-experiments -run E7        # a single experiment
//	sfs-experiments -run E6,E7,E8  # a subset
//	sfs-experiments -list          # list experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"failstop/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("sfs-experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		runIDs = fs.String("run", "", "comma-separated experiment ids (default: all)")
		list   = fs.Bool("list", false, "list experiment ids and exit")
	)
	fs.Usage = func() {} // a bad flag is refused in the one line flag writes; -h prints the usage
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fmt.Fprintf(fs.Output(), "Usage of %s:\n", fs.Name())
			fs.PrintDefaults()
			return 0
		}
		return 2
	}
	reg := experiments.Registry()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(out, id)
		}
		return 0
	}
	ids := experiments.IDs()
	if *runIDs != "" {
		ids = strings.Split(*runIDs, ",")
	}
	failures := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := reg[id]
		if !ok {
			fmt.Fprintf(out, "unknown experiment %q (have %v)\n", id, experiments.IDs())
			return 2
		}
		res := runner()
		fmt.Fprintln(out, res)
		if !res.OK {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(out, "%d experiment(s) FAILED to reproduce\n", failures)
		return 1
	}
	return 0
}
