// Command sfs-lint runs the determinism static-analysis suite
// (internal/lint) over the module: detmaprange, detwallclock, detrand,
// exhaustiveswitch, and jsontagcomplete, plus validation of every
// //sfs:allow suppression annotation, and the repository's guard table
// (guards), which no annotation suppresses.
//
// Usage:
//
//	sfs-lint ./...
//	sfs-lint -json ./internal/sweep ./internal/sim
//	sfs-lint -analyzers detrand,detwallclock ./...
//
// Exit status is 0 when the tree is clean, 1 when there are findings, and
// 2 on usage or load errors. With -json, findings are emitted as a JSON
// array (possibly empty) for CI artifact diffing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"failstop/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("sfs-lint", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as a JSON array")
		dir       = fs.String("dir", ".", "module directory to lint")
		analyzers = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list      = fs.Bool("list", false, "list the analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(out, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected := all
	if *analyzers != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*analyzers, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(errw, "sfs-lint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}
	findings, err := lint.Run(lint.Options{
		Dir:       *dir,
		Patterns:  fs.Args(),
		Analyzers: selected,
	})
	if err != nil {
		fmt.Fprintf(errw, "sfs-lint: %v\n", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(errw, "sfs-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(out, "sfs-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
