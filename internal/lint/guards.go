package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// Guards describe module guardModule. They read its non-test Go files
// outside bench/, except guardTable, whose patterns would match themselves.
const guardModule, guardTable = "failstop", "internal/lint/guardtable.go"

// AnalyzerGuards checks Guards over the whole module, whatever packages a run
// names. No allow suppresses it: a rule changes only by editing the table.
var AnalyzerGuards = &Analyzer{Name: "guards", Doc: "the repository's structural rules (internal/lint/guardtable.go) hold; not suppressible"}

// checkGuards runs guards over the module at root and returns each row's
// findings, indexed like guards.
func checkGuards(root string, guards []Guard) ([][]Finding, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var paths []string // module-relative, in lexical order
	lines := map[string][]string{}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		rel := filepath.ToSlash(strings.TrimPrefix(p, root+string(filepath.Separator)))
		switch {
		case err != nil:
			return err
		case d.IsDir() && (rel == "bench" || d.Name() == ".git"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == guardTable:
			return nil
		}
		data, err := os.ReadFile(p)
		paths, lines[rel] = append(paths, rel), strings.Split(string(data), "\n")
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Finding, len(guards))
	for i, g := range guards {
		report := func(file string, line, col int, format string, args ...any) {
			msg := fmt.Sprintf(format, args...) + " — " + g.Reason
			if g.PR > 0 {
				msg += fmt.Sprintf(" (PR %d)", g.PR)
			}
			out[i] = append(out[i], Finding{File: file, Line: line, Col: col, Analyzer: AnalyzerGuards.Name, Message: msg})
		}
		scope := paths
		if g.Scope != nil {
			scope = nil
			for _, s := range g.Scope {
				if _, err := os.Stat(filepath.Join(root, s)); err != nil {
					report(s, 0, 0, "scope %s is gone: move the row with the code it guards", s)
				}
				for _, p := range paths {
					if p == s || strings.HasPrefix(p, s+"/") {
						scope = append(scope, p)
					}
				}
			}
		}
		if g.Kind == Imports {
			g.checkImports(root, mod, report)
			continue
		}
		pattern := g.Pattern
		if g.Kind == Once {
			pattern = regexp.QuoteMeta(pattern)
		}
		re := regexp.MustCompile(pattern)
		var files []string
		matched := 0
		for _, p := range scope {
			for j, l := range lines[p] {
				if loc := re.FindStringIndex(l); loc != nil {
					if matched++; len(files) == 0 || files[len(files)-1] != p {
						files = append(files, p)
					}
					if g.Kind == Retired {
						report(p, j+1, loc[0]+1, "retired %q is back", g.Pattern)
					}
				}
			}
		}
		switch {
		case g.Kind == Once && len(files) != 1:
			report(".", 0, 0, "want %q in exactly 1 file, found it in %d: %s", g.Pattern, len(files), strings.Join(files, ", "))
		case g.Kind == Count && matched != g.N:
			report(g.Scope[0], 0, 0, "want %d lines matching %q, found %d", g.N, g.Pattern, matched)
		}
	}
	return out, nil
}

// checkImports reports each import matching g.Pattern in the packages of
// g.Scope or, unless g.Direct, in the module's packages they reach, read with
// go/parser alone. (A scope that is gone is checkGuards' finding.)
func (g Guard) checkImports(root, mod string, report func(string, int, int, string, ...any)) {
	re, fset := regexp.MustCompile(g.Pattern), token.NewFileSet()
	for _, s := range g.Scope {
		seen := map[string]bool{s: true}
		for queue := []string{s}; len(queue) > 0; queue = queue[1:] {
			dir := filepath.Join(root, filepath.FromSlash(queue[0]))
			names, _ := goFiles(dir)
			for _, name := range names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
				if err != nil {
					report(queue[0], 0, 0, "%v", err)
					continue
				}
				for _, spec := range f.Imports {
					imp, _ := strconv.Unquote(spec.Path.Value)
					if pos := fset.Position(spec.Pos()); re.MatchString(imp) {
						report(queue[0]+"/"+name, pos.Line, pos.Column, "%s imports %s", mod+"/"+s, imp)
					}
					if rel, ok := strings.CutPrefix(imp, mod+"/"); ok && !g.Direct && !seen[rel] {
						seen[rel] = true
						queue = append(queue, rel)
					}
				}
			}
		}
	}
}
