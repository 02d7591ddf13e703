package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectionsSelect reads every `go test` line of the CI workflow that
// selects tests or benchmarks by pattern (-run '^$' selects none on
// purpose) and wants each alternative of the pattern to select a function in
// some listed package, and each listed package to have a function the
// pattern selects. A renamed test must not leave a CI line running nothing.
func TestCISelectionsSelect(t *testing.T) {
	root := filepath.Join("..", "..")
	data, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(string(data), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var pkgs []string
		selections := map[string]string{} // flag -> pattern
		words := shellWords(cmd)
		for k := 0; k < len(words); k++ {
			w := words[k]
			switch {
			case strings.HasPrefix(w, "."):
				pkgs = append(pkgs, w)
			case w == "-run" || w == "-bench":
				k++
				selections[w] = words[k]
			case strings.HasPrefix(w, "-run=") || strings.HasPrefix(w, "-bench="):
				flag, pattern, _ := strings.Cut(w, "=")
				selections[flag] = pattern
			}
		}
		for _, flag := range []string{"-run", "-bench"} {
			pattern, ok := selections[flag]
			if !ok || pattern == "^$" {
				continue
			}
			lines++
			prefixes := []string{"Test", "Fuzz", "Example"}
			if flag == "-bench" {
				prefixes = []string{"Benchmark"}
			}
			funcs := map[string][]string{}
			for _, pkg := range pkgs {
				funcs[pkg] = testFuncs(t, filepath.Join(root, filepath.FromSlash(pkg)), prefixes)
			}
			re := regexp.MustCompile(pattern)
			for _, pkg := range pkgs {
				if !matchesAny(re, funcs[pkg]) {
					t.Errorf("%s %q selects nothing in %s (%s)", flag, pattern, pkg, strings.TrimSpace(line))
				}
			}
			for _, alt := range strings.Split(pattern, "|") {
				re := regexp.MustCompile(alt)
				hit := false
				for _, pkg := range pkgs {
					hit = hit || matchesAny(re, funcs[pkg])
				}
				if !hit {
					t.Errorf("%s alternative %q selects nothing in %s (%s)", flag, alt, strings.Join(pkgs, " "), strings.TrimSpace(line))
				}
			}
		}
	}
	if lines == 0 {
		t.Fatal("no go test line of ci.yml selects by pattern")
	}
}

// shellWords splits a command line into words, honouring single quotes.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	quoted, inWord := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if inWord {
				words = append(words, w.String())
				w.Reset()
			}
			inWord = false
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// testFuncs returns the top-level functions of dir's test files whose names
// start with one of prefixes.
func testFuncs(t *testing.T, dir string, prefixes []string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				for _, p := range prefixes {
					if strings.HasPrefix(fn.Name.Name, p) {
						out = append(out, fn.Name.Name)
					}
				}
			}
		}
	}
	return out
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
