package lint

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"
)

// TestGuardsHold runs the guard table over the repository: no row fires.
func TestGuardsHold(t *testing.T) {
	rows, err := checkGuards(filepath.Join("..", ".."), Guards)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, f := range row {
			t.Error(f)
		}
	}
}

// TestGuardPlants builds, in a temporary directory, the smallest module the
// table passes: each Once string in a file of its own, each Count file with
// its N matching lines, every scope present. Then it plants a violation of
// each row in turn — a second copy of a Once string, a line matching a
// Retired or an extra one matching a Count pattern in the row's first scope,
// an import of a matching path (through a module package unless the row is
// Direct) — and wants exactly that row to fire.
func TestGuardPlants(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module "+guardModule+"\n\ngo 1.22\n")
	for _, g := range Guards {
		for _, s := range g.Scope {
			write(t, root, plantFile(s), "package x\n")
		}
	}
	for i, g := range Guards {
		switch g.Kind {
		case Once:
			write(t, root, fmt.Sprintf("once/%02d.go", i), "package x\n\n// "+g.Pattern+"\n")
		case Count:
			write(t, root, g.Scope[0], read(t, root, g.Scope[0])+strings.Repeat(example(t, g.Pattern)+"\n", g.N))
		}
	}
	fires := func(t *testing.T, row int) {
		t.Helper()
		rows, err := checkGuards(root, Guards)
		if err != nil {
			t.Fatal(err)
		}
		for i, fs := range rows {
			if i == row && len(fs) == 0 {
				t.Errorf("row %d (%q) did not fire", i, Guards[i].Pattern)
			}
			for _, f := range fs {
				if i != row {
					t.Errorf("row %d fired: %s", i, f)
				}
			}
		}
	}
	fires(t, -1)
	for i, g := range Guards {
		t.Run(fmt.Sprintf("%02d", i), func(t *testing.T) {
			// plant adds text to file rel until the subtest ends.
			plant := func(rel, text string) {
				p := filepath.Join(root, filepath.FromSlash(rel))
				before, err := os.ReadFile(p)
				if err != nil {
					before = []byte("package x\n")
					t.Cleanup(func() { os.Remove(p) })
				} else {
					t.Cleanup(func() { write(t, root, rel, string(before)) })
				}
				write(t, root, rel, string(before)+text)
			}
			scope := ""
			if g.Scope != nil {
				scope = g.Scope[0]
			}
			switch g.Kind {
			case Once:
				plant("plant.go", "// "+g.Pattern+"\n")
			case Retired, Count:
				plant(plantFile(scope), example(t, g.Pattern)+"\n")
			case Imports:
				target := example(t, g.Pattern)
				if !g.Direct {
					plant("plant/mid.go", "import _ \""+target+"\"\n")
					target = guardModule + "/plant"
				}
				plant(plantFile(scope), "import _ \""+target+"\"\n")
			}
			fires(t, i)
		})
	}
	t.Run("scope gone", func(t *testing.T) {
		i := slices.IndexFunc(Guards, func(g Guard) bool { return g.Kind == Retired && len(g.Scope) > 0 })
		gone := Guards[i].Scope[0]
		if err := os.Rename(filepath.Join(root, gone), filepath.Join(root, "gone")); err != nil {
			t.Fatal(err)
		}
		fires(t, i)
	})
}

// plantFile names the file a plant in scope s goes to: s itself, or a file
// in the directory s ("" is the module root).
func plantFile(s string) string {
	if strings.HasSuffix(s, ".go") {
		return s
	}
	return path.Join(s, "plant.go")
}

func write(t *testing.T, root, rel, text string) {
	t.Helper()
	p := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, root, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// example returns a string the RE2 pattern matches: each repetition at its
// minimum (a plus once), the first alternative, the first rune of a class.
func example(t *testing.T, pattern string) string {
	t.Helper()
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var gen func(r *syntax.Regexp)
	gen = func(r *syntax.Regexp) {
		switch r.Op {
		case syntax.OpLiteral:
			b.WriteString(string(r.Rune))
		case syntax.OpCharClass:
			b.WriteRune(r.Rune[0])
		case syntax.OpAnyChar, syntax.OpAnyCharNotNL:
			b.WriteByte('x')
		case syntax.OpCapture, syntax.OpPlus, syntax.OpAlternate:
			gen(r.Sub[0])
		case syntax.OpRepeat:
			for k := 0; k < r.Min; k++ {
				gen(r.Sub[0])
			}
		case syntax.OpConcat:
			for _, s := range r.Sub {
				gen(s)
			}
		}
	}
	gen(re)
	if !regexp.MustCompile(pattern).MatchString(b.String()) {
		t.Fatalf("example %q does not match %q", b.String(), pattern)
	}
	return b.String()
}
