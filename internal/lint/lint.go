// Package lint is the determinism static-analysis suite behind cmd/sfs-lint.
//
// Everything this reproduction guarantees — cross-backend sim/live agreement
// on fail-stop fates, byte-identical -shard/-merge recombination, plan-file
// round-trips reproducing reports byte for byte — rests on one invariant:
// the simulation path is a pure function of (spec, seed). The analyzers in
// this package make that invariant machine-checked instead of conventional:
//
//   - detmaprange: map iteration order must not reach output in
//     deterministic packages (collect-and-sort, or annotate).
//   - detwallclock: no wall-clock reads or sleeps outside the wall-clock
//     packages, and even there only with a declared reason.
//   - detrand: no math/rand global-state functions anywhere; seeded
//     sources in deterministic packages must not be seeded by constants
//     or by the clock.
//   - exhaustiveswitch: switches over module-local enums (sim.StopReason,
//     sweep.FaultKind, ...) must cover every value or carry a default.
//   - jsontagcomplete: wire/file structs (//sfs:wire) must tag every
//     exported field explicitly, so adding a field cannot silently change
//     or drop serialized output.
//
// Findings are suppressible only through `//sfs:allow <analyzer> <reason>`
// annotations, which the driver itself validates: unknown analyzer names,
// missing reasons, and stale allows (suppressing nothing) are findings too.
//
// The package also holds the repository's structural rules — one host.Core
// for both hosts, one stack assembly, one rule set, 32-bit ids, retired
// knobs that stay retired — as one table, Guards (guardtable.go), checked
// by the "guards" analyzer over the module's source text. Each row is one of
// four kinds: Once (a fixed string is in exactly one file), Retired (a
// regexp matches no line of its scope), Count (exactly N lines of one file
// match) and Imports (a package does not import another, directly or
// through the module's packages). Every row carries its reason and the PR
// that set it; no annotation suppresses one. Tier-1 runs the table over the
// repository and plants a violation of every row (guards_test.go), so a
// new rule is one row and nothing else.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Profile is a package's determinism classification.
type Profile int

const (
	// Deterministic packages implement the pure-function-of-(spec, seed)
	// contract; every analyzer applies at full strictness.
	Deterministic Profile = iota
	// WallClock packages (the live runtime, examples, commands) touch real
	// time and real scheduling. detmaprange and the seeded-source rule do
	// not apply, and wall-clock use is permitted under a file-level allow.
	WallClock
)

func (p Profile) String() string {
	if p == Deterministic {
		return "deterministic"
	}
	return "wall-clock"
}

// DeterministicPackages lists the import paths (and subtree roots) holding
// the deterministic profile. Everything else in the module is wall-clock.
var DeterministicPackages = []string{
	"failstop/internal/sim",
	"failstop/internal/netadv",
	"failstop/internal/sweep",
	"failstop/internal/model",
	"failstop/internal/reliable",
	"failstop/internal/byz",
	"failstop/internal/recovery",
	"failstop/internal/checker",
	"failstop/internal/adversary",
	"failstop/internal/obs",
	"failstop/internal/topo",
	"failstop/internal/quorum",
}

// DefaultClassify is the module's package classification.
func DefaultClassify(importPath string) Profile {
	for _, p := range DeterministicPackages {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return Deterministic
		}
	}
	return WallClock
}

// Diagnostic is one raw analyzer report, before allow-annotation filtering.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Profile  Profile
	// Prog gives analyzers cross-package access (e.g. jsontagcomplete
	// checking that a referenced type is declared //sfs:wire in its own
	// package).
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one determinism check.
type Analyzer struct {
	Name string
	Doc  string
	// Run checks one package; it is nil for AnalyzerGuards, which Run
	// applies to the module once.
	Run func(*Pass)
}

// Analyzers returns the full suite, in reporting order. The slice is fresh
// on every call so callers may subset it freely.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerDetMapRange,
		AnalyzerDetWallClock,
		AnalyzerDetRand,
		AnalyzerExhaustiveSwitch,
		AnalyzerJSONTagComplete,
		AnalyzerGuards,
	}
}

// Finding is one confirmed (post-allow-filtering) lint result.
type Finding struct {
	// File is the path relative to the module root; Line and Col are
	// 1-based.
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	if f.Line == 0 { // a finding about a file or directory as a whole
		return fmt.Sprintf("%s: %s: %s", f.File, f.Analyzer, f.Message)
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Options configures a lint run.
type Options struct {
	// Dir is a directory inside the module to lint; "" means ".".
	Dir string
	// Patterns are package patterns ("./...", directories, import paths).
	// Empty means "./...".
	Patterns []string
	// Analyzers subsets the suite; nil means all of Analyzers().
	Analyzers []*Analyzer
	// Classify overrides the package classification; nil means
	// DefaultClassify.
	Classify func(importPath string) Profile
}

// Run loads the matched packages, applies every analyzer under the package
// classification, filters and validates //sfs:allow annotations, and
// returns the surviving findings sorted by position.
func Run(opts Options) ([]Finding, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	prog, err := NewProgram(dir)
	if err != nil {
		return nil, err
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Patterns that are relative directories resolve against opts.Dir.
	resolved := make([]string, len(patterns))
	for i, p := range patterns {
		if p == "." || p == "..." || strings.HasPrefix(p, "./") || strings.HasPrefix(p, "../") {
			resolved[i] = filepath.Join(dir, strings.TrimPrefix(p, "./"))
			if strings.HasSuffix(p, "...") && !strings.HasSuffix(resolved[i], "...") {
				resolved[i] = filepath.Join(resolved[i], "...")
			}
		} else {
			resolved[i] = p
		}
	}
	paths, err := prog.ExpandPatterns(resolved)
	if err != nil {
		return nil, err
	}
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = Analyzers()
	}
	classify := opts.Classify
	if classify == nil {
		classify = DefaultClassify
	}
	known := map[string]bool{} // what an allow may name: not the guards
	for _, a := range Analyzers() {
		known[a.Name] = a.Run != nil
	}

	var findings []Finding
	for _, path := range paths {
		pkg, err := prog.Load(path)
		if err != nil {
			return nil, err
		}
		profile := classify(path)
		var diags []Diagnostic
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Profile:  profile,
				Prog:     prog,
				diags:    &diags,
			}
			a.Run(pass)
		}
		diags = applyAllows(pkg, profile, diags, known)
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			file := pos.Filename
			if rel, err := filepath.Rel(prog.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
			findings = append(findings, Finding{
				File:     file,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	if slices.Contains(analyzers, AnalyzerGuards) && prog.ModulePath == guardModule {
		rows, err := checkGuards(prog.ModuleDir, Guards)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			findings = append(findings, row...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}
