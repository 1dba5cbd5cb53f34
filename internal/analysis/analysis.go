// Package analysis is the repo's project-specific static-analysis
// framework: a stdlib-only package loader (go/parser + go/types, no
// external module dependencies), a diagnostic model, and a small set
// of analyzers for invariants whose violations no test or gate
// catches — Predict purity, replay determinism, wire-protocol bounds
// checking, error handling in the operational layers, and VP1
// op/status exhaustiveness. Invariants a running check proves are left
// to it: allocation-free hot paths to the zero-alloc tests and
// `make allocgate`, joinable goroutines to the leakcheck-armed tests,
// and locking to `make race`.
//
// The analyzers are deliberately narrow: each encodes one invariant
// documented in DESIGN.md §"Statically enforced invariants", scoped
// to the packages where the invariant holds. They are run by
// cmd/vplint (wired into `make lint` and `make verify`).
//
// # Suppression
//
// A finding is suppressed by annotating the offending line — or the
// line directly above it — with
//
//	//lint:ignore <rule-id> <reason>
//
// The rule ID may be a comma-separated list. The reason is mandatory:
// a suppression without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a rule violation at a position.
type Diagnostic struct {
	Rule    string         // analyzer ID, e.g. "predict-purity"
	Pos     token.Position // file:line:col
	Message string
}

// String formats the diagnostic the way cmd/vplint prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule. Run inspects a single type-checked
// package and reports findings through the pass.
type Analyzer struct {
	// ID is the stable rule identifier used in output and in
	// //lint:ignore annotations.
	ID string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run analyzes pass.Pkg.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, package) pairing. All holds every
// package of the Run invocation, so cross-package analyzers
// (proto-exhaustive checks serve's constants against the cluster
// router's forwarding) can look beyond Pkg.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	All      []*Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.ID,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PredictPurity,
		Determinism,
		ProtoBounds,
		ErrorDiscipline,
		ProtoExhaustive,
	}
}

// ByID resolves a comma-separated rule list against the suite.
func ByID(ids string) ([]*Analyzer, error) {
	if ids == "" {
		return All(), nil
	}
	byID := make(map[string]*Analyzer)
	for _, a := range All() {
		byID[a.ID] = a
	}
	var out []*Analyzer
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		a, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", id)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to the packages, filters findings through
// the packages' //lint:ignore annotations, and returns the remainder
// sorted by position. Malformed suppressions (missing reason) are
// reported under the pseudo-rule "lint-directive".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, All: pkgs, diags: &diags}
			a.Run(pass)
		}
		diags = append(diags, pkg.badDirectives...)
	}
	var out []Diagnostic
	for _, d := range diags {
		if !suppressed(pkgs, d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

func suppressed(pkgs []*Package, d Diagnostic) bool {
	for _, pkg := range pkgs {
		if pkg.suppresses(d) {
			return true
		}
	}
	return false
}

// --- suppression directives ------------------------------------------

// suppression is one parsed //lint:ignore annotation.
type suppression struct {
	rules []string // rule IDs it silences
	line  int      // the comment's own line
}

const ignorePrefix = "//lint:ignore"

// parseSuppressions scans a file's comments for lint:ignore
// directives. Directives missing a rule or a reason are returned as
// diagnostics instead.
func parseSuppressions(fset *token.FileSet, f *ast.File) (map[int][]suppression, []Diagnostic) {
	byLine := make(map[int][]suppression)
	var bad []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			fields := strings.Fields(rest)
			line := fset.Position(c.Pos()).Line
			if len(fields) < 2 {
				bad = append(bad, Diagnostic{
					Rule:    "lint-directive",
					Pos:     fset.Position(c.Pos()),
					Message: "malformed directive: want //lint:ignore <rule>[,<rule>...] <reason>",
				})
				continue
			}
			s := suppression{rules: strings.Split(fields[0], ","), line: line}
			byLine[line] = append(byLine[line], s)
		}
	}
	return byLine, bad
}

// suppresses reports whether the package carries an ignore directive
// covering d: same rule, same file, on the diagnostic's line (inline
// comment) or the line directly above it (standalone comment).
func (p *Package) suppresses(d Diagnostic) bool {
	byLine, ok := p.ignores[d.Pos.Filename]
	if !ok {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, s := range byLine[line] {
			for _, r := range s.rules {
				if r == d.Rule {
					return true
				}
			}
		}
	}
	return false
}
