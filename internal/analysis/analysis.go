// Package analysis is a self-contained reimplementation of the shape of
// golang.org/x/tools/go/analysis, sized for this repository: an Analyzer
// owns a Run function over a type-checked package (a Pass) and reports
// position-anchored Diagnostics carrying a stable diagnostic code.
//
// The x/tools module is deliberately not a dependency — the repo builds
// offline with the standard library only — so the framework keeps the same
// conceptual API (Analyzer, Pass, Diagnostic, an analysistest-style golden
// harness under internal/analysis/analysistest, and a multichecker driver
// in cmd/mutls-vet) without the facts/vetx machinery this suite does not
// need. Analyzers written against it port to the real go/analysis API
// mechanically if the dependency ever becomes available.
//
// Suppression: a diagnostic is silenced by a
//
//	//lint:allow CODE reason...
//
// comment on the reported line or the line directly above it. The reason
// is mandatory: a bare //lint:allow CODE does not suppress, so every
// suppression in the tree documents why the flagged access is safe
// (typically: provably sequential-phase).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check of the mutls speculation
// contract.
type Analyzer struct {
	// Name is the analyzer's identifier (flag name in cmd/mutls-vet).
	Name string
	// Doc is the one-paragraph description printed by mutls-vet -list.
	Doc string
	// Codes lists the diagnostic codes the analyzer can emit, for -list
	// and the README table.
	Codes []string
	// NeedsInter marks analyzers that consume the interprocedural effect
	// index (Pass.Inter). The driver builds the index once per batch when
	// any selected analyzer needs it; fast mode (mutls-vet -fast) drops
	// these analyzers instead.
	NeedsInter bool
	// Run executes the check over one package and reports through
	// pass.Report.
	Run func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic. The driver installs suppression
	// filtering and output formatting here.
	Report func(Diagnostic)

	// Inter carries the cross-package analysis state for analyzers with
	// NeedsInter — concretely an *effects.Index built over every package
	// in the batch (typed as any to keep this package dependency-free).
	// The driver always sets it for NeedsInter analyzers.
	Inter any
}

// Reportf reports a diagnostic at pos with the given code.
func (p *Pass) Reportf(pos token.Pos, code, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      pos,
		Code:     code,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Code     string // stable code, e.g. "POLL001"
	Message  string
	Analyzer string
}

// Position resolves the diagnostic's file position against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// Format renders the diagnostic in the file:line:col: CODE: message
// (analyzer) form.
func (d Diagnostic) Format(fset *token.FileSet) string {
	p := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: %s: %s (%s)", p.Filename, p.Line, p.Column, d.Code, d.Message, d.Analyzer)
}
