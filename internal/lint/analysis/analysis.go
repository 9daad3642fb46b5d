// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, shaped API-for-API so the tspu-vet
// analyzers read like upstream vet analyzers and could be ported onto the
// real framework by changing one import. The module is deliberately
// dependency-free (see DESIGN.md), and the build environment pins that down
// hard, so the framework lives here instead of in go.mod.
//
// Only the subset the determinism suite needs is implemented: syntax+types
// passes with positional diagnostics, plus object facts (see Fact) so the
// contract analyzers can follow calls across package boundaries. SSA is out
// of scope — every tspu-vet analyzer is a function of one type-checked
// package and the facts its dependencies exported. There is one way to run
// an analyzer: whole-program, packages in dependency order, facts held in
// one in-memory Store (nothing is serialized), so every Pass has Facts.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one named check. Mirrors x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //tspuvet:allow directives. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between one Analyzer and one package. Mirrors the
// fields of x/tools' analysis.Pass that the suite uses.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Set by the driver.
	Report func(Diagnostic)

	// Facts is this pass's view into the whole-program fact store. Every
	// runner sets it: packages are analyzed in dependency order, so the
	// facts of every dependency are already in the store.
	Facts *FactSet
}

// ExportObjectFact attaches fact to obj (a package-level object of the
// package being analyzed) for importing packages to see.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.Facts.export(obj, fact)
}

// ImportObjectFact copies the fact of ptr's type attached to obj into ptr,
// reporting whether one existed. Works for objects of this package (exported
// earlier in this pass) and of its dependencies.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.Facts.imp(obj, ptr)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional: token.NoPos if unknown
	Category string    // the reporting analyzer's name; set by the driver
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRangef reports a formatted diagnostic over an AST node's extent.
func (p *Pass) ReportRangef(n ast.Node, format string, args ...any) {
	p.Report(Diagnostic{Pos: n.Pos(), End: n.End(), Message: fmt.Sprintf(format, args...)})
}

// PkgNameOf resolves the *types.PkgName a selector's base identifier refers
// to, or nil if the identifier is not a package name. It is the type-correct
// way to answer "is this expression `time.Now` the package time, even if the
// file renamed the import?".
func (p *Pass) PkgNameOf(id *ast.Ident) *types.PkgName {
	if p.TypesInfo == nil {
		return nil
	}
	if pn, ok := p.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn
	}
	return nil
}
