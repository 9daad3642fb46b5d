package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"tspusim/internal/lint/analysis"
)

// parseSrc parses one synthetic file for suppression tests (no type
// checking: Suppress operates purely on positions and comments).
func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// linePos returns a token.Pos on the given 1-based line of f.
func linePos(fset *token.FileSet, f *ast.File, line int) token.Pos {
	return fset.File(f.Pos()).LineStart(line)
}

const suppressSrc = `package p

func a() {
	_ = 1 //tspuvet:allow walltime: trailing directive for this line
	//tspuvet:allow statecheck: standalone directive for the next line
	_ = 2
	//tspuvet:allow globalrand: this one suppresses nothing and must be flagged
	_ = 3
}
`

func TestSuppressTrailingAndStandalone(t *testing.T) {
	fset, f := parseSrc(t, suppressSrc)
	ran := map[string]bool{"walltime": true, "statecheck": true, "globalrand": true}
	diags := []analysis.Diagnostic{
		{Pos: linePos(fset, f, 4), Category: "walltime", Message: "wall clock"},
		{Pos: linePos(fset, f, 6), Category: "statecheck", Message: "missing case"},
		{Pos: linePos(fset, f, 8), Category: "walltime", Message: "not covered by the globalrand directive"},
	}
	kept := Suppress(fset, []*ast.File{f}, diags, ran)
	var msgs []string
	for _, d := range kept {
		msgs = append(msgs, d.Category+": "+d.Message)
	}
	if len(kept) != 2 {
		t.Fatalf("Suppress kept %d diagnostics, want 2 (the uncovered walltime + the unused directive): %v", len(kept), msgs)
	}
	if kept[0].Category != "walltime" || !strings.Contains(kept[0].Message, "not covered") {
		t.Errorf("kept[0] = %v, want the uncovered walltime diagnostic", msgs[0])
	}
	if kept[1].Category != "allowdirective" || !strings.Contains(kept[1].Message, "unused //tspuvet:allow globalrand") {
		t.Errorf("kept[1] = %v, want the unused-directive diagnostic", msgs[1])
	}
}

// A directive for an analyzer that did not run must not be reported unused:
// running a subset of the suite must never flag live allowlist entries.
func TestSuppressSubsetRunKeepsDirectivesQuiet(t *testing.T) {
	fset, f := parseSrc(t, suppressSrc)
	kept := Suppress(fset, []*ast.File{f}, nil, map[string]bool{"allowdirective": true})
	if len(kept) != 0 {
		t.Fatalf("Suppress with no suite analyzers ran flagged %d directives as unused, want 0", len(kept))
	}
}

// A directive must only suppress its own analyzer's diagnostics.
func TestSuppressWrongAnalyzerDoesNotApply(t *testing.T) {
	fset, f := parseSrc(t, suppressSrc)
	ran := map[string]bool{"walltime": true, "statecheck": true, "globalrand": true}
	diags := []analysis.Diagnostic{
		// statecheck diagnostic on the line covered only by a walltime directive.
		{Pos: linePos(fset, f, 4), Category: "statecheck", Message: "missing case"},
	}
	kept := Suppress(fset, []*ast.File{f}, diags, ran)
	found := false
	for _, d := range kept {
		if d.Category == "statecheck" {
			found = true
		}
	}
	if !found {
		t.Error("a walltime directive suppressed a statecheck diagnostic")
	}
}

// Allowdirective diagnostics themselves are unsuppressible by construction.
func TestSuppressCannotSilenceAllowdirective(t *testing.T) {
	fset, f := parseSrc(t, suppressSrc)
	ran := map[string]bool{"walltime": true}
	diags := []analysis.Diagnostic{
		{Pos: linePos(fset, f, 4), Category: "allowdirective", Message: "malformed"},
	}
	kept := Suppress(fset, []*ast.File{f}, diags, ran)
	if len(kept) == 0 || kept[0].Category != "allowdirective" {
		t.Fatal("an allowdirective diagnostic was suppressed; the suppressor must not be suppressible")
	}
}
