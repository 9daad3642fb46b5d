package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tspusim/internal/lint/analysis"
)

const directivePrefix = "//tspuvet:"

const (
	allowVerb      = "allow"
	retainsVerb    = "retains"
	hotpathVerb    = "hotpath"
	coldpathVerb   = "coldpath"
	laneVerb       = "lane"
	laneownedVerb  = "laneowned"
	impureVerb     = "impure"
	closedenumVerb = "closedenum"
)

// markerPlace is where a marker verb must sit to mean anything.
type markerPlace int

const (
	onLine  markerPlace = iota // a suppression: applies to its own line and the next
	onFunc                     // the doc comment of a function declaration
	onType                     // the doc comment of a type declaration
	onStamp                    // its own line or the line above a function declaration
)

// markerRule is one verb's placement and reason rule.
type markerRule struct {
	place markerPlace
	// owner is the analyzer that reports this verb's misplaced or reasonless
	// markers, so the suite reports each problem once.
	owner string
	// why, when set, makes the reason mandatory and explains why in the
	// missing-reason diagnostic.
	why string
	// named markers found on the other declaration kind say where they
	// belong instead of reporting as unattached.
	named bool
}

// markerRules is the marker grammar: every //tspuvet: verb and where it goes.
var markerRules = map[string]markerRule{
	allowVerb:      {place: onLine, owner: "allowdirective", why: "the allowlist must explain itself"},
	retainsVerb:    {place: onLine, owner: "allowdirective", why: "deliberate packet retention must explain who owns the copy and when it is dropped"},
	hotpathVerb:    {place: onFunc, owner: "hotpath"},
	coldpathVerb:   {place: onFunc, owner: "hotpath", why: "cutting a function out of the hot-path contract must explain itself"},
	laneVerb:       {place: onFunc, owner: "lanecheck", named: true},
	laneownedVerb:  {place: onType, owner: "lanecheck", named: true},
	impureVerb:     {place: onStamp, owner: "walltime", why: "declaring a function off the determinism contract must explain itself"},
	closedenumVerb: {place: onType, owner: "statecheck"},
}

// parseMarker splits a //tspuvet:<verb> [rest] comment. A later "//" ends
// the marker (trailing commentary, and the golden fixtures' want
// annotations), so a reason cannot contain it.
func parseMarker(c *ast.Comment) (verb, rest string, ok bool) {
	body, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return "", "", false
	}
	if i := strings.Index(body, "//"); i >= 0 {
		body = strings.TrimSpace(body[:i])
	}
	verb, rest, _ = strings.Cut(body, " ")
	return verb, strings.TrimSpace(rest), true
}

// missingReason renders the diagnostic for a marker whose verb demands a
// reason; subject names what the marker is about (" on Device.sweep").
func missingReason(verb, subject string) string {
	return fmt.Sprintf("//tspuvet:%s%s is missing a reason: %s", verb, subject, markerRules[verb].why)
}

// marker is one declaration marker bound to what it annotates.
type marker struct {
	pos    token.Pos
	reason string
}

// markerTable is one package's declaration markers, bound to the functions
// and types they annotate.
type markerTable struct {
	funcs map[*types.Func]map[string]marker
	types map[string][]*types.TypeName // marked types per verb, source order
}

// funcMarker returns fn's marker of the given verb.
func (t *markerTable) funcMarker(fn *types.Func, verb string) (marker, bool) {
	m, ok := t.funcs[fn][verb]
	return m, ok
}

// bindMarkers binds every declaration marker in pass's files and reports
// the misplaced and reasonless ones whose verb the running analyzer owns.
func bindMarkers(pass *analysis.Pass) *markerTable {
	t := &markerTable{funcs: map[*types.Func]map[string]marker{}, types: map[string][]*types.TypeName{}}
	reportf := func(verb string, pos token.Pos, format string, args ...any) {
		if markerRules[verb].owner == pass.Analyzer.Name {
			pass.Reportf(pos, format, args...)
		}
	}
	bindFunc := func(fn *types.Func, verb string, c *ast.Comment, reason, name string) {
		if reason == "" && markerRules[verb].why != "" {
			reportf(verb, c.Pos(), "%s", missingReason(verb, " on "+name))
		}
		if t.funcs[fn] == nil {
			t.funcs[fn] = map[string]marker{}
		}
		t.funcs[fn][verb] = marker{pos: c.Pos(), reason: reason}
	}
	bound := map[*ast.Comment]bool{}
	// Functions are keyed by file AND line for stamps: packages hold many
	// files, and a test file's declaration at line 63 must not steal a stamp
	// aimed at fleet.go's line 63.
	type fileLine struct {
		file string
		line int
	}
	type declared struct {
		fn *types.Func
		fd *ast.FuncDecl
	}
	byLine := map[fileLine]declared{}
	markTypes := func(doc *ast.CommentGroup, specs []ast.Spec) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			verb, _, ok := parseMarker(c)
			rule := markerRules[verb]
			switch {
			case !ok:
			case rule.place == onType:
				bound[c] = true
				for _, spec := range specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
							t.types[verb] = append(t.types[verb], tn)
						}
					}
				}
			case rule.place == onFunc && rule.named:
				bound[c] = true
				reportf(verb, c.Pos(), "//tspuvet:%s belongs on a function declaration, not on a type", verb)
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok || d.Body == nil {
					continue
				}
				pos := pass.Fset.Position(d.Pos())
				byLine[fileLine{pos.Filename, pos.Line}] = declared{fn, d}
				if d.Doc == nil {
					continue
				}
				for _, c := range d.Doc.List {
					verb, reason, ok := parseMarker(c)
					rule := markerRules[verb]
					switch {
					case !ok:
					case rule.place == onFunc:
						bound[c] = true
						bindFunc(fn, verb, c, reason, funcDisplayName(d))
					case rule.place == onType && rule.named:
						bound[c] = true
						reportf(verb, c.Pos(), "//tspuvet:%s belongs on a type declaration, not on function %s",
							verb, funcDisplayName(d))
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				markTypes(d.Doc, d.Specs)
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						markTypes(ts.Doc, []ast.Spec{spec})
					}
				}
			}
		}
	}

	// Stamps bind to the function declared on their own line or the next;
	// any other declaration marker left over is attached to nothing and
	// silently enforces nothing.
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, reason, ok := parseMarker(c)
				rule, known := markerRules[verb]
				if !ok || !known || rule.place == onLine || bound[c] {
					continue
				}
				if rule.place == onStamp {
					pos := pass.Fset.Position(c.Pos())
					d, found := byLine[fileLine{pos.Filename, pos.Line}]
					if !found {
						d, found = byLine[fileLine{pos.Filename, pos.Line + 1}]
					}
					if found {
						// Stamps name functions the way purity chains do.
						bindFunc(d.fn, verb, c, reason, pass.Pkg.Name()+"."+funcDisplayName(d.fd))
						continue
					}
				}
				kind := "function"
				if rule.place == onType {
					kind = "type"
				}
				reportf(verb, c.Pos(), "//tspuvet:%s must be the doc comment of a %s declaration", verb, kind)
			}
		}
	}
	return t
}
