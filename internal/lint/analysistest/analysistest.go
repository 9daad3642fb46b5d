// Package analysistest is a golden-test driver for the tspu-vet analyzers,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture packages
// live under testdata/src/<path>, and every line that should trigger a
// diagnostic carries a trailing
//
//	// want "regexp"
//
// comment (several quoted regexps may follow one want). The harness runs one
// analyzer whole-program over the type-checked fixture packages and fails
// the test on any unexpected diagnostic or unmatched expectation.
//
// Fixture imports resolve testdata-locally first (so fixtures can model
// module-internal packages like tspusim/internal/report) and fall back to
// type-checking the standard library from GOROOT source, which keeps the
// harness free of both the network and the go command.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tspusim/internal/lint/analysis"
)

// Run applies a to pkgPaths and every fixture-local package they pull in,
// in dependency order with one shared fact store — the same whole-program
// run tspu-vet makes. Want comments are checked in dependency packages too,
// so one fixture tree pins both the local diagnostic that seeds a fact and
// the cross-package diagnostic the fact produces.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(dir, "src"))
	for _, path := range pkgPaths {
		if _, err := l.load(path); err != nil {
			t.Errorf("%s: loading fixture %s: %v", a.Name, path, err)
			return
		}
	}
	store := analysis.NewStore()
	// l.order is type-check completion order: a package's imports finish
	// before it does, so walking it forward is dependency order.
	diagsByPath := map[string][]analysis.Diagnostic{}
	for _, path := range l.order {
		lp := l.pkgs[path]
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      l.fset,
			Files:     lp.files,
			Pkg:       lp.pkg,
			TypesInfo: lp.info,
			Facts:     store.View(a.Name, lp.pkg),
			Report: func(d analysis.Diagnostic) {
				d.Category = a.Name
				diags = append(diags, d)
			},
		}
		if _, err := a.Run(pass); err != nil {
			t.Errorf("%s: running on %s: %v", a.Name, path, err)
			return
		}
		diagsByPath[path] = diags
	}
	for _, path := range l.order {
		checkExpectations(t, a.Name, l.fset, l.pkgs[path].files, diagsByPath[path])
	}
}

// expectation is one "want" regexp attached to a fixture line.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	met  bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// checkExpectations enforces the analysistest contract: every diagnostic
// matches a want on its line, and every want is matched by a diagnostic.
func checkExpectations(t *testing.T, name string, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	byLine := map[string][]*expectation{}
	var all []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					var pat string
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
							continue
						}
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					e := &expectation{file: pos.Filename, line: pos.Line, rx: rx}
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					byLine[key] = append(byLine[key], e)
					all = append(all, e)
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for _, e := range byLine[key] {
			if !e.met && e.rx.MatchString(d.Message) {
				e.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d:%d: %s", name, pos.Filename, pos.Line, pos.Column, d.Message)
		}
	}
	for _, e := range all {
		if !e.met {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", name, e.file, e.line, e.rx)
		}
	}
}

// loader type-checks fixture packages, memoized, with stdlib fallback.
type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loaded
	// order records fixture packages in type-check completion order; imports
	// complete before their importers, so this is a topological order.
	order []string
}

type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*loaded{},
	}
}

// Import makes loader a types.Importer for fixture-internal imports.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*loaded, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, lp.err
	}
	lp := &loaded{}
	l.pkgs[path] = lp
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		lp.err = err
		return lp, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		lp.err = fmt.Errorf("no .go files in %s", dir)
		return lp, lp.err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			lp.err = err
			return lp, err
		}
		lp.files = append(lp.files, f)
	}
	lp.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	lp.pkg, lp.err = conf.Check(path, l.fset, lp.files, lp.info)
	if lp.err == nil {
		l.order = append(l.order, path)
	}
	return lp, lp.err
}
