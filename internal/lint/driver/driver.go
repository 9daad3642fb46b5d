// Package driver loads, type-checks, and analyzes Go packages for tspu-vet
// without golang.org/x/tools: package discovery and export data come from
// `go list -export -deps -json` (which works offline against the build
// cache), type information from go/types with the stdlib gc importer, and
// the analyzers from internal/lint. Check is the only entry point: it runs
// the whole suite over the whole program, with facts held in memory.
//
// Only non-test files are analyzed. The determinism contract governs what
// can reach experiment output; tests measure wall time and exercise the
// orchestrator's real clocks deliberately, so they are outside it.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"tspusim/internal/lint"
	"tspusim/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Diagnostic is one rendered finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Check runs the full lint.Analyzers suite over the packages matching
// patterns (resolved by the go command relative to dir; empty dir means the
// current directory) and returns the surviving diagnostics after
// //tspuvet:allow suppression, sorted by position.
//
// The analysis is whole-program: every module package in the dependency
// closure is analyzed in dependency order with one shared fact store, so the
// facts a dependency exports (purity taint, closed enums) are visible when
// its dependents are analyzed.
// Diagnostics are reported only for the packages that matched patterns;
// dependency-only packages contribute facts alone.
func Check(dir string, patterns []string) ([]Diagnostic, error) {
	pkgs, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	analyzers := lint.Analyzers()
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	fset := token.NewFileSet()
	// One shared importer: export data is position-independent and the
	// module has no vendoring, so a single path->file map serves every
	// target package and lets the importer cache dependencies.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	store := analysis.NewStore()
	var diags []Diagnostic
	for _, lp := range dependencyOrder(pkgs) {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkgDiags, err := checkPackage(fset, imp, lp, analyzers, ran, store)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		if lp.DepOnly {
			continue // analyzed for facts only; not a requested target
		}
		diags = append(diags, pkgDiags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// dependencyOrder sorts module packages so every package comes after the
// packages it imports — the order fact propagation requires. `go list -deps`
// already emits depth-first post-order, but the sort is recomputed here so
// the result (and therefore every fact-dependent diagnostic) is identical no
// matter how the input happened to be ordered. Ties keep input order, which
// go list makes deterministic.
func dependencyOrder(pkgs []*listPackage) []*listPackage {
	byPath := make(map[string]*listPackage, len(pkgs))
	for _, lp := range pkgs {
		byPath[lp.ImportPath] = lp
	}
	out := make([]*listPackage, 0, len(pkgs))
	visited := make(map[string]bool, len(pkgs))
	var visit func(lp *listPackage)
	visit = func(lp *listPackage) {
		if visited[lp.ImportPath] {
			return
		}
		visited[lp.ImportPath] = true
		for _, path := range lp.Imports {
			if resolved, ok := lp.ImportMap[path]; ok {
				path = resolved
			}
			if dep, ok := byPath[path]; ok && !dep.Standard {
				visit(dep)
			}
		}
		out = append(out, lp)
	}
	for _, lp := range pkgs {
		visit(lp)
	}
	return out
}

// checkPackage parses, type-checks, and analyzes one listed package,
// exporting its facts into store for the packages that import it.
func checkPackage(fset *token.FileSet, imp types.Importer, lp *listPackage,
	analyzers []*analysis.Analyzer, ran map[string]bool, store *analysis.Store) ([]Diagnostic, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking: %w", err)
	}

	var raw []analysis.Diagnostic
	for _, a := range analyzers {
		name := a.Name
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     store.View(name, pkg),
			Report: func(d analysis.Diagnostic) {
				d.Category = name
				raw = append(raw, d)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", name, err)
		}
	}
	kept := lint.Suppress(fset, files, raw, ran)
	out := make([]Diagnostic, 0, len(kept))
	for _, d := range kept {
		out = append(out, Diagnostic{Pos: fset.Position(d.Pos), Analyzer: d.Category, Message: d.Message})
	}
	return out, nil
}

// goList shells out once for targets and their full dependency closure with
// export data, so type-checking needs no network and no second pass.
func goList(dir string, patterns []string) ([]*listPackage, map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, strings.TrimSpace(stderr.String()))
	}
	var pkgs []*listPackage
	exports := map[string]string{}
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		lp := &listPackage{}
		if err := dec.Decode(lp); err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, exports, nil
}
