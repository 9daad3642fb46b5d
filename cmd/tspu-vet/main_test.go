package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The escape gate's scope must be exactly the packages whose non-test files
// carry a //tspuvet:hotpath root: a new annotated package outside the list
// would go unguarded, and a listed package that lost its roots would gate
// escapes no contract asks about.
func TestHotPathPackagesAnnotated(t *testing.T) {
	root := filepath.Join("..", "..")
	var annotated []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module (perfbench) is not gated
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//tspuvet:hotpath")
				if ok && (rest == "" || rest[0] == ' ') {
					rel, err := filepath.Rel(root, filepath.Dir(path))
					if err != nil {
						return err
					}
					annotated = append(annotated, "./"+filepath.ToSlash(rel))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(annotated)
	annotated = slices.Compact(annotated)
	scope := slices.Clone(hotPathPackages)
	slices.Sort(scope)
	if !slices.Equal(annotated, scope) {
		t.Errorf("hotPathPackages = %v, but the packages with //tspuvet:hotpath roots are %v", scope, annotated)
	}
}
