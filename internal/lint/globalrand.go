package lint

import (
	"go/ast"
	"strconv"

	"tspusim/internal/lint/analysis"
)

// Globalrand forbids importing the ambient randomness packages. All entropy
// in this module must flow from one root seed through sim.Rand (the
// self-contained xoshiro generator) or sim.StreamSeed, so that every
// experiment is byte-for-byte regenerable and adding randomness in one
// subsystem cannot perturb another. math/rand's global source, math/rand/v2
// (auto-seeded, no Seed at all), and crypto/rand are all unreproducible by
// construction, so the import itself is the violation.
//
// The check is also transitive: a function that uses an
// ambient-rand package (under an allowed import) exports an ImpureFact, the
// taint propagates through calls exactly like walltime's, and cross-package
// calls into tainted code are diagnostics. A //tspuvet:impure stamp on the
// caller silences them (the stamp itself is validated by walltime, once for
// the suite).
var Globalrand = &analysis.Analyzer{
	Name: "globalrand",
	Doc: "forbid math/rand, math/rand/v2, and crypto/rand imports and, transitively, " +
		"calls into code that uses them; " +
		"experiment entropy must derive from sim.Rand / sim.StreamSeed",
	Run: runGlobalrand,
}

var bannedRandImports = map[string]string{
	"math/rand":    "its global source is shared mutable state outside the seed's control",
	"math/rand/v2": "it auto-seeds from the OS and cannot be made reproducible",
	"crypto/rand":  "it is entropy from the OS, unreproducible by design",
}

func runGlobalrand(pass *analysis.Pass) (any, error) {
	direct := map[*ast.FuncDecl]string{}
	for _, f := range pass.Files {
		banned := false
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, bad := bannedRandImports[path]; bad {
				banned = true
				pass.ReportRangef(imp, "import of %s: %s; derive randomness from sim.Rand / sim.StreamSeed", path, why)
			}
		}
		if !banned {
			continue
		}
		// The file imports ambient randomness (necessarily under a
		// //tspuvet:allow globalrand); every function that uses it is impure.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn := pass.PkgNameOf(id)
				if pn == nil {
					return true
				}
				if _, bad := bannedRandImports[pn.Imported().Path()]; bad {
					if _, seeded := direct[fd]; !seeded {
						direct[fd] = pn.Imported().Path() + "." + sel.Sel.Name
					}
				}
				return true
			})
		}
	}
	pr := &purityRun{
		pass:   pass,
		what:   "ambient randomness",
		advice: "derive entropy from sim.Rand / sim.StreamSeed instead, or mark the calling function //tspuvet:impure <reason>",
		// walltime owns //tspuvet:impure validation (markerRules) and
		// assertion semantics; here the stamp only silences transitive
		// diagnostics.
	}
	pr.run(direct)
	return nil, nil
}
