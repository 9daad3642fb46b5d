package lint

import (
	"go/ast"

	"tspusim/internal/lint/analysis"
)

// Walltime forbids reading or scheduling against the wall clock. The
// simulator's whole value over the paper's fieldwork is that timeout
// semantics run on a virtual clock (internal/sim), so one stray time.Now in
// a simulation package makes experiment output vary run to run. Code that
// legitimately deals in wall time — the fleet orchestrator's diagnostic
// metrics, command-line progress on stderr — declares it inline:
//
//	start := time.Now() //tspuvet:allow walltime: metrics are diagnostics, never aggregated
//
// With facts enabled the check is transitive: every function that reaches
// wall-clock time (directly, through same-package calls, or through an
// imported function carrying an ImpureFact) exports an ImpureFact of its
// own, and a cross-package call into such a function is a diagnostic with
// the full chain. Orchestration layers that are deliberately wall-clocked
// declare it once at their boundary:
//
//	//tspuvet:impure fleet orchestration reports wall-clock progress
//	func RunFleet(...)
//
// which silences the transitive diagnostics inside that function and moves
// the obligation to its callers. Walltime also owns //tspuvet:impure
// validation (attachment, reason) for the whole suite.
var Walltime = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock time (time.Now, time.Since, time.Sleep, timers), " +
		"directly and transitively through calls; " +
		"simulation code must use the virtual clock (sim.Sim)",
	Run: runWalltime,
}

// walltimeFuncs are the package-time functions that observe or depend on the
// wall clock. Pure constructors and conversions (time.Duration, time.Unix,
// time.Date, ParseDuration) are deterministic and stay legal.
var walltimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func runWalltime(pass *analysis.Pass) (any, error) {
	direct := map[*ast.FuncDecl]string{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn := pass.PkgNameOf(id)
				if pn == nil || pn.Imported().Path() != "time" {
					return true
				}
				if walltimeFuncs[sel.Sel.Name] {
					pass.ReportRangef(sel, "time.%s is wall-clock time; use the virtual clock (sim.Sim) so runs stay deterministic", sel.Sel.Name)
					if isFunc {
						if _, seeded := direct[fd]; !seeded {
							direct[fd] = "time." + sel.Sel.Name
						}
					}
				}
				return true
			})
		}
	}
	pr := &purityRun{
		pass: pass,
		what: "wall-clock time",
		advice: "take the clock from the virtual sim.Sim instead, or mark the calling " +
			"function //tspuvet:impure <reason> if it is orchestration code",
		stampAsserts: true,
	}
	pr.run(direct)
	return nil, nil
}
