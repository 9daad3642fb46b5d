package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tspusim/internal/lint/analysis"
)

// ImpureFact marks a package-level function that transitively reaches wall
// clock or ambient randomness — the two ways experiment output stops being a
// pure function of the lab seed. The walltime and globalrand analyzers each
// export their own ImpureFact stream (the fact store namespaces by analyzer),
// so "reaches time.Now" and "reaches math/rand" taint independently.
//
// Chain records how: the function's own qualified name first, then one callee
// per hop, ending at the banned operation (or at a //tspuvet:impure stamp,
// whose declared reason becomes Reason). Dependent packages extend the chain
// by prepending themselves, so a diagnostic three package seams away still
// names the original time.Now.
type ImpureFact struct {
	Reason string   `json:"reason"`
	Chain  []string `json:"chain"`
}

// AFact marks ImpureFact as a serializable analysis fact.
func (*ImpureFact) AFact() {}

// importedImpureCall is one call site whose static callee lives in another
// package and carries an ImpureFact there.
type importedImpureCall struct {
	node *funcNode
	pos  token.Pos
	fact *ImpureFact
}

// purityRun is the transitive half shared by walltime and globalrand: given
// each analyzer's own direct sites, it reads //tspuvet:impure stamps from the
// marker table, walks the package call graph, imports dependency facts,
// propagates the taint, and reports cross-package calls into tainted code.
type purityRun struct {
	pass *analysis.Pass
	// what names the taint in diagnostics ("wall-clock time").
	what string
	// advice closes the diagnostic with the analyzer's fix.
	advice string
	// stampAsserts: for walltime the stamp is an assertion — a stamped
	// function is impure even before the analyzer can see why, which is what
	// lets cmd-layer mains terminate every chain. globalrand only lets the
	// stamp silence diagnostics.
	stampAsserts bool
}

// run executes the transitive analysis. direct maps function declarations
// with a direct banned operation in their body to that operation's label
// ("time.Now"); the caller has already reported those sites positionally.
func (pr *purityRun) run(direct map[*ast.FuncDecl]string) {
	pass := pr.pass
	marks := bindMarkers(pass)
	g := newCallGraph(pass)
	qual := func(n *funcNode) string { return pass.Pkg.Name() + "." + n.name }

	// A //tspuvet:impure stamp with its reason marks a function impure by
	// declaration.
	facts := map[*funcNode]*ImpureFact{}
	stamped := map[*funcNode]bool{}
	for _, n := range g.order {
		if m, ok := marks.funcMarker(n.fn, impureVerb); ok && m.reason != "" {
			stamped[n] = true
			if pr.stampAsserts {
				facts[n] = &ImpureFact{Reason: m.reason, Chain: []string{qual(n)}}
			}
		}
	}

	// Seed direct sites. A stamp's declared reason wins over the raw site
	// label — the human explanation is the better chain terminus.
	for fd, site := range direct {
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		n := g.nodes[fn]
		if n == nil || facts[n] != nil {
			continue
		}
		facts[n] = &ImpureFact{Reason: site, Chain: []string{qual(n), site}}
	}

	if !pass.FactsEnabled() {
		// Per-package mode: direct sites were already reported; there is no
		// store to propagate through.
		return
	}

	// Cross-package fact imports, in source order.
	var imported []importedImpureCall
	for _, n := range g.order {
		staticCalls(pass.TypesInfo, n.decl.Body, func(call *ast.CallExpr, callee *types.Func) {
			if callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
				return
			}
			var fact ImpureFact
			if pass.ImportObjectFact(callee, &fact) {
				imported = append(imported, importedImpureCall{node: n, pos: call.Pos(), fact: &fact})
				if facts[n] == nil {
					facts[n] = &ImpureFact{Reason: fact.Reason, Chain: append([]string{qual(n)}, fact.Chain...)}
				}
			}
		})
	}

	// Propagate within the package to a fixed point. Iterating in source
	// order and never replacing an assigned fact keeps chains deterministic
	// and terminates on call cycles.
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			if facts[n] != nil {
				continue
			}
			for _, callee := range n.edges {
				if f := facts[callee]; f != nil {
					facts[n] = &ImpureFact{Reason: f.Reason, Chain: append([]string{qual(n)}, f.Chain...)}
					changed = true
					break
				}
			}
		}
	}

	// A cross-package call into tainted code is the diagnostic; same-package
	// propagation stays silent because the direct site already reported
	// locally. Stamped functions have declared themselves impure — their
	// callers inherit the fact and the conversation moves one frame up.
	for _, ic := range imported {
		if stamped[ic.node] {
			continue
		}
		pass.Reportf(ic.pos, "call to %s reaches %s (reached via %s); %s",
			ic.fact.Chain[0], pr.what, strings.Join(ic.fact.Chain, " → "), pr.advice)
	}

	for _, n := range g.order {
		if facts[n] != nil {
			pass.ExportObjectFact(n.fn, facts[n])
		}
	}
}
