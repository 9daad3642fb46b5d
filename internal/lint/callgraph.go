package lint

import (
	"go/ast"
	"go/types"

	"tspusim/internal/lint/analysis"
)

// funcNode is one declared function in a package's static call graph.
type funcNode struct {
	fn    *types.Func
	decl  *ast.FuncDecl
	name  string      // display name: "Device.Handle" or "checksum"
	edges []*funcNode // same-package callees, in source order, deduplicated
}

// callGraph is a package's functions with bodies, in source order, joined
// by their static same-package calls, over which the purity pass propagates
// taint. Dynamic calls (interface methods, func values) are boundaries, as
// everywhere in tspu-vet.
type callGraph struct {
	nodes map[*types.Func]*funcNode
	order []*funcNode
}

func newCallGraph(pass *analysis.Pass) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*funcNode{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &funcNode{fn: fn, decl: fd, name: funcDisplayName(fd)}
			g.nodes[fn] = n
			g.order = append(g.order, n)
		}
	}
	// Edges in source order, so BFS parent chains are stable.
	for _, n := range g.order {
		seen := map[*funcNode]bool{}
		staticCalls(pass.TypesInfo, n.decl.Body, func(_ *ast.CallExpr, callee *types.Func) {
			if target := g.nodes[callee]; target != nil && !seen[target] {
				seen[target] = true
				n.edges = append(n.edges, target)
			}
		})
	}
	return g
}

// staticCalls visits every call under body whose static callee resolves,
// in source order.
func staticCalls(info *types.Info, body ast.Node, visit func(*ast.CallExpr, *types.Func)) {
	ast.Inspect(body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if callee := calleeFunc(info, call); callee != nil {
				visit(call, callee)
			}
		}
		return true
	})
}

// funcDisplayName renders "Recv.Name" for methods, "Name" for functions.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// calleeFunc resolves a call's static callee, or nil for dynamic calls
// (function values, interface methods) and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
