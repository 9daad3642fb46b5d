package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tspusim/internal/lint/analysis"
)

// Maporder flags map iteration whose body feeds order-sensitive output. Go
// randomizes map iteration order per run, so a `for k := range m` that
// appends to a slice, builds a string, or fills a report table renders
// differently on every execution — exactly the nondeterminism the
// reproduction's byte-identical-output contract forbids.
//
// Two shapes stay legal without a directive because they are provably
// order-insensitive:
//
//   - the canonical sort pattern: appending the keys (or rows) to a slice
//     that is later passed to sort.* / slices.* in the same function;
//   - pure reductions: sums, counters, min/max, and writes into other maps,
//     which commute and therefore produce no sink at all.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag `for k := range m` over maps whose body feeds ordered output " +
		"(append, string building, fmt writes, report tables) without sorting",
	Run: runMaporder,
}

// sink is one order-sensitive operation found inside a map-range body.
type sink struct {
	pos  token.Pos
	kind string // human label for the diagnostic
	// target is the object an append accumulates into, when provable; a
	// later sort.*/slices.* call on it launders the iteration order.
	target types.Object
}

func runMaporder(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, scope := range funcScopes(f) {
			checkScope(pass, scope)
		}
	}
	return nil, nil
}

// funcScopes returns every function body in f. Each body is analyzed as its
// own scope: a sort call in an unrelated closure must not excuse a loop.
func funcScopes(f *ast.File) []*ast.BlockStmt {
	var scopes []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				scopes = append(scopes, n.Body)
			}
		case *ast.FuncLit:
			scopes = append(scopes, n.Body)
		}
		return true
	})
	return scopes
}

// checkScope flags map ranges directly inside scope (nested function
// literals are separate scopes and skipped here).
func checkScope(pass *analysis.Pass, scope *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, s := range findSinks(pass, rs.Body) {
			if s.target != nil && sortedAfter(pass, scope, rs, s.target) {
				continue
			}
			pass.Report(analysis.Diagnostic{
				Pos: rs.Pos(),
				End: rs.X.End(),
				Message: fmt.Sprintf("map iteration order is random but the loop body %s; "+
					"sort the keys first or justify with //tspuvet:allow maporder: <reason>", s.kind),
			})
			break // one diagnostic per loop is enough
		}
		return true
	}
	ast.Inspect(scope, walk)
}

// findSinks scans a map-range body for order-sensitive operations. Function
// literals inside the body are included: a closure defined and invoked per
// iteration inherits the iteration order.
func findSinks(pass *analysis.Pass, body *ast.BlockStmt) []sink {
	var sinks []sink
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// s += expr on strings is ordered concatenation; numeric += is a
			// commutative reduction and stays legal.
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypesInfo.TypeOf(n.Lhs[0])) {
				sinks = append(sinks, sink{pos: n.Pos(), kind: "concatenates onto a string"})
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) {
					continue
				}
				s := sink{pos: call.Pos(), kind: "appends to a slice"}
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						s.target = pass.TypesInfo.ObjectOf(id)
					}
				}
				sinks = append(sinks, s)
			}
		case *ast.CallExpr:
			if k, ok := callSinkKind(pass, n); ok {
				sinks = append(sinks, sink{pos: n.Pos(), kind: k})
			}
		}
		return true
	})
	return sinks
}

// callSinkKind classifies a call as an ordered sink: writes into a
// strings.Builder or bytes.Buffer, fmt printing to a shared writer, or the
// order-sensitive entry points of the report/fleet aggregation layers
// (Table.AddRow and the Doc appenders keep order; Hist.Add and
// Contingency.Add are counters and commute).
func callSinkKind(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn := pass.PkgNameOf(id); pn != nil && pn.Imported().Path() == "fmt" {
			if strings.HasPrefix(sel.Sel.Name, "Fprint") || strings.HasPrefix(sel.Sel.Name, "Print") {
				return "writes via fmt." + sel.Sel.Name, true
			}
			return "", false
		}
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if recv := receiverNamed(fn); recv != "" {
		if (recv == "strings.Builder" || recv == "bytes.Buffer") && strings.HasPrefix(fn.Name(), "Write") {
			return "writes into a " + recv, true
		}
		if strings.HasSuffix(fn.Pkg().Path(), "internal/report") {
			if fn.Name() == "AddRow" {
				return "adds ordered rows to a report table", true
			}
			if recv == "report.Doc" && fn.Name() != "String" && fn.Name() != "Stats" {
				return "adds ordered parts to a report Doc", true
			}
		}
	}
	if strings.HasSuffix(fn.Pkg().Path(), "internal/fleet") && strings.Contains(fn.Name(), "Aggregate") {
		return "feeds fleet aggregation", true
	}
	return "", false
}

// receiverNamed returns "pkg.Type" for a method's receiver, or "".
func receiverNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// sortedAfter reports whether target is passed to a sort.* or slices.* call
// after the range loop in the same function — the canonical
// collect-then-sort pattern that makes the iteration order immaterial.
func sortedAfter(pass *analysis.Pass, scope *ast.BlockStmt, rs *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
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
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if aid, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(aid) == target {
				found = true
			}
		}
		return true
	})
	return found
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
