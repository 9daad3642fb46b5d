package lint

import (
	"go/ast"
	"go/types"

	"tspusim/internal/lint/analysis"
)

// Synccheck guards the fleet orchestrator's worker pool — the module's only
// concurrent code path — against the two synchronization mistakes that a
// deterministic-by-construction test suite is least likely to surface:
//
//   - calling WaitGroup.Add inside the goroutine it accounts for, which
//     races the matching Wait: the counter can hit zero before the spawned
//     goroutine ever ran;
//   - a channel send inside a select with no default, which parks a pooled
//     worker indefinitely if every receiver is gone — in a worker pool the
//     droppable-send-or-buffered-channel shape is the one that cannot
//     deadlock (fleet's attempt goroutines send on a buffered channel for
//     exactly this reason).
//
// Copying a sync primitive by value is go vet's copylocks check, which
// `make vet` runs; synccheck does not repeat it. The race detector
// cross-checks these findings dynamically in CI; the analyzer makes them
// build failures before a scheduler ever gets the chance to interleave them
// badly.
var Synccheck = &analysis.Analyzer{
	Name: "synccheck",
	Doc: "flag WaitGroup.Add inside the spawned goroutine and channel sends " +
		"in select without default",
	Run: runSynccheck,
}

func runSynccheck(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoAdd(pass, n)
			case *ast.SelectStmt:
				checkSelectSend(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkGoAdd flags wg.Add calls lexically inside the spawned goroutine.
func checkGoAdd(pass *analysis.Pass, n *ast.GoStmt) {
	lit, ok := n.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if inner, ok := x.(*ast.FuncLit); ok && inner != lit {
			return false // a nested goroutine is its own problem
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		if recv := receiverNamed(fn); recv == "sync.WaitGroup" {
			pass.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races Wait: "+
				"the counter can reach zero before this goroutine is scheduled; Add before the go statement")
		}
		return true
	})
}

// checkSelectSend flags selects that can park on a send with no escape
// hatch.
func checkSelectSend(pass *analysis.Pass, n *ast.SelectStmt) {
	var sends []*ast.SendStmt
	hasDefault := false
	for _, clause := range n.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		if send, ok := cc.Comm.(*ast.SendStmt); ok {
			sends = append(sends, send)
		}
	}
	if hasDefault {
		return
	}
	for _, send := range sends {
		pass.Reportf(send.Pos(), "channel send in select without default can block a pooled worker forever; "+
			"add a default case or send on a buffered channel outside select")
	}
}
