package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tspusim/internal/lint/analysis"
)

// Hotpath makes the zero-allocation contract of the per-packet path a
// compile-time property. PR 4 flattened the fast paths and pinned them with
// testing.AllocsPerRun budgets, but a runtime spot check only fires for the
// inputs the test happens to drive; a fmt.Sprintf or an interface boxing
// introduced in a helper three calls deep slips through until a benchmark
// regresses. This analyzer closes that gap statically:
//
//   - A function annotated //tspuvet:hotpath is a hot-path root (the PR-4
//     fast paths: Device.Handle, the sim scheduler, MarshalAppend/ParseInto,
//     ExtractSNI, DomainSet.Match, Policy.ClassifyBytes).
//   - The analyzer builds the package's call graph and walks every function
//     reachable from a root, reporting allocating or timing-perturbing
//     constructs: fmt calls, string concatenation and string<->[]byte
//     conversions, append onto fresh unsized slices, make, new/&T{} that
//     escape the frame, interface boxing, escaping closures and method
//     values, go statements, defer inside loops, map iteration, and
//     allocating stdlib helpers (strings.ToLower, sort.Slice, errors.New,
//     strconv formatting).
//   - //tspuvet:coldpath <reason> on a function cuts traversal there: the
//     fragment engine buffers by design, the conntrack sweeper is amortized
//     housekeeping, and the retained slow-path reference oracles are not on
//     the contract. The reason is mandatory.
//   - Individual lines are excused with //tspuvet:allow hotpath: <reason>
//     (pool-miss refills, cold error paths).
//
// Each diagnostic names the call chain from the root ("reached via
// Device.Handle → conntrack.observe") so a violation deep in a helper is
// attributable without re-deriving the graph by hand.
//
// With facts enabled the analysis is whole-program: every package-level
// function (hot or not) is probed for its first allocating construct, lines
// excused by //tspuvet:allow hotpath excluded, and functions that allocate —
// directly or through calls — export an AllocFact. A hot-reachable function
// calling an imported module function that carries an AllocFact is a
// diagnostic carrying both chains: where the allocation lives in the callee
// and how the hot path reached the call. Cold (//tspuvet:coldpath) functions
// export no fact: declaring a function off-contract cuts the taint exactly
// like it cuts same-package traversal. Without facts (a bare per-package
// run) the analyzer behaves as before, and the escapegate — compiler escape
// analysis over all annotated packages together — still checks the
// composition end to end.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "forbid allocating constructs in functions reachable from a " +
		"//tspuvet:hotpath root (fmt, string concat, boxing, escaping " +
		"closures, defer in loops, map iteration, ...), following calls " +
		"across packages via AllocFacts",
	Run:       runHotpath,
	FactTypes: []analysis.Fact{(*AllocFact)(nil)},
}

// AllocFact marks a package-level function that allocates on some path —
// directly (What is the construct, Chain is just the function) or through
// calls (Chain walks down to the allocating construct, one qualified
// function per hop). Hot-reachable code in importing packages treats a call
// to a fact-bearing function exactly like a local allocating construct.
type AllocFact struct {
	What  string   `json:"what"`
	Chain []string `json:"chain"`
}

// AFact marks AllocFact as a serializable analysis fact.
func (*AllocFact) AFact() {}

func runHotpath(pass *analysis.Pass) (any, error) {
	marks := bindMarkers(pass)
	g := newCallGraph(pass)
	roots, cold := map[*funcNode]bool{}, map[*funcNode]bool{}
	for _, n := range g.order {
		_, hot := marks.funcMarker(n.fn, hotpathVerb)
		_, cut := marks.funcMarker(n.fn, coldpathVerb)
		if hot && cut {
			pass.Reportf(n.decl.Pos(), "%s is marked both //tspuvet:hotpath and //tspuvet:coldpath; pick one", n.name)
		}
		if hot {
			roots[n] = true
		} else if cut {
			cold[n] = true
		}
	}
	if len(roots) == 0 && !pass.FactsEnabled() {
		// Without facts there is nothing to compute for a package with no
		// hot roots. With facts, every function still feeds AllocFact
		// probing so allocation taint crosses this package.
		return nil, nil
	}

	// Cold functions terminate traversal: they are declared off-contract,
	// with a reason, at their declaration.
	g.reach(func(n *funcNode) bool { return roots[n] }, func(n *funcNode) bool { return cold[n] })

	if pass.FactsEnabled() {
		hotpathFacts(pass, g, cold)
	}

	for _, n := range g.order {
		if n.reached {
			checkHotFunc(pass, n)
		}
	}
	return nil, nil
}

// hotpathFacts probes every non-cold function for allocation taint and
// exports the AllocFacts importing packages will consume. Probing runs the
// same hotChecker walk as the diagnostics pass, but collecting instead of
// reporting, and honoring //tspuvet:allow hotpath lines — an excused
// pool-refill must not taint its callers.
func hotpathFacts(pass *analysis.Pass, g *callGraph, cold map[*funcNode]bool) {
	allowed := map[string]map[int]bool{}
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		for _, d := range ParseDirectives(pass.Fset, f, func(analysis.Diagnostic) {}) {
			if d.Analyzer == hotpathVerb {
				if allowed[fname] == nil {
					allowed[fname] = map[int]bool{}
				}
				allowed[fname][d.Line] = true
			}
		}
	}
	excused := func(pos token.Pos) bool {
		p := pass.Fset.Position(pos)
		return allowed[p.Filename][p.Line] || allowed[p.Filename][p.Line-1]
	}

	// alloc is each function's allocation taint: its first unexcused
	// allocating construct, local or reached through calls.
	alloc := map[*funcNode]*AllocFact{}
	qual := func(n *funcNode) string { return pass.Pkg.Name() + "." + n.name }
	for _, n := range g.order {
		if cold[n] {
			continue
		}
		c := &hotChecker{
			pass:        pass,
			freshSlices: map[types.Object]bool{},
			mapKeyConvs: map[*ast.CallExpr]bool{},
		}
		var best token.Pos
		c.emit = func(pos token.Pos, msg string) {
			if excused(pos) {
				return
			}
			if alloc[n] == nil || pos < best {
				best = pos
				alloc[n] = &AllocFact{What: msg, Chain: []string{qual(n)}}
			}
		}
		c.onFactCall = func(pos token.Pos, af *AllocFact) {
			if excused(pos) {
				return
			}
			if alloc[n] == nil || pos < best {
				best = pos
				alloc[n] = &AllocFact{What: af.What, Chain: append([]string{qual(n)}, af.Chain...)}
			}
		}
		c.prepass(n.decl.Body)
		c.walk(n.decl.Body, 0)
	}

	// Same-package taint: a clean function calling an allocating one
	// allocates too. First-hit in source order keeps chains deterministic;
	// never replacing an assigned fact terminates cycles.
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			if cold[n] || alloc[n] != nil {
				continue
			}
			for _, callee := range n.edges {
				if cold[callee] || alloc[callee] == nil {
					continue
				}
				alloc[n] = &AllocFact{What: alloc[callee].What, Chain: append([]string{qual(n)}, alloc[callee].Chain...)}
				changed = true
				break
			}
		}
	}

	for _, n := range g.order {
		if alloc[n] != nil {
			pass.ExportObjectFact(n.fn, alloc[n])
		}
	}
}

// allocatingStdlib maps package path → function names whose every call
// allocates (or, for sort, boxes and closes over its arguments). Formatting
// and case-folding helpers dominate real regressions; the list is small on
// purpose — the escapegate catches what a static list cannot.
var allocatingStdlib = map[string]map[string]bool{
	"fmt": nil, // nil means every function in the package
	"errors": {
		"New": true, "Join": true,
	},
	"strings": {
		"ToLower": true, "ToUpper": true, "ToTitle": true, "Title": true,
		"Replace": true, "ReplaceAll": true, "Split": true, "SplitN": true,
		"SplitAfter": true, "SplitAfterN": true, "Join": true, "Repeat": true,
		"Fields": true, "FieldsFunc": true, "Map": true, "Clone": true,
		"NewReader": true, "NewReplacer": true,
	},
	"bytes": {
		"ToLower": true, "ToUpper": true, "ToTitle": true, "Title": true,
		"Replace": true, "ReplaceAll": true, "Split": true, "SplitN": true,
		"SplitAfter": true, "SplitAfterN": true, "Join": true, "Repeat": true,
		"Fields": true, "FieldsFunc": true, "Map": true, "Clone": true,
		"NewReader": true, "NewBuffer": true, "NewBufferString": true,
	},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "FormatBool": false, "Quote": true,
		"QuoteToASCII": true, "Unquote": true,
	},
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
}

// hotChecker walks one function's body. The diagnostics pass (checkHotFunc)
// and the AllocFact probe share it through the emit hooks.
type hotChecker struct {
	pass  *analysis.Pass
	chain string
	// emit receives each finding's position and chain-free message; the
	// diagnostics pass appends the chain and advice and reports, the fact
	// probe records the first unexcused finding.
	emit func(pos token.Pos, msg string)
	// onFactCall, when set (fact probe), receives calls to imported functions
	// carrying an AllocFact instead of emit, so the probe can splice the
	// callee's chain instead of nesting messages.
	onFactCall func(pos token.Pos, af *AllocFact)
	// freshSlices are local slice vars declared empty (var s []T,
	// s := []T{}, s := make([]T, 0)); appending to them grows from zero.
	freshSlices map[types.Object]bool
	// mapKeyConvs are string(b) conversions used directly as a map index:
	// the compiler elides that allocation, so the analyzer must too.
	mapKeyConvs map[*ast.CallExpr]bool
}

func checkHotFunc(pass *analysis.Pass, n *funcNode) {
	c := &hotChecker{
		pass:        pass,
		chain:       chainLabel(n, "hot path root"),
		freshSlices: map[types.Object]bool{},
		mapKeyConvs: map[*ast.CallExpr]bool{},
	}
	c.emit = func(pos token.Pos, msg string) {
		c.pass.Report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(
			"%s (%s); fix it, mark the function //tspuvet:coldpath <reason>, or justify with //tspuvet:allow hotpath: <reason>",
			msg, c.chain)})
	}
	c.prepass(n.decl.Body)
	c.walk(n.decl.Body, 0)
}

func (c *hotChecker) reportf(pos token.Pos, format string, args ...any) {
	c.emit(pos, fmt.Sprintf(format, args...))
}

// prepass records fresh-slice declarations and map-key conversions before
// the main walk needs them.
func (c *hotChecker) prepass(body *ast.BlockStmt) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.IndexExpr:
			if t := c.pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					if call, ok := ast.Unparen(x.Index).(*ast.CallExpr); ok && c.isConversion(call) {
						c.mapKeyConvs[call] = true
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(x.Rhs) {
					continue
				}
				if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil && c.isFreshSliceExpr(x.Rhs[i]) {
					c.freshSlices[obj] = true
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) != 0 {
				return true
			}
			for _, id := range x.Names {
				obj := c.pass.TypesInfo.ObjectOf(id)
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					c.freshSlices[obj] = true
				}
			}
		}
		return true
	})
}

// isFreshSliceExpr reports whether e is a slice born empty with no capacity:
// []T{}, []T(nil), or make([]T, 0) without a capacity argument.
func (c *hotChecker) isFreshSliceExpr(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := c.pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
				if len(e.Args) == 2 {
					tv := c.pass.TypesInfo.Types[e.Args[1]]
					return tv.Value != nil && tv.Value.String() == "0"
				}
				return len(e.Args) < 3
			}
		}
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}

// isConversion reports whether call is a type conversion (Fun is a type).
func (c *hotChecker) isConversion(call *ast.CallExpr) bool {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

// walk is the main recursive pass; loops tracks enclosing for/range depth.
func (c *hotChecker) walk(n ast.Node, loops int) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.ForStmt:
		c.walk(n.Init, loops)
		c.walkExpr(n.Cond)
		c.walk(n.Post, loops)
		c.walkBlock(n.Body, loops+1)
		return
	case *ast.RangeStmt:
		if t := c.pass.TypesInfo.TypeOf(n.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				c.reportf(n.Pos(), "map iteration on the hot path: order is randomized and every bucket is touched")
			}
		}
		c.walkExpr(n.X)
		c.walkBlock(n.Body, loops+1)
		return
	case *ast.DeferStmt:
		if loops > 0 {
			c.reportf(n.Pos(), "defer inside a loop allocates a deferred frame per iteration")
		}
		c.walkExpr(n.Call)
		return
	case *ast.GoStmt:
		c.reportf(n.Pos(), "go statement on the hot path spawns a goroutine: it allocates and yields to the scheduler")
		c.walkExpr(n.Call)
		return
	case *ast.AssignStmt:
		c.checkAssign(n)
		for _, e := range n.Lhs {
			c.walkExpr(e)
		}
		for _, e := range n.Rhs {
			c.walkExpr(e)
		}
		return
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			c.checkValue(e, nil, "returned")
			c.walkExpr(e)
		}
		return
	case *ast.SendStmt:
		c.reportf(n.Pos(), "channel send on the hot path synchronizes with the scheduler")
		c.walkExpr(n.Chan)
		c.walkExpr(n.Value)
		return
	case *ast.DeclStmt:
		// Locals initialized in a var declaration behave like := stores: only
		// boxing into an interface-typed variable is flagged here.
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						var target types.Type
						if len(vs.Names) == 1 {
							if obj := c.pass.TypesInfo.ObjectOf(vs.Names[0]); obj != nil {
								target = obj.Type()
							}
						}
						c.checkBoxing(v, target, "stored")
						c.walkExpr(v)
					}
				}
			}
		}
		return
	case *ast.BlockStmt:
		c.walkBlock(n, loops)
		return
	}

	// Generic traversal for everything else, keeping loop depth. Expressions
	// are handled by walkExpr so statements nested in them (closures) still
	// get visited.
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.BlockStmt:
			c.walkBlock(x, loops)
			return false
		case *ast.ForStmt, *ast.RangeStmt, *ast.DeferStmt, *ast.GoStmt,
			*ast.AssignStmt, *ast.ReturnStmt, *ast.SendStmt, *ast.DeclStmt:
			c.walk(x, loops)
			return false
		case ast.Expr:
			c.walkExpr(x)
			return false
		}
		return true
	})
}

func (c *hotChecker) walkBlock(b *ast.BlockStmt, loops int) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		c.walk(s, loops)
	}
}

// walkExpr checks one expression subtree (concatenation, conversions,
// calls), recursing into closure bodies with loop depth reset.
func (c *hotChecker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			c.walkBlock(x.Body, 0)
			return false
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(c.pass.TypesInfo.TypeOf(x)) {
				if tv := c.pass.TypesInfo.Types[x]; tv.Value == nil { // constant folding is free
					c.reportf(x.OpPos, "string concatenation allocates")
				}
			}
		case *ast.CallExpr:
			c.checkCall(x)
		}
		return true
	})
}

// checkCall handles conversions, builtins, and function calls.
func (c *hotChecker) checkCall(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	if c.isConversion(call) {
		c.checkConversion(call)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				c.checkAppend(call)
			case "make":
				c.reportf(call.Pos(), "make on the hot path allocates")
			case "new":
				c.reportf(call.Pos(), "new(T) on the hot path allocates")
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
		path := fn.Pkg().Path()
		if names, known := allocatingStdlib[path]; known {
			if names == nil || names[fn.Name()] {
				c.reportf(call.Pos(), "%s.%s allocates on the hot path", fn.Pkg().Name(), fn.Name())
				// The call is already condemned; per-argument boxing/closure
				// reports on the same line would only be noise.
				return
			}
		}
		var af AllocFact
		if c.pass.ImportObjectFact(fn, &af) {
			if c.onFactCall != nil {
				c.onFactCall(call.Pos(), &af)
			} else {
				c.reportf(call.Pos(), "call to %s allocates: %s (in the callee via %s)",
					af.Chain[0], af.What, strings.Join(af.Chain, " → "))
			}
			return
		}
	}
	// Arguments: closures, method values, escaping composites, boxing.
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	for i, arg := range call.Args {
		var param types.Type
		if sig != nil {
			if i < sig.Params().Len() {
				param = sig.Params().At(i).Type()
			} else if sig.Variadic() && sig.Params().Len() > 0 {
				if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
					param = s.Elem()
				}
			}
		}
		c.checkValue(arg, param, "passed")
	}
}

// checkConversion flags string <-> []byte/[]rune conversions, which copy.
func (c *hotChecker) checkConversion(call *ast.CallExpr) {
	if len(call.Args) != 1 || c.mapKeyConvs[call] {
		return
	}
	dst := c.pass.TypesInfo.TypeOf(call)
	src := c.pass.TypesInfo.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	// A constant operand converts at compile time.
	if tv := c.pass.TypesInfo.Types[call.Args[0]]; tv.Value != nil {
		return
	}
	if isString(dst) && isByteOrRuneSlice(src) {
		c.reportf(call.Pos(), "string(bytes) conversion copies; keep the []byte form (map lookups m[string(b)] are exempt)")
	} else if isByteOrRuneSlice(dst) && isString(src) {
		c.reportf(call.Pos(), "[]byte(string) conversion copies; use a reused scratch buffer")
	}
}

func (c *hotChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	base := ast.Unparen(call.Args[0])
	id, ok := base.(*ast.Ident)
	if !ok {
		return
	}
	if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil && c.freshSlices[obj] {
		c.reportf(call.Pos(), "append grows %s from zero capacity, reallocating as it goes; "+
			"make it with capacity or reuse a scratch buffer", id.Name)
	}
}

// checkAssign flags escaping RHS values and interface boxing on stores.
func (c *hotChecker) checkAssign(n *ast.AssignStmt) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(c.pass.TypesInfo.TypeOf(n.Lhs[0])) {
		c.reportf(n.TokPos, "string concatenation allocates")
		return
	}
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		lhs := n.Lhs[i]
		var target types.Type
		if t := c.pass.TypesInfo.TypeOf(lhs); t != nil {
			target = t
		}
		if c.assignEscapes(lhs) {
			c.checkValue(rhs, target, "stored")
		} else {
			// A plain local store cannot force a heap escape by itself, but
			// storing a concrete value into an interface-typed local boxes.
			c.checkBoxing(rhs, target, "stored")
		}
	}
}

// assignEscapes reports whether the assignment target can carry its value
// beyond the current frame: fields, indexed elements, dereferences, and
// package-level variables do; plain local identifiers do not.
func (c *hotChecker) assignEscapes(lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return false
		}
		obj := c.pass.TypesInfo.ObjectOf(lhs)
		return obj != nil && obj.Parent() == c.pass.Pkg.Scope()
	default:
		return true
	}
}

// checkValue flags allocation-forcing value forms in an escaping position
// (call argument, return, store through memory): closures, method values,
// &T{} and new(T), plus interface boxing against target.
func (c *hotChecker) checkValue(e ast.Expr, target types.Type, how string) {
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		c.reportf(v.Pos(), "closure %s on the hot path allocates its captures", how)
		return
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
				c.reportf(v.Pos(), "&composite literal %s on the hot path escapes to the heap", how)
				return
			}
		}
	case *ast.CompositeLit:
		// By-value composites are fine unless boxed below; new(T) is flagged
		// unconditionally by checkCall.
	case *ast.SelectorExpr:
		if fn, ok := c.pass.TypesInfo.Uses[v.Sel].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				c.reportf(v.Pos(), "method value %s.%s %s on the hot path allocates its receiver binding",
					exprString(v.X), v.Sel.Name, how)
				return
			}
		}
	}
	c.checkBoxing(e, target, how)
}

// checkBoxing flags storing a concrete value into an interface.
func (c *hotChecker) checkBoxing(e ast.Expr, target types.Type, how string) {
	if target == nil {
		return
	}
	iface, ok := target.Underlying().(*types.Interface)
	if !ok {
		return
	}
	src := c.pass.TypesInfo.TypeOf(e)
	if src == nil {
		return
	}
	if _, isIface := src.Underlying().(*types.Interface); isIface {
		return // interface-to-interface carries the existing box
	}
	tv := c.pass.TypesInfo.Types[e]
	if tv.IsNil() || tv.Value != nil {
		return // nil and constants do not box at runtime (constants intern)
	}
	if basic, ok := src.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return
	}
	what := "interface"
	if !iface.Empty() {
		what = target.String()
	}
	c.reportf(e.Pos(), "%s value %s as %s boxes on the hot path", src.String(), how, what)
}

// isByteOrRuneSlice reports whether t is []byte or []rune, the two slice
// shapes whose string conversions copy.
func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.BasicLit:
		return e.Value
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return "&" + exprString(e.X)
		}
	}
	return "expr"
}
