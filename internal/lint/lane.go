package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"tspusim/internal/lint/analysis"
)

// Lanecheck turns "lanes are disjoint by construction" from a doc comment in
// internal/engine into a checked property. The engine fans worker goroutines
// out over conntrack lanes; correctness rests on every lane touching only its
// own shard of conntrack/fragment/wheel state. The claim is declared with two
// markers and verified over the lane-reachable call graph:
//
//   - //tspuvet:lane on a function declares a lane entry point (Engine.runLane,
//     Device.HandleSharded). It must have an integer lane parameter (named
//     lane, l, laneID, shard, or shardID).
//   - //tspuvet:laneowned on a type declaration declares per-lane state
//     (laneState, devLane, ctShard, flowEntry, ...): a value of this type is
//     owned by exactly one lane, so writes through it are safe.
//
// In every function reachable from a lane root through same-package calls:
//
//   - Indexing a shared container whose elements are lane-owned
//     (e.lane[...], d.ct.shards[...]) must use the lane parameter (or an
//     alias/conversion of it, or a lane/shard field of lane-owned state).
//     Any other index — a sibling shard, a literal, a loop variable — is a
//     cross-lane access, read or write.
//   - Writes rooted at shared state (pointers to non-lane-owned named
//     structs, package variables, caller-visible slices) are diagnostics;
//     sync/atomic calls are naturally exempt because they are calls, not
//     assignments. *packet.Packet writes are exempt: the packet itself is
//     owned by whoever holds it (retaincheck governs that contract).
//   - Drawing from a shared *sim.Rand is a diagnostic: the entropy stream's
//     order would depend on lane interleaving.
//
// Packages with no markers are untouched. Dynamic calls (interface methods,
// func values) are boundaries, as everywhere in tspu-vet. Call results are
// treated as lane-local (the producer owns what it returns).
//
// Across packages the markers travel as facts: LaneOwnedFact on every marked
// type, so lane code in one package recognizes shard state declared in
// another, and LaneEntryFact on every lane root, so lane-reachable code that
// statically calls an imported entry point must hand it this lane's own index
// — anything else is a cross-lane handoff.
var Lanecheck = &analysis.Analyzer{
	Name: "lanecheck",
	Doc: "code reachable from a //tspuvet:lane entry point may touch " +
		"//tspuvet:laneowned sharded state only through the lane's own shard, " +
		"indexed by the lane parameter; writes to shared structs and shared " +
		"RNG draws are diagnostics; markers cross package seams as facts",
	Run:       runLanecheck,
	FactTypes: []analysis.Fact{(*LaneOwnedFact)(nil), (*LaneEntryFact)(nil)},
}

// LaneOwnedFact marks a type declared //tspuvet:laneowned: a value of it is
// owned by exactly one lane, so importing packages' lane code treats it as
// shard state rather than shared memory.
type LaneOwnedFact struct{}

// AFact marks LaneOwnedFact as a serializable analysis fact.
func (*LaneOwnedFact) AFact() {}

// LaneEntryFact marks a //tspuvet:lane entry point. LaneParam is the
// flattened index of its integer lane parameter, or -1 when the lane
// identity is a lane-owned receiver instead.
type LaneEntryFact struct {
	LaneParam int `json:"laneParam"`
}

// AFact marks LaneEntryFact as a serializable analysis fact.
func (*LaneEntryFact) AFact() {}

// laneParamNames are accepted names for the lane-index parameter.
var laneParamNames = map[string]bool{
	"lane": true, "l": true, "laneID": true, "shard": true, "shardID": true,
}

func runLanecheck(pass *analysis.Pass) (any, error) {
	c := &laneChecker{pass: pass, owned: map[*types.TypeName]bool{}}
	marks := bindMarkers(pass)
	for _, tn := range marks.types[laneownedVerb] {
		c.owned[tn] = true
	}
	g := newCallGraph(pass)
	roots := map[*funcNode]bool{}
	for _, n := range g.order {
		m, ok := marks.funcMarker(n.fn, laneVerb)
		if !ok {
			continue
		}
		roots[n] = true
		// The lane identity is either an integer lane parameter or a
		// lane-owned receiver (a per-lane pipe or shard whose methods run on
		// that lane).
		laneObj, laneIndex := laneParam(pass.TypesInfo, n.decl)
		if laneObj == nil && !c.laneOwnedRecv(n.decl) {
			pass.Reportf(m.pos, "//tspuvet:lane on %s: a lane entry point needs an "+
				"integer lane parameter named lane, l, laneID, shard, or shardID, "+
				"or a //tspuvet:laneowned receiver", n.name)
		}
		if pass.FactsEnabled() {
			pass.ExportObjectFact(n.fn, &LaneEntryFact{LaneParam: laneIndex})
		}
	}
	if pass.FactsEnabled() {
		for tn := range c.owned {
			pass.ExportObjectFact(tn, &LaneOwnedFact{})
		}
	}

	g.reach(func(n *funcNode) bool { return roots[n] }, func(*funcNode) bool { return false })
	for _, n := range g.order {
		if n.reached {
			c.checkFunc(n)
		}
	}
	return nil, nil
}

type laneChecker struct {
	pass  *analysis.Pass
	owned map[*types.TypeName]bool
}

// isOwned reports whether a type is lane-owned: marked in this package, or
// carrying an imported LaneOwnedFact from the package that declared it.
func (c *laneChecker) isOwned(tn *types.TypeName) bool {
	if tn == nil {
		return false
	}
	if c.owned[tn] {
		return true
	}
	if tn.Pkg() != nil && tn.Pkg() != c.pass.Pkg {
		var lf LaneOwnedFact
		return c.pass.ImportObjectFact(tn, &lf)
	}
	return false
}

// laneOwnedRecv reports whether fd is a method on a lane-owned type.
func (c *laneChecker) laneOwnedRecv(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := c.pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && c.isOwned(named.Obj())
}

// laneParam finds the declared lane-index parameter of a function and its
// flattened index (receiver excluded, matching call-argument positions), or
// nil and -1 when the function has none.
func laneParam(info *types.Info, fd *ast.FuncDecl) (types.Object, int) {
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && laneParamNames[name.Name] {
				if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					return obj, i
				}
			}
			i++
		}
	}
	return nil, -1
}

// laneClass classifies what memory an expression's chain roots in.
type laneClass int

const (
	classLocal     laneClass = iota // frame-local value, or exempt (packets)
	classLaneLocal                  // this lane's own shard state
	classShared                     // state visible to other lanes
)

// laneWalker checks one lane-reachable function.
type laneWalker struct {
	c *laneChecker
	n *funcNode
	// params holds the function's parameter and receiver objects.
	params map[types.Object]bool
	// laneObj is the lane-index parameter, if any.
	laneObj types.Object
	// laneAliases are locals bound to the lane index (x := l, x := int(lane)).
	laneAliases map[types.Object]bool
	// aliases classifies pointer locals by what their initializer roots in.
	aliases map[types.Object]laneClass
	// badIndex records cross-lane IndexExpr nodes already reported, so the
	// shared-write rule does not double-report the same access.
	badIndex map[ast.Node]bool
}

func (c *laneChecker) checkFunc(n *funcNode) {
	w := &laneWalker{
		c:           c,
		n:           n,
		params:      map[types.Object]bool{},
		laneAliases: map[types.Object]bool{},
		aliases:     map[types.Object]laneClass{},
		badIndex:    map[ast.Node]bool{},
	}
	info := c.pass.TypesInfo
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					w.params[obj] = true
				}
			}
		}
	}
	collect(n.decl.Recv)
	collect(n.decl.Type.Params)
	w.laneObj, _ = laneParam(info, n.decl)
	w.prepass()
	w.walk()
}

// prepass classifies locals by their first := initializer, in source order
// (aliases of aliases resolve because definitions precede uses).
func (w *laneWalker) prepass() {
	info := w.c.pass.TypesInfo
	ast.Inspect(w.n.decl.Body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			if w.isLaneIndex(as.Rhs[i]) {
				w.laneAliases[obj] = true
				continue
			}
			if _, done := w.aliases[obj]; !done {
				w.aliases[obj] = w.class(as.Rhs[i])
			}
		}
		return true
	})
}

// class resolves the memory class an expression's access chain roots in.
// It never reports; the walk does.
func (w *laneWalker) class(e ast.Expr) laneClass {
	info := w.c.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if w.c.pass.PkgNameOf(e) != nil {
			return classShared // package-qualified access
		}
		obj := info.ObjectOf(e)
		if obj == nil {
			return classLocal
		}
		if obj.Parent() == w.c.pass.Pkg.Scope() || (obj.Pkg() != nil && obj.Pkg() != w.c.pass.Pkg) {
			return classShared // package-level variable
		}
		if w.params[obj] {
			return w.paramClass(obj)
		}
		if cls, ok := w.aliases[obj]; ok {
			return cls
		}
		return classLocal
	case *ast.SelectorExpr:
		base := w.class(e.X)
		if base == classLaneLocal {
			// A pointer field out of lane-local state into a non-lane-owned
			// named struct (lanePipe.e -> *Engine) re-enters shared territory.
			if t := info.TypeOf(e); t != nil {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					if named, ok := p.Elem().(*types.Named); ok && !w.c.isOwned(named.Obj()) && !isPacketNamed(named) {
						if _, isStruct := named.Underlying().(*types.Struct); isStruct {
							return classShared
						}
					}
				}
			}
		}
		return base
	case *ast.IndexExpr:
		if w.elemLaneOwned(info.TypeOf(e.X)) {
			base := w.class(e.X)
			if base == classLaneLocal || base == classLocal {
				return classLaneLocal
			}
			if w.isLaneIndex(e.Index) {
				return classLaneLocal
			}
			return classShared
		}
		return w.class(e.X)
	case *ast.StarExpr:
		return w.class(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.class(e.X)
		}
		return classLocal
	case *ast.CallExpr:
		return classLaneLocal // the producer owns its result
	}
	return classLocal
}

// paramClass classifies a parameter or receiver object.
func (w *laneWalker) paramClass(obj types.Object) laneClass {
	t := obj.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if w.c.isOwned(named.Obj()) {
			return classLaneLocal
		}
		if isPacketNamed(named) {
			return classLocal // the packet is owned by its current holder
		}
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				return classShared
			}
		}
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		if w.elemLaneOwned(obj.Type()) {
			// A bare lane-owned slice parameter is the whole sharded
			// container; indexing it still needs the lane parameter.
			return classShared
		}
		return classShared // aliases caller-visible memory
	}
	return classLocal
}

// elemLaneOwned reports whether unwrapping slices/arrays of t reaches a
// lane-owned named type.
func (w *laneWalker) elemLaneOwned(t types.Type) bool {
	for t != nil {
		if named, ok := t.(*types.Named); ok {
			if w.c.isOwned(named.Obj()) {
				return true
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}

// isLaneIndex reports whether e is the lane index: the lane parameter, an
// alias of it, an integer conversion of either, or a lane/shard-named field
// of lane-owned state.
func (w *laneWalker) isLaneIndex(e ast.Expr) bool {
	info := w.c.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return false
		}
		return obj == w.laneObj || w.laneAliases[obj]
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return w.isLaneIndex(e.Args[0])
		}
		return false
	case *ast.SelectorExpr:
		return laneParamNames[e.Sel.Name] && w.class(e.X) == classLaneLocal
	}
	return false
}

// walk scans the body for cross-lane indexing, shared writes, and shared RNG
// draws.
func (w *laneWalker) walk() {
	info := w.c.pass.TypesInfo
	// Pass 1: cross-lane indexing, reads and writes alike.
	ast.Inspect(w.n.decl.Body, func(x ast.Node) bool {
		ix, ok := x.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if !w.elemLaneOwned(info.TypeOf(ix.X)) {
			return true
		}
		base := w.class(ix.X)
		if base == classLaneLocal || base == classLocal {
			return true
		}
		if w.isLaneIndex(ix.Index) {
			return true
		}
		w.badIndex[ix] = true
		w.reportf(ix.Pos(), "cross-lane access: %s is indexed with %s, not the lane parameter — "+
			"a lane may touch only its own shard", exprString(ix.X), exprString(ix.Index))
		return true
	})
	// Pass 2: writes and RNG draws.
	ast.Inspect(w.n.decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				w.checkWrite(lhs, x.Pos())
			}
		case *ast.IncDecStmt:
			w.checkWrite(x.X, x.Pos())
		case *ast.SendStmt:
			if w.class(x.Chan) == classShared {
				w.reportf(x.Pos(), "send on a shared channel from lane-reachable code synchronizes across lanes")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && len(x.Args) > 0 {
					w.checkWrite(x.Args[0], x.Pos())
				}
			}
			w.checkRand(x)
			w.checkLaneHandoff(x)
		}
		return true
	})
}

// checkLaneHandoff flags a static call from lane-reachable code to an
// imported lane entry point whose lane argument is not this lane's index:
// the callee selects a shard with it, so anything else crosses lanes.
func (w *laneWalker) checkLaneHandoff(call *ast.CallExpr) {
	fn := calleeFunc(w.c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == w.c.pass.Pkg {
		return
	}
	var ef LaneEntryFact
	if !w.c.pass.ImportObjectFact(fn, &ef) || ef.LaneParam < 0 || ef.LaneParam >= len(call.Args) {
		return
	}
	arg := call.Args[ef.LaneParam]
	if w.isLaneIndex(arg) {
		return
	}
	w.reportf(call.Pos(), "cross-lane handoff: %s.%s is a lane entry point but %s is not this lane's index",
		fn.Pkg().Name(), fn.Name(), exprString(arg))
}

// checkWrite flags a write whose destination chain roots in shared state.
func (w *laneWalker) checkWrite(lhs ast.Expr, pos token.Pos) {
	if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return // rebinding a local is a frame write
	}
	hasBad := false
	ast.Inspect(lhs, func(x ast.Node) bool {
		if w.badIndex[x] {
			hasBad = true
		}
		return true
	})
	if hasBad {
		return // the cross-lane index report already covers this access
	}
	if w.class(lhs) == classShared {
		w.reportf(pos, "lane-reachable code writes shared state through %s; route the write through "+
			"the lane's own shard or use sync/atomic", exprString(lhs))
	}
}

// checkRand flags method calls on a shared *sim.Rand: consuming a shared
// entropy stream from lane code makes the draw order depend on interleaving.
func (w *laneWalker) checkRand(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	t := w.c.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Name() != "Rand" ||
		named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "sim" {
		return
	}
	if w.class(sel.X) == classShared {
		w.reportf(call.Pos(), "lane-reachable code draws from a shared sim.Rand: the stream order would "+
			"depend on lane interleaving; derive per-flow randomness instead")
	}
}

func (w *laneWalker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	w.c.pass.Report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(
		"%s (%s); fix it or justify with //tspuvet:allow lanecheck: <reason>", msg, chainLabel(w.n, "lane entry point"))})
}

// isPacketNamed reports whether named is packet.Packet.
func isPacketNamed(named *types.Named) bool {
	obj := named.Obj()
	return obj != nil && obj.Name() == "Packet" && obj.Pkg() != nil && obj.Pkg().Name() == "packet"
}
