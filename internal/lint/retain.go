package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tspusim/internal/lint/analysis"
)

// Retaincheck makes the packet-ownership contract of netem.Middlebox and the
// engine lanes a compile-time property. PR 6 removed per-hop cloning: one
// *packet.Packet instance traverses every link on its path, and whoever holds
// it at the moment owns it — so a middlebox (or any helper it calls) that
// stashes the pointer, or a subslice of its payload, past its own return
// aliases every downstream hop. The contract used to be one sentence of doc
// prose; this analyzer enforces it:
//
//   - Every function with a *packet.Packet (or packet.Packet, or
//     []*packet.Packet) parameter is a taint root: the packet parameters and
//     everything reference-derived from them — pkt.TCP, pkt.TCP.Payload,
//     subslices, tlsx.ExtractSNI results — are tainted.
//   - Taint propagates through assignments, slicing, range, composites, and
//     same-package calls (interprocedurally, with the offending call chain in
//     the diagnostic).
//   - A tainted value flowing into a store that outlives the call is a
//     diagnostic: writes through pointers, slices, maps, receivers, or
//     package variables; channel sends; go statements; and closures that
//     capture a tainted variable and escape (the Sim.After shape).
//   - Copies launder taint: Clone/CloneInto/Marshal/MarshalAppend/AppendTo
//     calls, string(b) conversions, copy, and append(dst, b...) of byte
//     slices all produce fresh memory.
//   - Deliberate retention is declared where it happens with
//     //tspuvet:retains <reason>; the directive is validated by
//     allowdirective and rots into a diagnostic when the line stops
//     retaining, exactly like //tspuvet:allow.
//
// The analysis is flow-insensitive within a function (a variable once tainted
// stays tainted). Within a package it is interprocedural; across packages it
// exchanges RetainsFacts: every function whose packet parameters can reach an
// outliving store exports the fact — including deliberate, annotated
// retention sites, because a //tspuvet:retains inside a helper package
// excuses the helper's own store, not the cross-package callers handing
// packets in. A caller passing tainted memory to an imported fact-bearing
// function inherits the diagnostic (and the fact), with the callee's chain
// spliced in; it can declare its own deliberate hand-off with
// //tspuvet:retains at the call line. Before facts, cross-package calls were
// unchecked boundaries justified by "ownership is handed off at exactly
// those boundaries" — an assumption, now a checked property. The only
// remaining heuristic is result taint: a cross-package call with tainted
// operands returns tainted memory whenever its result type can carry a
// reference.
var Retaincheck = &analysis.Analyzer{
	Name: "retaincheck",
	Doc: "forbid storing a *packet.Packet parameter (or payload-derived " +
		"slices) anywhere that outlives the call — across package seams via " +
		"RetainsFacts — unless cloned first or annotated //tspuvet:retains <reason>",
	Run: runRetaincheck,
}

// RetainsFact marks a function that can retain packet-aliasing memory
// reaching it through its parameters or receiver: somewhere in it (or in a
// same-package callee, per Chain) a tainted value hits a store that outlives
// the call. What describes that store; Chain walks from the function down to
// the site, one qualified function per hop. Deliberate annotated retention
// exports the fact too — that is the point: the annotation excuses the site,
// not the callers feeding it.
type RetainsFact struct {
	What  string
	Chain []string
}

// AFact marks RetainsFact as an analysis fact.
func (*RetainsFact) AFact() {}

// retainCopyNames are callees whose result (or destination argument) is a
// fresh copy of the packet bytes rather than an alias.
var retainCopyNames = map[string]bool{
	"Clone":         true,
	"CloneInto":     true,
	"Marshal":       true,
	"MarshalAppend": true,
	"AppendTo":      true,
}

func runRetaincheck(pass *analysis.Pass) (any, error) {
	c := &retainChecker{
		pass:     pass,
		graph:    newCallGraph(pass),
		memo:     map[retainKey]*retainSummary{},
		reported: map[string]bool{},
		facts:    map[*types.Func]*RetainsFact{},
	}
	for _, n := range c.graph.order {
		if mask := c.packetMask(n.decl); mask != 0 {
			c.currentRoot = n.fn
			c.analyze(n.fn, n.decl, mask, nil)
		}
	}
	c.currentRoot = nil
	for _, n := range c.graph.order {
		if f := c.facts[n.fn]; f != nil {
			pass.ExportObjectFact(n.fn, f)
		}
	}
	return nil, nil
}

// retainKey memoizes one (function, parameter-taint-mask) analysis.
type retainKey struct {
	fn   *types.Func
	mask uint64
}

// retainSummary is the result of one analysis: whether any return statement
// yields a tainted value (so callers can taint the call result).
type retainSummary struct {
	returnsTaint bool
	done         bool
}

type retainChecker struct {
	pass     *analysis.Pass
	graph    *callGraph
	memo     map[retainKey]*retainSummary
	reported map[string]bool
	// currentRoot is the taint root whose analysis is in flight, so transitive
	// retention found in a same-package helper also attaches to the root.
	currentRoot *types.Func
	// facts accumulates one RetainsFact per retaining function, exported after
	// the root loop (before Suppress runs, so annotated sites still export).
	facts map[*types.Func]*RetainsFact
}

// noteRetention records fn's first retention event as its RetainsFact, with
// the chain elements qualified by package name for cross-package diagnostics.
func (c *retainChecker) noteRetention(fn *types.Func, chain []string, msg string) {
	if fn == nil || c.facts[fn] != nil {
		return
	}
	q := make([]string, len(chain))
	for i, el := range chain {
		q[i] = c.pass.Pkg.Name() + "." + el
	}
	c.facts[fn] = &RetainsFact{What: msg, Chain: q}
}

// packetMask returns the taint mask seeded by packet-typed parameters: bit 0
// is the receiver, bit i+1 is parameter i.
func (c *retainChecker) packetMask(fd *ast.FuncDecl) uint64 {
	var mask uint64
	i := 0
	if fd.Recv != nil {
		i = 1 // receiver occupies bit 0 but is never a packet seed here
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			t := c.pass.TypesInfo.TypeOf(field.Type)
			for j := 0; j < n; j++ {
				if i < 64 && isPacketSeed(t) {
					mask |= 1 << uint(i)
				}
				i++
			}
		}
	}
	return mask
}

// isPacketSeed reports whether a parameter of type t roots packet taint:
// *packet.Packet, packet.Packet (a shallow copy shares payload pointers), or
// slices thereof.
func isPacketSeed(t types.Type) bool {
	if t == nil {
		return false
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		return isPacketSeed(s.Elem())
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Packet" && obj.Pkg() != nil && obj.Pkg().Name() == "packet"
}

// analyze runs (or reuses) one function analysis under the given taint mask
// and returns its summary. chain is the interprocedural path from the root,
// nil for roots themselves.
func (c *retainChecker) analyze(fn *types.Func, fd *ast.FuncDecl, mask uint64, chain []string) *retainSummary {
	key := retainKey{fn, mask}
	if sum, ok := c.memo[key]; ok {
		// In-progress entries (cycles) answer optimistically: no return taint.
		return sum
	}
	sum := &retainSummary{}
	c.memo[key] = sum
	s := &retainScope{
		c:          c,
		fd:         fd,
		chain:      append(append([]string(nil), chain...), funcDisplayName(fd)),
		tainted:    map[types.Object]bool{},
		frameLocal: map[types.Object]bool{},
		invoked:    map[*ast.FuncLit]bool{},
	}
	s.seed(mask)
	s.findFrameLocals()
	s.findInvokedLits()
	s.propagate()
	s.report()
	sum.returnsTaint = s.returnsTaint()
	sum.done = true
	return sum
}

// retainScope is one function analysis: the taint environment plus
// book-keeping for the walk.
type retainScope struct {
	c     *retainChecker
	fd    *ast.FuncDecl
	chain []string
	// tainted holds every object (param, local) carrying packet-aliasing
	// memory, including by-value container locals a packet was stored into.
	tainted map[types.Object]bool
	// frameLocal marks pointer locals born from &T{}/new(T) that never leave
	// the frame: stores through them cannot outlive the call.
	frameLocal map[types.Object]bool
	// invoked marks function literals that are called where they appear
	// (including defer): their bodies run within this call's lifetime.
	invoked map[*ast.FuncLit]bool
}

func (s *retainScope) info() *types.Info { return s.c.pass.TypesInfo }

// seed marks the mask's parameter objects tainted.
func (s *retainScope) seed(mask uint64) {
	i := 0
	mark := func(names []*ast.Ident) {
		if len(names) == 0 {
			i++
			return
		}
		for _, name := range names {
			if i < 64 && mask&(1<<uint(i)) != 0 {
				if obj := s.info().Defs[name]; obj != nil {
					s.tainted[obj] = true
				}
			}
			i++
		}
	}
	if s.fd.Recv != nil {
		mark(s.fd.Recv.List[0].Names)
	}
	if s.fd.Type.Params != nil {
		for _, field := range s.fd.Type.Params.List {
			mark(field.Names)
		}
	}
}

// findFrameLocals marks pointer locals whose pointee cannot outlive the call:
// initialized from &composite/new and never passed, returned, stored,
// sent, or captured — only dereferenced.
func (s *retainScope) findFrameLocals() {
	candidates := map[types.Object]bool{}
	ast.Inspect(s.fd.Body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := s.info().Defs[id]
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.UnaryExpr:
				// Only &T{...} births frame-local memory; &container[i] or
				// &x.field points into memory someone else can see.
				if rhs.Op == token.AND {
					if _, isLit := ast.Unparen(rhs.X).(*ast.CompositeLit); isLit {
						candidates[obj] = true
					}
				}
			case *ast.CallExpr:
				if bid, ok := rhs.Fun.(*ast.Ident); ok && bid.Name == "new" {
					if _, isBuiltin := s.info().ObjectOf(bid).(*types.Builtin); isBuiltin {
						candidates[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return
	}
	// Disqualify any candidate used outside selector/star/assign-LHS position.
	escaped := map[types.Object]bool{}
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				// p.f: the base use is fine; still scan the rest.
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if obj := s.info().Uses[id]; obj != nil && candidates[obj] {
						return false // base position: not an escape
					}
				}
			case *ast.StarExpr:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if obj := s.info().Uses[id]; obj != nil && candidates[obj] {
						return false
					}
				}
			case *ast.Ident:
				if obj := s.info().Uses[x]; obj != nil && candidates[obj] {
					escaped[obj] = true
				}
			}
			return true
		})
	}
	visit(s.fd.Body)
	for obj := range candidates {
		if !escaped[obj] {
			s.frameLocal[obj] = true
		}
	}
}

// findInvokedLits marks immediately-called function literals (and deferred
// ones, which run within the call's lifetime).
func (s *retainScope) findInvokedLits() {
	ast.Inspect(s.fd.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			s.invoked[lit] = true
		}
		// Closures handed to sort run synchronously, within this call's
		// lifetime (sort.Slice comparators over packet slices).
		if fn := calleeFunc(s.info(), call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
			for _, a := range call.Args {
				if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
					s.invoked[lit] = true
				}
			}
		}
		return true
	})
}

// propagate grows the tainted set to a fixed point over the whole body,
// closure bodies included.
func (s *retainScope) propagate() {
	info := s.info()
	for {
		changed := false
		mark := func(obj types.Object) {
			if obj != nil && !s.tainted[obj] && canCarryRef(obj.Type()) {
				s.tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(s.fd.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					var rhs ast.Expr
					if len(x.Rhs) == len(x.Lhs) {
						rhs = x.Rhs[i]
					} else if len(x.Rhs) == 1 {
						rhs = x.Rhs[0]
					}
					if rhs == nil || !s.taintedExpr(rhs) {
						continue
					}
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						mark(info.ObjectOf(id))
						continue
					}
					// Storing taint into a by-value local container taints the
					// container itself (it may escape later); outliving stores
					// are reported, not propagated.
					if root, outlive := s.storeRoot(lhs); !outlive && root != nil {
						mark(root)
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					var rhs ast.Expr
					if len(x.Values) == len(x.Names) {
						rhs = x.Values[i]
					} else if len(x.Values) == 1 {
						rhs = x.Values[0]
					}
					if rhs != nil && s.taintedExpr(rhs) {
						mark(info.Defs[name])
					}
				}
			case *ast.RangeStmt:
				if s.taintedExpr(x.X) {
					for _, v := range []ast.Expr{x.Key, x.Value} {
						if id, ok := v.(*ast.Ident); ok {
							mark(info.ObjectOf(id))
						}
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// taintedExpr reports whether e may alias packet memory under the current
// environment.
func (s *retainScope) taintedExpr(e ast.Expr) bool {
	info := s.info()
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		return obj != nil && s.tainted[obj]
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && s.c.pass.PkgNameOf(id) != nil {
			return false // package-qualified name
		}
		if !canCarryRef(info.TypeOf(e)) {
			return false
		}
		return s.taintedExpr(e.X)
	case *ast.IndexExpr:
		if !canCarryRef(info.TypeOf(e)) {
			return false
		}
		return s.taintedExpr(e.X)
	case *ast.SliceExpr:
		return s.taintedExpr(e.X)
	case *ast.StarExpr:
		if !canCarryRef(info.TypeOf(e)) {
			return false
		}
		return s.taintedExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return s.taintedExpr(e.X)
		}
		return false
	case *ast.TypeAssertExpr:
		return s.taintedExpr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if s.taintedExpr(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return s.taintedCall(e)
	}
	return false
}

// taintedCall decides whether a call's results alias packet memory, running
// same-package callees interprocedurally.
func (s *retainScope) taintedCall(call *ast.CallExpr) bool {
	info := s.info()
	// Conversions: string(b) copies; ref-carrying conversions alias.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		t := info.TypeOf(call)
		if isString(t) || !canCarryRef(t) {
			return false
		}
		return len(call.Args) == 1 && s.taintedExpr(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			if id.Name != "append" || len(call.Args) == 0 {
				return false // len/cap/copy/min/... never alias their operands
			}
			if s.taintedExpr(call.Args[0]) {
				return true
			}
			for _, a := range call.Args[1:] {
				if !s.taintedExpr(a) {
					continue
				}
				// append(dst, b...) with basic elements copies the bytes out;
				// appending tainted values (packets, subslices) aliases.
				if call.Ellipsis.IsValid() && sliceOfBasic(info.TypeOf(a)) {
					continue
				}
				return true
			}
			return false
		}
	}
	if name := retainCalleeName(call); retainCopyNames[name] {
		return false
	}
	anyTainted := s.taintedReceiver(call)
	for _, a := range call.Args {
		if s.taintedExpr(a) {
			anyTainted = true
		}
	}
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() == s.c.pass.Pkg {
		if n := s.c.graph.nodes[fn]; n != nil {
			mask := s.callMask(call, n.decl)
			sum := s.c.analyze(fn, n.decl, mask, s.chain)
			return sum.returnsTaint
		}
	}
	if !anyTainted {
		return false
	}
	// Cross-package with taint on the wire: a RetainsFact on the callee means
	// the handed-off memory hits a store that outlives this call too.
	if fn != nil && fn.Pkg() != nil && fn.Pkg() != s.c.pass.Pkg {
		var rf RetainsFact
		if s.c.pass.ImportObjectFact(fn, &rf) && len(rf.Chain) > 0 {
			desc := rf.What
			if len(rf.Chain) > 1 {
				desc += ", reached via " + strings.Join(rf.Chain, " → ")
			}
			s.reportf(call.Pos(), "packet-aliasing value passed to %s, which retains it (in the callee: %s)", rf.Chain[0], desc)
		}
	}
	// Otherwise dynamic or fact-free: results alias iff an operand was tainted
	// and the results can carry references (tlsx.ExtractSNI, pkt.AppPayload).
	return canCarryRef(info.TypeOf(call))
}

// taintedReceiver reports whether a method call's receiver is tainted.
func (s *retainScope) taintedReceiver(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && s.c.pass.PkgNameOf(id) != nil {
		return false
	}
	return s.taintedExpr(sel.X)
}

// callMask maps tainted arguments (and receiver) onto the callee's mask.
func (s *retainScope) callMask(call *ast.CallExpr, decl *ast.FuncDecl) uint64 {
	var mask uint64
	bit := 0
	if decl.Recv != nil {
		if s.taintedReceiver(call) {
			mask |= 1
		}
		bit = 1
	}
	// Count the callee's declared parameter slots.
	nparams := 0
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			nparams += n
		}
	}
	for i, a := range call.Args {
		if !s.taintedExpr(a) {
			continue
		}
		slot := i
		if slot >= nparams {
			slot = nparams - 1 // variadic overflow lands on the last param
		}
		if slot >= 0 && bit+slot < 64 {
			mask |= 1 << uint(bit+slot)
		}
	}
	return mask
}

// report walks the body once, flagging tainted values that reach outliving
// stores, channel sends, goroutines, and escaping closures.
func (s *retainScope) report() {
	ast.Inspect(s.fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				var rhs ast.Expr
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				} else if len(x.Rhs) == 1 {
					rhs = x.Rhs[0]
				}
				if rhs == nil || !s.taintedExpr(rhs) {
					continue
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					// Plain local rebinds are handled by propagation; a bare
					// package variable is an outliving store.
					if obj := s.info().ObjectOf(id); obj != nil && obj.Parent() == s.c.pass.Pkg.Scope() {
						s.reportf(x.Pos(), "packet-aliasing value stored in %s, which outlives the call", describeLHS(lhs))
					}
					continue
				}
				if root, outlive := s.storeRoot(lhs); outlive {
					// Storing into the packet itself (payload rewrites) is the
					// device mutating what it already owns, not retention.
					if root != nil && s.tainted[root] {
						continue
					}
					s.reportf(x.Pos(), "packet-aliasing value stored in %s, which outlives the call", describeLHS(lhs))
				}
			}
		case *ast.SendStmt:
			if s.taintedExpr(x.Value) {
				s.reportf(x.Pos(), "packet-aliasing value sent on a channel: the receiver outlives this call")
			}
		case *ast.GoStmt:
			if s.goCallTaints(x.Call) {
				s.reportf(x.Pos(), "packet-aliasing value handed to a goroutine, which outlives the call")
			}
		case *ast.FuncLit:
			if s.invoked[x] {
				return true // runs inline; its body is walked like any block
			}
			if obj := s.capturedTaint(x); obj != nil {
				s.reportf(x.Pos(), "closure captures packet-aliasing %q and escapes (scheduled or stored past the call)", obj.Name())
			}
		case *ast.CallExpr:
			// Force interprocedural analysis even for calls in statement
			// position (results discarded).
			s.taintedCall(x)
		}
		return true
	})
}

// goCallTaints reports whether a go statement carries taint: tainted
// arguments, a tainted receiver, or a capturing closure.
func (s *retainScope) goCallTaints(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if s.taintedExpr(a) {
			return true
		}
	}
	if s.taintedReceiver(call) {
		return true
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return s.capturedTaint(lit) != nil
	}
	return false
}

// capturedTaint returns a tainted variable captured by lit from the enclosing
// function, or nil.
func (s *retainScope) capturedTaint(lit *ast.FuncLit) types.Object {
	var found types.Object
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.info().Uses[id]
		if obj == nil || !s.tainted[obj] {
			return true
		}
		// Declared inside the literal: not a capture.
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true
		}
		found = obj
		return false
	})
	return found
}

// storeRoot resolves the root of a store target's access chain and whether
// the destination memory outlives the call. It returns the root object for
// by-value local containers (outlive=false) so propagation can taint them.
func (s *retainScope) storeRoot(lhs ast.Expr) (types.Object, bool) {
	e := ast.Unparen(lhs)
	derefs := false // passed through pointer/slice/map memory on the way down
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if baseRef(s.info().TypeOf(x.X)) {
				derefs = true
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			if baseRef(s.info().TypeOf(x.X)) {
				derefs = true
			}
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			derefs = true
			e = ast.Unparen(x.X)
		case *ast.Ident:
			obj := s.info().ObjectOf(x)
			if obj == nil {
				return nil, true
			}
			if obj.Parent() == s.c.pass.Pkg.Scope() {
				return obj, true // package variable
			}
			if s.frameLocal[obj] {
				return obj, false
			}
			if derefs || baseRef(obj.Type()) {
				// A store through pointer/slice/map memory rooted at a param,
				// receiver, or non-frame-local pointer: the destination is
				// visible after return.
				return obj, true
			}
			return obj, false // by-value local container
		default:
			// Call results, type assertions, anything else: conservatively
			// outliving.
			return nil, true
		}
	}
}

// baseRef reports whether indexing/selecting through t reaches memory beyond
// the current frame: pointers, slices, and maps do; value structs/arrays do
// not.
func baseRef(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// returnsTaint reports whether any top-level return yields a tainted value.
func (s *retainScope) returnsTaint() bool {
	found := false
	var depth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(x.Body, walk)
			depth--
			return false
		case *ast.ReturnStmt:
			if depth > 0 {
				return true
			}
			for _, r := range x.Results {
				if s.taintedExpr(r) {
					found = true
				}
			}
			if len(x.Results) == 0 {
				// Naked return: check named results.
				if res := s.fd.Type.Results; res != nil {
					for _, f := range res.List {
						for _, name := range f.Names {
							if obj := s.info().Defs[name]; obj != nil && s.tainted[obj] {
								found = true
							}
						}
					}
				}
			}
		}
		return true
	}
	ast.Inspect(s.fd.Body, walk)
	return found
}

func (s *retainScope) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	// Facts record before dedup: a second root reaching an already-reported
	// site still owns the retention and must export its own fact. The scope's
	// function retains directly (its params reach the store); the in-flight
	// root retains transitively through the chain.
	if fn, ok := s.info().Defs[s.fd.Name].(*types.Func); ok {
		s.c.noteRetention(fn, s.chain[len(s.chain)-1:], msg)
	}
	if len(s.chain) > 1 {
		s.c.noteRetention(s.c.currentRoot, s.chain, msg)
	}
	// Dedupe on the chain-free message: a helper that is both a root and
	// reachable from another root reports once, with the first chain found.
	key := fmt.Sprintf("%d|%s", pos, msg)
	if s.c.reported[key] {
		return
	}
	s.c.reported[key] = true
	if len(s.chain) > 1 {
		msg += " (reached via " + strings.Join(s.chain, " → ") + ")"
	}
	msg += "; clone first (Clone/CloneInto/Marshal) or annotate //tspuvet:retains <reason>"
	s.c.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}

// describeLHS renders a store target for diagnostics.
func describeLHS(lhs ast.Expr) string {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "field " + exprString(e)
	case *ast.IndexExpr:
		if base := exprString(e.X); base != "expr" {
			return "element of " + base
		}
		return "an indexed element"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.Ident:
		return "package variable " + e.Name
	}
	return "a location"
}

// sliceOfBasic reports whether t is a slice of a basic type (bytes, runes):
// spread-appending such a slice copies its elements.
func sliceOfBasic(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, ok = sl.Elem().Underlying().(*types.Basic)
	return ok
}

// canCarryRef reports whether a value of type t can hold a reference to
// packet memory: pointers, slices, maps, chans, funcs, interfaces, and
// aggregates containing them. Strings cannot (conversion copies).
func canCarryRef(t types.Type) bool {
	return carriesRef(t, map[types.Type]bool{})
}

func carriesRef(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	// Value-semantic stdlib types whose internal pointers never alias caller
	// memory (netip.Addr interns address metadata; time.Time points at a
	// Location): deriving a flow key or timestamp from a packet is not
	// retention.
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj != nil && obj.Pkg() != nil {
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "net/netip.Addr", "net/netip.AddrPort", "net/netip.Prefix", "time.Time":
				return false
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRef(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return carriesRef(u.Elem(), seen)
	}
	return false
}

// retainCalleeName extracts the bare callee name for the copy allowlist.
func retainCalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
