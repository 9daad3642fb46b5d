package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tspusim/internal/lint/analysis"
)

// Statecheck makes state-machine transitions total. The simulator is full of
// small closed enums — conntrack states, device verdicts, censor rule
// actions, conformance oracle states — and every one of them is dispatched
// through switches. Adding a member to the enum without visiting every
// switch is the classic silent-rot path: the new state falls into a default
// (or out of the switch entirely) and the machine quietly misbehaves.
//
//   - //tspuvet:closedenum on a type declaration declares the enum closed:
//     its members are exactly the package-level constants of that type
//     (aliases — distinct names for the same constant value — count once).
//   - Every switch over a value of a closed enum must either enumerate every
//     member or carry a default annotated with
//     //tspuvet:allow statecheck: <reason>. A bare default is a diagnostic
//     at the default clause; a missing member without a default is a
//     diagnostic at the switch. The annotation rots like every other
//     //tspuvet:allow the moment the switch becomes exhaustive.
//   - A case that dispatches on a non-constant expression makes the switch
//     undecidable; such switches are skipped.
//
// The members travel across package seams as an EnumFact on the type, so a
// switch in internal/conformance over a tspu.ConnState is held to the same
// standard as one next to the declaration.
var Statecheck = &analysis.Analyzer{
	Name: "statecheck",
	Doc: "every switch over a //tspuvet:closedenum type must enumerate all " +
		"members or justify its default with //tspuvet:allow statecheck: <reason>",
	Run: runStatecheck,
}

// EnumFact carries a closed enum's membership to importing packages: the
// declaration-ordered members, deduplicated by constant value.
type EnumFact struct {
	Members []EnumMember
}

// AFact marks EnumFact as an analysis fact.
func (*EnumFact) AFact() {}

// EnumMember is one enum member: its canonical name (the first constant
// declared with this value) and the exact constant value for matching case
// clauses that spell a member differently (aliases, qualified names).
type EnumMember struct {
	Name  string
	Value string
}

func runStatecheck(pass *analysis.Pass) (any, error) {
	c := &stateChecker{pass: pass, enums: map[*types.TypeName]*EnumFact{}}
	marked := bindMarkers(pass).types[closedenumVerb]
	for _, tn := range marked {
		members := c.collectMembers(tn)
		if len(members) == 0 {
			pass.Reportf(tn.Pos(), "//tspuvet:closedenum on %s: no package-level constants of this type; a closed enum needs members", tn.Name())
			continue
		}
		c.enums[tn] = &EnumFact{Members: members}
	}
	for _, tn := range marked {
		if ef := c.enums[tn]; ef != nil {
			pass.ExportObjectFact(tn, ef)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			if sw, ok := x.(*ast.SwitchStmt); ok {
				c.checkSwitch(sw)
			}
			return true
		})
	}
	return nil, nil
}

type stateChecker struct {
	pass  *analysis.Pass
	enums map[*types.TypeName]*EnumFact
}

// collectMembers walks package-level const declarations in source order and
// returns the enum's members: every constant of exactly this type,
// deduplicated by value (the first name declared for a value is canonical).
func (c *stateChecker) collectMembers(tn *types.TypeName) []EnumMember {
	var members []EnumMember
	seen := map[string]bool{}
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					cst, ok := c.pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || !types.Identical(cst.Type(), tn.Type()) {
						continue
					}
					v := cst.Val().ExactString()
					if seen[v] {
						continue
					}
					seen[v] = true
					members = append(members, EnumMember{Name: name.Name, Value: v})
				}
			}
		}
	}
	return members
}

// enumOf resolves the closed enum a switch tag belongs to: a local marked
// type, or an imported type carrying an EnumFact.
func (c *stateChecker) enumOf(t types.Type) (*types.TypeName, *EnumFact) {
	if t == nil {
		return nil, nil
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	tn := named.Obj()
	if tn == nil {
		return nil, nil
	}
	if ef := c.enums[tn]; ef != nil {
		return tn, ef
	}
	if tn.Pkg() != nil && tn.Pkg() != c.pass.Pkg {
		var ef EnumFact
		if c.pass.ImportObjectFact(tn, &ef) {
			return tn, &ef
		}
	}
	return nil, nil
}

// checkSwitch verifies one value switch over a closed enum.
func (c *stateChecker) checkSwitch(sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	tn, ef := c.enumOf(c.pass.TypesInfo.TypeOf(sw.Tag))
	if ef == nil {
		return
	}
	covered := map[string]bool{}
	var defaultPos token.Pos
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			defaultPos = cc.Pos()
			continue
		}
		for _, e := range cc.List {
			tv, ok := c.pass.TypesInfo.Types[e]
			if !ok || tv.Value == nil {
				return // dynamic case: membership is undecidable, skip the switch
			}
			covered[tv.Value.ExactString()] = true
		}
	}
	var missing []string
	for _, m := range ef.Members {
		if !covered[m.Value] {
			missing = append(missing, m.Name)
		}
	}
	if len(missing) == 0 {
		return
	}
	label := tn.Name()
	if tn.Pkg() != nil && tn.Pkg() != c.pass.Pkg {
		label = tn.Pkg().Name() + "." + label
	}
	if hasDefault {
		c.pass.Reportf(defaultPos, "default in a switch over closed enum %s hides unhandled %s; enumerate the members or justify with //tspuvet:allow statecheck: <reason>",
			label, strings.Join(missing, ", "))
		return
	}
	c.pass.Reportf(sw.Pos(), "switch over closed enum %s does not handle %s; add the missing cases or an annotated default",
		label, strings.Join(missing, ", "))
}
