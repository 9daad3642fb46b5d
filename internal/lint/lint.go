// Package lint is tspu-vet: static analyzers for the parts of DESIGN.md's
// contracts that no run of the program can see. Every claim the
// reproduction makes rests on experiment output being a pure function of
// the lab seed. The runtime checks hold most of that contract — every
// experiment run twice and compared byte for byte (TestRunSmokeEveryExperiment,
// TestFleetDeterministicAcrossWorkers, make fleet-smoke), the goldens, the
// pooldebug retention check and the race-lanes drivers — and this suite
// keeps only what they cannot catch:
//
//   - walltime: forbids time.Now/Since/Sleep/NewTimer/... — simulation code
//     must take time from the virtual clock (sim.Sim). A wall-clock budget
//     that never expires on the test machine leaves every output unchanged
//     there, and changes it on a slower one.
//   - globalrand: forbids importing math/rand, math/rand/v2, and
//     crypto/rand — all entropy must derive from sim.Rand / sim.StreamSeed.
//     Ambient randomness in bytes no output renders (a ClientHello's random
//     field) reaches pcaps without changing a golden.
//   - statecheck: every switch over a //tspuvet:closedenum type must
//     enumerate all members or justify its default with
//     //tspuvet:allow statecheck: <reason>. A member added later silently
//     falls into a default; no test knows the member exists.
//   - allowdirective: validates //tspuvet:allow suppression directives; a
//     malformed directive, an unknown analyzer name, or (via Suppress) a
//     directive that no longer suppresses anything is itself a diagnostic.
//
// The suite is whole-program: analyzers export facts about package objects
// (ImpureFact, EnumFact) that the driver threads through packages in
// dependency order, in one in-memory store; tspu-vet always runs the whole
// suite this way, over non-test files. Transitive wall-clock and RNG use
// and enum exhaustiveness away from the declaring package are diagnosed at
// the first call site in checked code, with the full reached-via chain.
//
// The zero-allocation contract of the per-packet path is not an analyzer:
// the compiler's escape analysis decides what reaches the heap, and
// tspu-vet -escapes diffs it against ESCAPES_baseline.json (package
// escape), while AllocsPerRun tests pin the allocations the compiler keeps
// on the stack until an input outgrows them.
//
// Every marker the suite reads shares one grammar, //tspuvet:<verb> [reason],
// parsed in one place; a later "//" ends the marker, so a reason cannot
// contain it. One rule table fixes where each verb goes and whether it needs
// a reason:
//
//	verb        placement                                       reason
//	allow       the excused line, or alone on the line above    required, as <analyzer>: <reason>
//	impure      the line of a function declaration, or above    required
//	closedenum  doc comment of a type declaration               none
//
// A declaration marker placed anywhere else, or missing its reason, is a
// diagnostic of the analyzer that consumes it (impure: walltime); a
// malformed or unknown suppression is an allowdirective diagnostic.
//
// Exceptions are declared inline, next to the code they excuse:
//
//	start := time.Now() //tspuvet:allow walltime: orchestrator wall time is diagnostic only
//
// A directive suppresses diagnostics of the named analyzer on its own line
// or on the line immediately below it (so it can trail the offending line or
// sit on its own line above it).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"tspusim/internal/lint/analysis"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Walltime, Globalrand, Statecheck, Allowdirective}
}

// suppressible names the analyzers a //tspuvet:allow directive may target:
// the suite minus allowdirective, because suppressing the suppression checker
// would let the allowlist rot, which is the one thing it exists to prevent.
// Both are filled in init: Allowdirective's Run reads them, so a variable
// initializer calling Analyzers would be an initialization cycle.
var (
	suppressible      = map[string]bool{}
	suppressibleNames string // sorted, for diagnostics
)

func init() {
	var names []string
	for _, a := range Analyzers() {
		if a != Allowdirective {
			suppressible[a.Name] = true
			names = append(names, a.Name)
		}
	}
	sort.Strings(names)
	suppressibleNames = strings.Join(names, ", ")
}

// Directive is one parsed //tspuvet:allow suppression comment.
type Directive struct {
	Pos      token.Pos
	Line     int    // source line the directive sits on
	Analyzer string // suppressed analyzer name
	Reason   string
}

// ParseDirectives extracts every well-formed //tspuvet:allow directive from
// file and reports each malformed one through report (used by the
// allowdirective analyzer; the driver passes a no-op to collect directives
// for suppression).
func ParseDirectives(fset *token.FileSet, file *ast.File, report func(analysis.Diagnostic)) []Directive {
	var dirs []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			verb, rest, ok := parseMarker(c)
			if !ok {
				continue
			}
			if rule, known := markerRules[verb]; known && rule.place != onLine {
				// Declaration markers are not suppressions; bindMarkers
				// validates them for the analyzer that owns the verb.
				continue
			}
			d := Directive{Pos: c.Pos(), Line: fset.Position(c.Pos()).Line}
			switch verb {
			case allowVerb:
				name, reason, ok := strings.Cut(rest, ":")
				name = strings.TrimSpace(name)
				reason = strings.TrimSpace(reason)
				if !ok || name == "" {
					report(analysis.Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf(
						"malformed //tspuvet:allow directive %q: want //tspuvet:allow <analyzer>: <reason>", c.Text)})
					continue
				}
				if !suppressible[name] {
					report(analysis.Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf(
						"//tspuvet:allow names unknown analyzer %q (suppressible: %s)", name, suppressibleNames)})
					continue
				}
				if reason == "" {
					report(analysis.Diagnostic{Pos: c.Pos(), Message: missingReason(verb, " "+name)})
					continue
				}
				d.Analyzer, d.Reason = name, reason
			default:
				report(analysis.Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf(
					"unknown tspuvet directive %q (recognized: %s)", verb, markerForms())})
				continue
			}
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// Suppress applies //tspuvet:allow directives from files to diags: a
// diagnostic is dropped when a directive naming its analyzer sits on the
// diagnostic's line or the line above. Directives that suppress nothing are
// themselves returned as allowdirective diagnostics — but only for analyzers
// in ran, so running a subset of the suite never reports live directives as
// stale. The returned slice preserves the input order of kept diagnostics.
func Suppress(fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic, ran map[string]bool) []analysis.Diagnostic {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	byKey := map[key][]*Directive{}
	var all []*Directive
	for _, f := range files {
		fdirs := ParseDirectives(fset, f, func(analysis.Diagnostic) {})
		fname := fset.Position(f.Pos()).Filename
		for i := range fdirs {
			d := &fdirs[i]
			all = append(all, d)
			byKey[key{fname, d.Line, d.Analyzer}] = append(byKey[key{fname, d.Line, d.Analyzer}], d)
		}
	}
	used := map[*Directive]bool{}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		if suppressible[d.Category] {
			for _, line := range []int{pos.Line, pos.Line - 1} {
				for _, dir := range byKey[key{pos.Filename, line, d.Category}] {
					used[dir] = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, dir := range all {
		if !used[dir] && ran[dir.Analyzer] {
			kept = append(kept, analysis.Diagnostic{
				Pos:      dir.Pos,
				Category: Allowdirective.Name,
				Message: fmt.Sprintf("unused //tspuvet:allow %s directive: it no longer suppresses any diagnostic; delete it",
					dir.Analyzer),
			})
		}
	}
	return kept
}
