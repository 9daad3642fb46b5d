// Package lint is tspu-vet: a suite of static analyzers that enforce the
// determinism contract of DESIGN.md at compile time. Every claim the
// reproduction makes rests on experiment output being a pure function of the
// lab seed; these analyzers turn the three ways that property silently rots
// — wall-clock reads, ambient randomness, and map-iteration order reaching
// rendered output — into build failures.
//
// The suite:
//
//   - walltime: forbids time.Now/Since/Sleep/NewTimer/... — simulation code
//     must take time from the virtual clock (sim.Sim).
//   - globalrand: forbids importing math/rand, math/rand/v2, and
//     crypto/rand — all entropy must derive from sim.Rand / sim.StreamSeed.
//   - maporder: flags `for k := range m` over maps whose body feeds ordered
//     output (append, string building, report tables) without sorting.
//   - hotpath: a call graph rooted at every //tspuvet:hotpath function;
//     allocating constructs on reachable paths are diagnostics with their
//     call chain. //tspuvet:coldpath <reason> cuts a callee out.
//   - synccheck: WaitGroup.Add inside the goroutine it accounts for,
//     channel sends in select without default. (Sync primitives copied by
//     value are go vet's copylocks check.)
//   - retaincheck: taint analysis over *packet.Packet parameters and their
//     payload-derived slices; a packet must not flow into a store that
//     outlives the call unless it passes through a Clone/Marshal-style copy
//     first. Deliberate retention carries //tspuvet:retains <reason>.
//   - lanecheck: code reachable from a //tspuvet:lane entry point may touch
//     sharded state (//tspuvet:laneowned types) only through the lane's own
//     shard, indexed by the lane parameter; writes to shared structs and
//     draws from a shared sim.Rand are diagnostics.
//   - poolcheck: pool lifecycle — use-after-Release/Put, double release,
//     and references escaping after the release point.
//   - statecheck: every switch over a //tspuvet:closedenum type must
//     enumerate all members or justify its default with
//     //tspuvet:allow statecheck: <reason>.
//   - allowdirective: validates //tspuvet:allow suppression directives; a
//     malformed directive, an unknown analyzer name, or (via Suppress) a
//     directive that no longer suppresses anything is itself a diagnostic.
//
// The suite is whole-program: analyzers export facts about package objects
// (ImpureFact, AllocFact, RetainsFact, LaneOwnedFact, LaneEntryFact,
// EnumFact) that the driver threads through packages in dependency order —
// in memory when tspu-vet runs standalone, through .vetx files when it runs
// as a go vet -vettool. Transitive wall-clock and RNG use, cross-package
// packet retention, allocation chains that cross package seams, lane
// contracts on imported shard state, and enum exhaustiveness away from the
// declaring package are all diagnosed at the first call site in checked
// code, with the full reached-via chain.
//
// Every marker the suite reads shares one grammar, //tspuvet:<verb> [reason],
// parsed in one place; a later "//" ends the marker, so a reason cannot
// contain it. One rule table fixes where each verb goes and whether it needs
// a reason:
//
//	verb        placement                                       reason
//	allow       the excused line, or alone on the line above    required, as <analyzer>: <reason>
//	retains     the retaining line, or alone on the line above  required
//	hotpath     doc comment of a function declaration           none
//	coldpath    doc comment of a function declaration           required
//	lane        doc comment of a function declaration           none
//	laneowned   doc comment of a type declaration               none
//	impure      the line of a function declaration, or above    required
//	closedenum  doc comment of a type declaration               none
//
// A declaration marker placed anywhere else, or missing its reason, is a
// diagnostic of the analyzer that consumes it (impure: walltime); a malformed
// or unknown suppression is an allowdirective diagnostic.
//
// Exceptions are declared inline, next to the code they excuse:
//
//	start := time.Now() //tspuvet:allow walltime: orchestrator wall time is diagnostic only
//
// A directive suppresses diagnostics of the named analyzer on its own line
// or on the line immediately below it (so it can trail the offending line or
// sit on its own line above it). //tspuvet:retains <reason> is sugar for a
// retaincheck suppression with the same placement rules: it marks a
// deliberate packet-retention site and rots into a diagnostic the moment the
// line stops retaining.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"tspusim/internal/lint/analysis"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Walltime, Globalrand, Maporder, Hotpath, Synccheck, Retaincheck, Lanecheck, Poolcheck, Statecheck, Allowdirective}
}

// Suppressible names the analyzers a //tspuvet:allow directive may target.
// Allowdirective itself is excluded: suppressing the suppression checker
// would let the allowlist rot, which is the one thing it exists to prevent.
var Suppressible = map[string]bool{
	"walltime":    true,
	"globalrand":  true,
	"maporder":    true,
	"hotpath":     true,
	"synccheck":   true,
	"retaincheck": true,
	"lanecheck":   true,
	"poolcheck":   true,
	"statecheck":  true,
}

// suppressibleNames is the sorted human-readable list for diagnostics.
const suppressibleNames = "globalrand, hotpath, lanecheck, maporder, poolcheck, retaincheck, statecheck, synccheck, walltime"

// Directive is one parsed suppression comment: //tspuvet:allow, or
// //tspuvet:retains (which suppresses retaincheck).
type Directive struct {
	Pos      token.Pos
	Line     int    // source line the directive sits on
	Verb     string // "allow" or "retains", for rendering
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
			d := Directive{Pos: c.Pos(), Line: fset.Position(c.Pos()).Line, Verb: verb}
			switch verb {
			case retainsVerb:
				// A deliberate packet-retention site: sugar for a retaincheck
				// suppression, so the used/unused bookkeeping in Suppress
				// applies to it unchanged.
				if rest == "" {
					report(analysis.Diagnostic{Pos: c.Pos(), Message: missingReason(verb, "")})
					continue
				}
				d.Analyzer, d.Reason = Retaincheck.Name, rest
			case allowVerb:
				name, reason, ok := strings.Cut(rest, ":")
				name = strings.TrimSpace(name)
				reason = strings.TrimSpace(reason)
				if !ok || name == "" {
					report(analysis.Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf(
						"malformed //tspuvet:allow directive %q: want //tspuvet:allow <analyzer>: <reason>", c.Text)})
					continue
				}
				if !Suppressible[name] {
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
					"unknown tspuvet directive %q (recognized: //tspuvet:allow <analyzer>: <reason>, "+
						"//tspuvet:retains <reason>, //tspuvet:hotpath, //tspuvet:coldpath <reason>, "+
						"//tspuvet:lane, //tspuvet:laneowned, //tspuvet:impure <reason>, "+
						"//tspuvet:closedenum)", verb)})
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
		if Suppressible[d.Category] {
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
			msg := fmt.Sprintf("unused //tspuvet:allow %s directive: it no longer suppresses any diagnostic; delete it",
				dir.Analyzer)
			if dir.Verb == retainsVerb {
				msg = "unused //tspuvet:retains directive: the annotated line no longer retains a packet; delete it"
			}
			kept = append(kept, analysis.Diagnostic{
				Pos:      dir.Pos,
				Category: Allowdirective.Name,
				Message:  msg,
			})
		}
	}
	return kept
}
