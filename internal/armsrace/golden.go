package armsrace

import (
	"fmt"
	"strconv"
	"strings"

	"tspusim/internal/circumvent"
	"tspusim/internal/measure"
	"tspusim/internal/netem"
	"tspusim/internal/report"
)

// A golden trace is a pinned evasion replayed with a capture tapped on the
// censor link: a self-describing header (enough to re-run the trial from the
// file alone) followed by the packet log. The replay test re-executes each
// trace from its header and byte-compares the result, so the corpus stays
// honest against any model drift.

// TraceHeader is the replayable identity of a golden trace.
type TraceHeader struct {
	Family  string
	Round   int
	Posture []string // empty = baseline
	Genome  string   // canonical circumvent.Genome string
}

// TraceName returns the corpus filename for a pin.
func TraceName(p Pin) string {
	name := fmt.Sprintf("%s__r%d__%s", p.Family, p.Round, slug(p.Genome.String()))
	if p.DefeatedRound != 0 {
		name += "__defeated"
	}
	return name + ".golden"
}

// slug maps a genome string to a filename-safe form: "segment(64)+srv-split"
// becomes "segment-64-srv-split".
func slug(s string) string {
	var b strings.Builder
	dash := false
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b.WriteRune(c)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// Trace replays one pinned trial with a censor-link capture and renders the
// golden file content. The header carries everything Replay needs; the body
// is the packet log, entry and delivery both, so middlebox rewrites (RST
// injection, fragment reassembly) are visible line by line.
func Trace(h TraceHeader) (string, error) {
	fam, ok := FamilyByName(h.Family)
	if !ok {
		return "", fmt.Errorf("armsrace: unknown family %q", h.Family)
	}
	applied, ok := menuByName(fam, h.Posture)
	if !ok {
		return "", fmt.Errorf("armsrace: family %q has no countermeasure among %v", h.Family, h.Posture)
	}
	g, err := circumvent.Decode(h.Genome)
	if err != nil {
		return "", err
	}
	capt := netem.NewCapture("armsrace/" + h.Family)
	v := runTrial(fam, fam.Probe, applied, g, capt)

	var b strings.Builder
	b.WriteString("# arms-race golden trace (regenerate: go test -run TestArmsRaceLedgerGolden -update .)\n")
	fmt.Fprintf(&b, "censor: %s (%s)\n", fam.Name, fam.Cite)
	fmt.Fprintf(&b, "probe: %s port %d, domain %s\n", fam.Probe.Kind, fam.Probe.Port, measure.CrossBlockedDomain)
	fmt.Fprintf(&b, "round: %d\n", h.Round)
	fmt.Fprintf(&b, "posture: %s\n", postureLabel(h.Posture))
	fmt.Fprintf(&b, "strategy: %s\n", h.Genome)
	fmt.Fprintf(&b, "verdict: %s\n", v)
	b.WriteString("-- packet log (censor link) --\n")
	b.WriteString(capt.Dump())
	return b.String(), nil
}

// ParseTraceHeader recovers the replayable identity from golden file content.
func ParseTraceHeader(content string) (TraceHeader, error) {
	var h TraceHeader
	seen := map[string]bool{}
	for _, line := range strings.Split(content, "\n") {
		if line == "-- packet log (censor link) --" {
			break
		}
		key, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		seen[key] = true
		switch key {
		case "censor":
			h.Family, _, _ = strings.Cut(val, " (")
		case "round":
			n, err := strconv.Atoi(val)
			if err != nil {
				return h, fmt.Errorf("armsrace: bad round %q", val)
			}
			h.Round = n
		case "posture":
			if val != "baseline" {
				h.Posture = strings.Split(val, ",")
			}
		case "strategy":
			h.Genome = val
		}
	}
	for _, key := range []string{"censor", "round", "posture", "strategy"} {
		if !seen[key] {
			return h, fmt.Errorf("armsrace: trace header missing %q line", key)
		}
	}
	return h, nil
}

// Portability is the cross-censor transfer matrix: every distinct pinned
// strategy replayed against every family's *unmodified* censor. Families
// whose baseline never blocked the probed plane get an explicit control cell
// — the strategy is not run at all there, so a censor that never blocked the
// target can never be reported as "evaded".
type Portability struct {
	// Strategies are the rows: distinct (probe kind, genome) pairs.
	Strategies []PortRow
	// Families are the columns.
	Families []string
	// Cells is indexed [strategy][family].
	Cells [][]string
	// BaselineBlocked records, per family and probe plane, whether the
	// unmodified censor blocked the noop probe — the control guard the tests
	// assert against.
	BaselineBlocked map[string]map[circumvent.ProbeKind]bool
}

// PortRow is one portability row.
type PortRow struct {
	Kind   circumvent.ProbeKind
	Genome circumvent.Genome
}

// Portability cell vocabulary.
const (
	cellEvades  = "evades"
	cellBlocked = "blocked"
	cellControl = "n/a (target not blocked)"
)

// RunPortability replays every distinct pinned strategy — on its own probe
// plane — against every family's unmodified censor.
func RunPortability(led *Ledger) *Portability {
	fams := led.Config.withDefaults().Families
	pm := &Portability{BaselineBlocked: make(map[string]map[circumvent.ProbeKind]bool)}
	for _, fam := range fams {
		pm.Families = append(pm.Families, fam.Name)
		pm.BaselineBlocked[fam.Name] = map[circumvent.ProbeKind]bool{}
		for _, kind := range []circumvent.ProbeKind{circumvent.ProbeTLS, circumvent.ProbeHTTP} {
			blocked := !runTrial(fam, probeFor(kind), nil, circumvent.Genome{}, nil).Evaded
			pm.BaselineBlocked[fam.Name][kind] = blocked
		}
	}

	seen := map[PortRow]bool{}
	for _, p := range led.AllPins() {
		fam, _ := FamilyByName(p.Family)
		row := PortRow{Kind: fam.Probe.Kind, Genome: p.Genome}
		if seen[row] {
			continue
		}
		seen[row] = true
		pm.Strategies = append(pm.Strategies, row)
	}

	for _, row := range pm.Strategies {
		cells := make([]string, 0, len(fams))
		for _, fam := range fams {
			switch {
			case !pm.BaselineBlocked[fam.Name][row.Kind]:
				// Control cell: never run the strategy against a censor that
				// does not block this plane's target, so it can never be
				// reported as "evaded" there.
				cells = append(cells, cellControl)
			case runTrial(fam, probeFor(row.Kind), nil, row.Genome, nil).Evaded:
				cells = append(cells, cellEvades)
			default:
				cells = append(cells, cellBlocked)
			}
		}
		pm.Cells = append(pm.Cells, cells)
	}
	return pm
}

// Cell returns the portability cell for (genome string, family), panicking
// on unknown labels — tests pass constants.
func (pm *Portability) Cell(genome, family string) string {
	si, fi := -1, -1
	for i, row := range pm.Strategies {
		if row.Genome.String() == genome {
			si = i
		}
	}
	for i, f := range pm.Families {
		if f == family {
			fi = i
		}
	}
	if si < 0 || fi < 0 {
		panic("armsrace: unknown portability cell " + genome + " × " + family)
	}
	return pm.Cells[si][fi]
}

// Render prints the transfer matrix.
func (pm *Portability) Render() *report.Doc {
	headers := append([]string{"Strategy", "Plane"}, pm.Families...)
	t := report.NewTable("Strategy portability (pinned evasions vs. every unmodified censor)", headers...)
	for i, row := range pm.Strategies {
		cells := []any{row.Genome.String(), string(row.Kind)}
		for _, c := range pm.Cells[i] {
			cells = append(cells, c)
		}
		t.AddRow(cells...)
	}
	return new(report.Doc).Add(t)
}
