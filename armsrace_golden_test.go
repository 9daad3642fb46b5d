package tspusim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tspusim/internal/armsrace"
	"tspusim/internal/circumvent"
	"tspusim/internal/fleet"
)

// The arms-race corpus has two layers of goldens: the ledger+portability
// artifact (testdata/armsrace_ledger.golden) and one packet-level trace per
// pinned evasion (testdata/evasions/*.golden). Both regenerate together:
//
//	go test -run TestArmsRaceLedgerGolden -update .
//
// The ledger test also carries the acceptance assertions (pin counts, at
// least one defeat) so a corpus regeneration that quietly lost the arms-race
// dynamics fails even with -update.

const evasionsDir = "testdata/evasions"

// raceLedger memoizes the default-config race across the tests in this file.
var raceLedger *armsrace.Ledger

func defaultRace(t *testing.T) *armsrace.Ledger {
	t.Helper()
	if raceLedger == nil {
		raceLedger = armsrace.Run(armsrace.DefaultConfig())
	}
	return raceLedger
}

// TestArmsRaceLedgerGolden pins the whole race — round ledger, pins, defeats,
// portability matrix — byte-for-byte, and (with -update) regenerates the
// golden-trace corpus from the current pins.
func TestArmsRaceLedgerGolden(t *testing.T) {
	led := defaultRace(t)

	// Acceptance floor, asserted before any golden comparison so it also
	// guards -update regenerations: the race must actually produce an arms
	// race, not a quiet convergence.
	var tspuPins int
	famPins := map[string]int{}
	var defeats int
	for _, fl := range led.Families {
		famPins[fl.Family] = len(fl.Pins)
		if fl.Family == "tspu" {
			tspuPins = len(fl.Pins)
		}
		defeats += len(fl.Defeats)
		if fl.NotApplicable {
			t.Errorf("family %s reported not applicable — its probed plane should be blocked", fl.Family)
		}
	}
	if tspuPins < 3 {
		t.Errorf("want >= 3 distinct pinned evasions against tspu, got %d", tspuPins)
	}
	for fam, n := range famPins {
		if n < 1 {
			t.Errorf("want >= 1 pinned evasion against %s, got %d", fam, n)
		}
	}
	if defeats < 1 {
		t.Errorf("want >= 1 pinned evasion defeated by a counter-evolved posture, got %d", defeats)
	}

	out := led.Render().String() + "\n" + armsrace.RunPortability(led).Render().String()
	golden := filepath.Join("testdata", "armsrace_ledger.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(out))
		regenerateEvasionCorpus(t, led)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if out != string(want) {
		t.Fatalf("arms-race ledger drifted from %s — a censor model, countermeasure, or the search changed.\n--- got ---\n%s\n--- want ---\n%s",
			golden, out, want)
	}
}

// regenerateEvasionCorpus rewrites testdata/evasions/ from the race's pins,
// removing any stale traces so the directory always mirrors the ledger.
func regenerateEvasionCorpus(t *testing.T, led *armsrace.Ledger) {
	t.Helper()
	if err := os.RemoveAll(evasionsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(evasionsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range led.AllPins() {
		content, err := armsrace.Trace(armsrace.TraceHeader{
			Family:  p.Family,
			Round:   p.Round,
			Posture: p.Posture,
			Genome:  p.Genome.String(),
		})
		if err != nil {
			t.Fatalf("trace %s/%s: %v", p.Family, p.Genome, err)
		}
		name := filepath.Join(evasionsDir, armsrace.TraceName(p))
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("rewrote %s (%d traces)", evasionsDir, len(led.AllPins()))
}

// TestEvasionCorpusReplays re-runs every golden trace from nothing but its
// own header and byte-compares verdict and packet log. The corpus is the
// conformance suite for the evasion claims: a model change that breaks (or
// un-breaks) a pinned strategy produces a packet-level diff here.
func TestEvasionCorpusReplays(t *testing.T) {
	entries, err := os.ReadDir(evasionsDir)
	if err != nil {
		t.Fatalf("missing evasion corpus (regenerate with go test -run TestArmsRaceLedgerGolden -update .): %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("evasion corpus is empty")
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".golden") {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(evasionsDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			h, err := armsrace.ParseTraceHeader(string(want))
			if err != nil {
				t.Fatal(err)
			}
			// The header's strategy string must be a valid corpus form.
			if _, err := circumvent.Decode(h.Genome); err != nil {
				t.Fatalf("trace header carries undecodable strategy %q: %v", h.Genome, err)
			}
			got, err := armsrace.Trace(h)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("replay of %s drifted:\n--- got ---\n%s\n--- want ---\n%s", e.Name(), got, want)
			}
		})
	}
}

// TestArmsRacePortabilityControls guards the control column: the portability
// matrix must never report a strategy as evading a censor that does not block
// the probed plane in the first place.
func TestArmsRacePortabilityControls(t *testing.T) {
	pm := armsrace.RunPortability(defaultRace(t))
	if len(pm.Strategies) == 0 {
		t.Fatal("portability matrix has no strategies")
	}
	for si, row := range pm.Strategies {
		for fi, fam := range pm.Families {
			cell := pm.Cells[si][fi]
			if !pm.BaselineBlocked[fam][row.Kind] && !strings.HasPrefix(cell, "n/a") {
				t.Errorf("%s vs %s: baseline does not block %s but cell is %q, not a control cell",
					row.Genome, fam, row.Kind, cell)
			}
			if pm.BaselineBlocked[fam][row.Kind] && strings.HasPrefix(cell, "n/a") {
				t.Errorf("%s vs %s: baseline blocks %s but cell is a control cell", row.Genome, fam, row.Kind)
			}
		}
	}
	// The fingerprint matrix's pinned facts imply concrete control cells:
	// the TSPU does not block the HTTP plane, airtel does not block TLS.
	if got := pm.BaselineBlocked["tspu"][circumvent.ProbeHTTP]; got {
		t.Error("tspu unexpectedly blocks the http-host probe at baseline")
	}
	if got := pm.BaselineBlocked["in-airtel"][circumvent.ProbeTLS]; got {
		t.Error("in-airtel unexpectedly blocks the tls-sni probe at baseline")
	}
}

// TestArmsRaceWorkerIndependence: the whole race — search, shrink, defeats,
// counter-moves — must be byte-identical at any fleet worker count, and the
// registered experiment must render identically across replica seeds.
func TestArmsRaceWorkerIndependence(t *testing.T) {
	base := defaultRace(t).Render().String()
	for _, w := range []int{4, 8} {
		cfg := armsrace.DefaultConfig()
		cfg.Workers = w
		if got := armsrace.Run(cfg).Render().String(); got != base {
			t.Fatalf("ledger differs at workers=%d", w)
		}
	}

	// Replica independence through the experiment surface: the race ignores
	// the lab seed by design, so every replica renders the same artifact.
	rep := RunFleet(crossCensorOpts(), []string{"armsrace"}, 2, 1, fleet.Config{Workers: 2})
	if len(rep.Failed()) != 0 {
		t.Fatalf("fleet run failed: %v", rep.Failed()[0].Err)
	}
	first := rep.Results[0].Output
	if !strings.Contains(first, "pins:") {
		t.Fatalf("experiment output missing pin summary:\n%s", first)
	}
	for _, res := range rep.Results {
		if res.Output != first {
			t.Fatalf("job %s rendered a different ledger — the race leaked lab seed or schedule", res.Job.Label())
		}
	}
}
