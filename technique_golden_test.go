package tspusim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// techniqueIDs are the experiments whose rendered text comes straight out of
// the paper's measurement techniques: state-timeout bisection (table2,
// table8), the residual and fresh-port check (residual), TTL-limited
// localization (localize, fig8), sequence exploration (fig4), ClientHello
// fuzzing (fig13), the raw-flow traces (sni3, fig2, timeline), and the §8
// evasion trial behind the circumvention matrix and the genetic search
// (circum, evolve).
var techniqueIDs = []string{"table2", "table8", "residual", "localize", "fig8", "fig4", "fig13", "sni3", "fig2", "timeline", "circum", "evolve"}

func techniqueOpts() Options {
	return Options{Seed: 1, Endpoints: 200, ASes: 12, EchoServers: 50, TrancoN: 200, RegistryN: 200}
}

// TestPaperTechniqueGolden pins the full rendered text of every
// technique-driven experiment at small scale, each on a fresh lab. A change
// to how a technique scripts its flows, retries or bisects shows up here as a
// readable diff. Regenerate deliberately with:
// go test -run TestPaperTechniqueGolden -update .
func TestPaperTechniqueGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range techniqueIDs {
		out, err := Run(NewLab(techniqueOpts()), id)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	out := b.String()
	golden := filepath.Join("testdata", "paper_techniques.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(out))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if out != string(want) {
		t.Fatalf("technique output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, out, want)
	}
}
