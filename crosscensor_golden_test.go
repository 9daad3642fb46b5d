package tspusim

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tspusim/internal/fleet"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens of this package from this run")

func crossCensorOpts() Options {
	return Options{Seed: 1, Endpoints: 20, ASes: 2, TrancoN: 50, RegistryN: 50}
}

// TestCrossCensorGoldenMatrix pins the full fingerprint matrix byte-for-byte.
// Any behavioral drift in any censor model — a changed trigger, a new
// reassembly path, a different injection shape — moves a cell and shows up
// as a readable diff against the committed golden. Regenerate deliberately
// with: go test -run TestCrossCensorGoldenMatrix -update .
func TestCrossCensorGoldenMatrix(t *testing.T) {
	lab := NewLab(crossCensorOpts())
	out, err := Run(lab, "crosscensor")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "crosscensor_matrix.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("fingerprint matrix drifted from %s — a censor model changed behavior.\n--- got ---\n%s\n--- want ---\n%s",
			golden, out, want)
	}
}

// TestCrossCensorWorkerIndependence: the matrix must be byte-identical at any
// -workers count and for any replica seed — it is a pure function of the
// model tables, so fleet scheduling and seed derivation must not leak in.
func TestCrossCensorWorkerIndependence(t *testing.T) {
	reports := []*fleet.Report{
		RunFleet(crossCensorOpts(), []string{"crosscensor"}, 3, 1, fleet.Config{Workers: 1}),
		RunFleet(crossCensorOpts(), []string{"crosscensor"}, 3, 1, fleet.Config{Workers: 4}),
		RunFleet(crossCensorOpts(), []string{"crosscensor"}, 3, 1, fleet.Config{Workers: 8}),
	}
	for _, r := range reports {
		if len(r.Failed()) != 0 {
			t.Fatalf("fleet run failed: %v", r.Failed()[0].Err)
		}
	}
	base := reports[0].RenderAggregate()
	for i, r := range reports[1:] {
		if got := r.RenderAggregate(); got != base {
			t.Fatalf("aggregate differs between worker counts (run %d):\n--- base ---\n%s\n--- got ---\n%s", i+1, base, got)
		}
	}
	// Every replica, regardless of its derived seed, renders the same matrix.
	first := reports[0].Results[0].Output
	if !strings.Contains(first, "distinct fingerprints: 6/6") {
		t.Fatalf("matrix output missing fingerprint summary:\n%s", first)
	}
	for _, r := range reports {
		for _, res := range r.Results {
			if res.Output != first {
				t.Fatalf("job %s rendered a different matrix — battery output depends on seed or schedule", res.Job.Label())
			}
		}
	}
}
