package tspusim

import (
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	ids := IDs()
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table7", "table8",
		"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig12", "fig13", "fig14", "sni3", "localize", "usval", "circum",
		"observatory", "timeline", "exhaust", "exhaustscale", "evolve", "residual", "webconn", "propagation", "asymmetry", "devices", "crosscensor",
		"armsrace",
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing experiment %q", w)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(ids), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	lab := NewLab(Options{Seed: 1, Endpoints: 20, ASes: 2, TrancoN: 50, RegistryN: 50})
	if _, err := Run(lab, "nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Run's output must be a pure function of the lab seed. This is the
// regression test for the wall-clock stamp tspu-vet was built to catch: the
// "[%.2fs]" timing that used to live in the returned string made every run
// unique.
func TestRunOutputByteIdentical(t *testing.T) {
	opts := Options{Seed: 3, Endpoints: 60, ASes: 6, EchoServers: 20, TrancoN: 80, RegistryN: 80}
	for _, id := range []string{"table1", "fig12"} {
		a, err := Run(NewLab(opts), id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(NewLab(opts), id)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s output differs between two runs of the same seed:\n%s\nvs\n%s", id, a, b)
		}
	}
}

func TestRunSmokeEveryExperiment(t *testing.T) {
	// Every experiment must run to completion on a small lab and produce
	// non-trivial output. Fresh lab per experiment keeps them independent.
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			opts := Options{Seed: 2, Endpoints: 120, ASes: 10, EchoServers: 40, TrancoN: 120, RegistryN: 120}
			lab := NewLab(opts)
			out, err := Run(lab, e.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) < 80 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
			if !strings.Contains(out, e.ID) {
				t.Fatal("output missing header")
			}
		})
	}
}

// Every experiment's stat keys must be unique within its Doc: fleet
// aggregation merges replicas key by key, so a repeated key would average
// unrelated numbers.
func TestExperimentStatKeysUnique(t *testing.T) {
	opts := Options{Seed: 2, Endpoints: 120, ASes: 10, EchoServers: 40, TrancoN: 120, RegistryN: 120}
	for _, e := range Experiments() {
		seen := map[string]bool{}
		for _, st := range e.Run(NewLab(opts)).Stats() {
			if seen[st.Key] {
				t.Errorf("%s: duplicate stat key %q", e.ID, st.Key)
			}
			seen[st.Key] = true
		}
	}
}
