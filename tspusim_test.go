package tspusim

import (
	"runtime"
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

// Run's output must be a pure function of the lab seed, on a second seed
// and lab shape besides the one TestRunSmokeEveryExperiment uses. This is
// the regression test for the "[%.2fs]" wall-clock stamp that used to live
// in the returned string and made every run unique.
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

// TestRunSmokeEveryExperiment runs every experiment to completion on a
// small lab and is the runtime determinism check: each experiment runs on
// two fresh labs of the same seed, the first under GOMAXPROCS(1) and the
// second at the machine's full GOMAXPROCS, and the two outputs must be
// byte-identical. A wall-clock read, an ambient random draw, or a map
// range reaching the output makes the runs differ: Go randomizes map
// iteration order per range statement, and seeds math/rand per process.
func TestRunSmokeEveryExperiment(t *testing.T) {
	opts := Options{Seed: 2, Endpoints: 120, ASes: 10, EchoServers: 40, TrancoN: 120, RegistryN: 120}
	procs := runtime.GOMAXPROCS(0)
	run := func(t *testing.T, id string, maxprocs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		out, err := Run(NewLab(opts), id)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			out := run(t, e.ID, 1)
			if len(out) < 80 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
			if !strings.Contains(out, e.ID) {
				t.Fatal("output missing header")
			}
			if again := run(t, e.ID, procs); again != out {
				t.Fatalf("output differs between two labs of the same seed (GOMAXPROCS 1, then %d):\n%s\nvs\n%s", procs, out, again)
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
