package tspusim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tspusim/internal/fleet"
)

func fleetTestOpts() Options {
	return Options{Seed: 5, Endpoints: 120, ASes: 8, EchoServers: 30, TrancoN: 120, RegistryN: 120}
}

// TestFleetDeterministicAcrossWorkers is the golden determinism check: every
// experiment fanned across 1 worker and 8 workers must render byte-identical
// aggregate reports for the same root seed.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	ids := IDs()
	r1 := RunFleet(fleetTestOpts(), ids, 2, 1, fleet.Config{Workers: 1})
	r8 := RunFleet(fleetTestOpts(), ids, 2, 1, fleet.Config{Workers: 8})
	if len(r1.Failed()) != 0 {
		t.Fatalf("sequential fleet had failures: %v", r1.Failed()[0].Err)
	}
	a, b := r1.RenderAggregate(), r8.RenderAggregate()
	if a != b {
		t.Fatalf("aggregate report differs between -workers 1 and -workers 8:\n--- w1 ---\n%s\n--- w8 ---\n%s", a, b)
	}
	if want := fmt.Sprintf("%d ok, 0 failed", 2*len(ids)); !strings.Contains(a, want) {
		t.Fatalf("unexpected summary:\n%s", a)
	}
}

// TestFleetUnknownExperimentFails: a job naming a missing experiment is
// reported as failed while the valid jobs complete.
func TestFleetUnknownExperimentFails(t *testing.T) {
	rep := RunFleet(fleetTestOpts(), []string{"table7", "nope"}, 2, 1, fleet.Config{Workers: 4})
	failed := rep.Failed()
	if len(failed) != 2 {
		t.Fatalf("want both nope jobs failed, got %d failures", len(failed))
	}
	for _, res := range failed {
		if res.Job.Exp != "nope" {
			t.Fatalf("valid job failed: %s: %v", res.Job.Label(), res.Err)
		}
	}
	agg := rep.RenderAggregate()
	if !strings.Contains(agg, "2 ok, 2 failed: nope/seed=0/shard=0, nope/seed=1/shard=0") {
		t.Fatalf("aggregate summary wrong:\n%s", agg)
	}
}

// TestFleetPanicIsolationWithRealJobs injects a panic into one job of a real
// experiment sweep and checks the fleet survives with the rest intact.
func TestFleetPanicIsolationWithRealJobs(t *testing.T) {
	base := fleetTestOpts()
	jobs := fleet.Plan(base.Seed, []string{"table7", "fig12"}, 2, 1)
	inner := JobRunner(base)
	run := func(job fleet.Job) (string, []fleet.Stat, error) {
		if job.Exp == "fig12" && job.SeedIndex == 1 {
			panic("injected shard failure")
		}
		return inner(job)
	}
	rep := fleet.NewRunner(fleet.Config{Workers: 4}).Run(jobs, run)
	failed := rep.Failed()
	if len(failed) != 1 || failed[0].Job.Label() != "fig12/seed=1/shard=0" {
		t.Fatalf("want exactly the injected job failed, got %+v", failed)
	}
	if !strings.Contains(rep.RenderAggregate(), "3 ok, 1 failed") {
		t.Fatalf("aggregate summary wrong:\n%s", rep.RenderAggregate())
	}
}

// TestFleetShardsSplitPopulation: sharding divides the endpoint population
// and still renders deterministically.
func TestFleetShardsSplitPopulation(t *testing.T) {
	base := fleetTestOpts()
	a := RunFleet(base, []string{"fig12"}, 1, 2, fleet.Config{Workers: 1})
	b := RunFleet(base, []string{"fig12"}, 1, 2, fleet.Config{Workers: 2})
	if len(a.Failed()) != 0 {
		t.Fatalf("sharded run failed: %v", a.Failed()[0].Err)
	}
	if a.RenderAggregate() != b.RenderAggregate() {
		t.Fatal("sharded aggregate differs across worker counts")
	}
}

// TestExperimentStatsHook: table1's typed Doc emits one stat per cell,
// keyed "<vantage>/<column>" and valued as the failure percentage the text
// renders, in table order.
func TestExperimentStatsHook(t *testing.T) {
	e, ok := Find("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	lab := NewLab(Options{Seed: 2, Endpoints: 60, ASes: 4, EchoServers: 20, TrancoN: 60, RegistryN: 60})
	doc := e.Run(lab)
	stats := doc.Stats()
	if len(stats) != 15 {
		t.Fatalf("table1 stats has %d cells, want 15 (3 vantages x 5 types)", len(stats))
	}
	if stats[0].Key != "rostelecom/SNI-I" || stats[14].Key != "obit/IP-Based" {
		t.Fatalf("stat keys %q .. %q", stats[0].Key, stats[14].Key)
	}
	for _, st := range stats {
		cell := fmt.Sprintf("%.4f%%", st.Value)
		if !strings.Contains(doc.String(), cell) {
			t.Errorf("stat %s = %v: rendered table has no %s cell", st.Key, st.Value, cell)
		}
	}
	if !strings.Contains(doc.String(), "Table 1") {
		t.Fatalf("Doc missing artifact:\n%s", doc)
	}
}

// TestJobShardsSplitDefaultPopulation: with Endpoints left at zero, a
// 4-shard job splits the lab's default 2000-endpoint population, not
// builds four full-size labs.
func TestJobShardsSplitDefaultPopulation(t *testing.T) {
	job := fleet.Plan(1, []string{"fig9"}, 1, 4)[0]
	lab := NewLab(jobOptions(Options{Seed: 1, TrancoN: 50, RegistryN: 50}, job))
	if got := lab.Opts.Endpoints; got != 500 {
		t.Fatalf("4-shard job built a lab for %d endpoints, want 500", got)
	}
	if got := len(lab.Endpoints); got > 500 {
		t.Fatalf("4-shard job built %d endpoints, want at most 500", got)
	}
}

// TestFleetAggregateGolden pins the multi-seed aggregate — stat keys, their
// order, and their moments — for the experiments whose replicas differ, so
// a renamed or reshaped stat shows up as a reviewed diff. Every key must be
// unique within a job's stats, or replicas would aggregate unrelated
// numbers. Regenerate deliberately with:
// go test -run TestFleetAggregateGolden -update .
func TestFleetAggregateGolden(t *testing.T) {
	opts := Options{Seed: 1, Endpoints: 200, ASes: 12, EchoServers: 50, TrancoN: 200, RegistryN: 200}
	ids := []string{"fig9", "fig12", "table3", "usval", "propagation", "webconn"}
	rep := RunFleet(opts, ids, 3, 1, fleet.Config{Workers: 2})
	for _, res := range rep.Results {
		if res.Failed() {
			t.Fatalf("%s failed: %v", res.Job.Label(), res.Err)
		}
		seen := map[string]bool{}
		for _, st := range res.Stats {
			if seen[st.Key] {
				t.Errorf("%s: duplicate stat key %q", res.Job.Label(), st.Key)
			}
			seen[st.Key] = true
		}
	}
	out := rep.RenderAggregate()
	golden := filepath.Join("testdata", "fleet_aggregate.golden")
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
		t.Fatalf("fleet aggregate drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, out, want)
	}
}
