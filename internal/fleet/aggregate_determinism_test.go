package fleet

import (
	"sort"
	"testing"
)

// buildReport assembles a Report from results handed over in any order: the
// runner's contract is that Results are in plan order, so the builder sorts
// by Job.Index exactly like the worker pool's indexed writes do.
func buildReport(results []JobResult) *Report {
	sorted := make([]JobResult, len(results))
	copy(sorted, results)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Job.Index < sorted[j].Job.Index })
	return &Report{Results: sorted}
}

// RenderAggregate groups by experiment and aggregates stat keys through
// internal maps; this golden check pins down that two independently-built
// reports — one assembled forward, one in reverse completion order — render
// byte-for-byte identically, which is the whole fleet determinism claim in
// miniature (workers complete in arbitrary order).
func TestRenderAggregateInsertionOrderInvariant(t *testing.T) {
	mk := func(idx int, exp string, seed int, out string, stats []Stat) JobResult {
		return JobResult{
			Job:    Job{Index: idx, Exp: exp, SeedIndex: seed, Shard: 0, Shards: 1},
			Output: out,
			Stats:  stats,
		}
	}
	results := []JobResult{
		mk(0, "table1", 0, "t1 seed0", []Stat{{Key: "ER/SNI fail%", Value: 1.5}, {Key: "ER/QUIC fail%", Value: 0.5}}),
		mk(1, "table1", 1, "t1 seed1", []Stat{{Key: "ER/SNI fail%", Value: 2.5}, {Key: "ER/QUIC fail%", Value: 0.75}}),
		mk(2, "fig12", 0, "hops seed0", []Stat{{Key: "within2", Value: 69.0}}),
		mk(3, "fig12", 1, "hops seed1", []Stat{{Key: "within2", Value: 71.0}}),
	}
	fwd := buildReport(results)
	reversed := make([]JobResult, 0, len(results))
	for i := len(results) - 1; i >= 0; i-- {
		reversed = append(reversed, results[i])
	}
	rev := buildReport(reversed)

	a, b := fwd.RenderAggregate(), rev.RenderAggregate()
	if a != b {
		t.Fatalf("aggregate depends on result insertion order:\n%s\nvs\n%s", a, b)
	}
}

// Stat keys that only some replicas emit must keep first-seen order and an
// honest n, independent of how the report was assembled.
func TestRenderAggregatePartialKeysStable(t *testing.T) {
	mk := func(idx int, stats []Stat) JobResult {
		return JobResult{Job: Job{Index: idx, Exp: "e", SeedIndex: idx, Shards: 1}, Output: "o" + string(rune('0'+idx)), Stats: stats}
	}
	results := []JobResult{
		mk(0, []Stat{{Key: "always", Value: 1}, {Key: "sometimes", Value: 10}}),
		mk(1, []Stat{{Key: "always", Value: 2}}),
		mk(2, []Stat{{Key: "always", Value: 3}, {Key: "sometimes", Value: 30}}),
	}
	fwd := buildReport(results)
	rev := buildReport([]JobResult{results[2], results[0], results[1]})
	if fwd.RenderAggregate() != rev.RenderAggregate() {
		t.Fatalf("partial-key aggregate depends on assembly order:\n%s\nvs\n%s",
			fwd.RenderAggregate(), rev.RenderAggregate())
	}
}
