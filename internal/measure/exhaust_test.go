package measure

import (
	"strings"
	"testing"

	"tspusim/internal/topo"
)

// TestStateExhaustion pins the §8 provisioning table: the SNI-I hold must
// survive the flood at every bound comfortably above the flood size and be
// evicted (with pressure evictions recorded) at the under-provisioned ones.
func TestStateExhaustion(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 41, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	res := StateExhaustion(lab)
	want := []struct {
		maxFlows  int
		survived  bool
		evictions bool // whether pressure evictions must have occurred
	}{
		{0, true, false},
		{100000, true, false},
		{10000, true, false},
		{1000, false, true},
		{256, false, true},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		got := res.Rows[i]
		if got.MaxFlows != w.maxFlows {
			t.Errorf("row %d: MaxFlows = %d, want %d", i, got.MaxFlows, w.maxFlows)
		}
		if got.Survived != w.survived {
			t.Errorf("bound %d: Survived = %v, want %v", w.maxFlows, got.Survived, w.survived)
		}
		if (got.Evictions > 0) != w.evictions {
			t.Errorf("bound %d: Evictions = %d, want evictions=%v", w.maxFlows, got.Evictions, w.evictions)
		}
	}
	out := res.Render().String()
	for _, s := range []string{"State exhaustion", "unlimited", "under-provisioned"} {
		if !strings.Contains(out, s) {
			t.Errorf("Render() missing %q:\n%s", s, out)
		}
	}
}
