package measure

import (
	"strings"
	"testing"

	"tspusim/internal/topo"
)

// TestResidualCensorship pins the §3 methodology check: blocking state is
// per-flow, so a benign retry on the triggering 4-tuple inherits the
// censorship, a fresh source port does not, and the reused port is clean
// again once the 75 s SNI-I hold lapses.
func TestResidualCensorshipTable(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 41, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	res := ResidualCensorship(lab)
	checks := []struct {
		name string
		got  bool
		want bool
	}{
		{"benign retry on the triggering port", res.ReusedPortBlocked, true},
		{"benign retry on a fresh port", res.FreshPortBlocked, false},
		{"triggering port after the 75s hold", res.ReusedAfterExpiry, false},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: blocked=%v, want %v", c.name, c.got, c.want)
		}
	}
	if !strings.Contains(res.Render().String(), "fresh source ports") {
		t.Errorf("Render() missing methodology reference:\n%s", res.Render().String())
	}
}
