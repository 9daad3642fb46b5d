package measure

import (
	"fmt"
	"strings"
	"testing"

	"tspusim/internal/topo"
)

// TestResidualCensorship pins the §3 methodology check: blocking state is
// per-flow, so a benign retry on the triggering 4-tuple inherits the
// censorship, a fresh source port does not, and the reused port is clean
// again once the 75 s SNI-I hold lapses. Each row is one lab seed.
func TestResidualCensorshipTable(t *testing.T) {
	for _, seed := range []uint64{41, 53} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			lab := topo.Build(topo.Options{Seed: seed, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
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
		})
	}
}

// TestTechniquesAgreeAcrossPaths runs the one residual triple and the one
// TTL ladder over a lab vantage path and over a TSPU testbed path, and
// requires the paper's answers on each: the reused port blocked, a fresh
// port clean, the reused port clean after 80 s, and the ladder latching at
// the hop each environment placed the device behind.
func TestTechniquesAgreeAcrossPaths(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 41, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	labPath := VantagePath(lab, topo.ERTelecom)
	tspuModel := CensorModels(1, "crosscensor")[0]
	if tspuModel.Name != "tspu" {
		t.Fatalf("first cross-censor model is %q, want tspu", tspuModel.Name)
	}
	cases := []struct {
		name   string
		path   func() Path
		domain string
		maxTTL int
		hop    int
	}{
		{"lab", func() Path { return labPath }, DomainSNI1, 10, lab.Vantages[topo.ERTelecom].SymDeviceHop},
		{"tspu-testbed", func() Path { return testbedPath(tspuModel) }, CrossBlockedDomain,
			topo.CensorTestbedPathRouters + 2, topo.CensorTestbedHopTTL},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := residual(tc.path(), tc.domain)
			if !r.ReusedPortBlocked || r.FreshPortBlocked || r.ReusedAfterExpiry {
				t.Errorf("residual = %+v, want reused port blocked, fresh port clean, clean after 80 s", r)
			}
			if hop := ttlLadder(tc.path, 443, tc.maxTTL, tlsTTLTrigger(tc.domain)); hop != tc.hop {
				t.Errorf("ladder hop = %d, want %d", hop, tc.hop)
			}
		})
	}
}
