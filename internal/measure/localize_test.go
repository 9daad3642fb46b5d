package measure

import (
	"strings"
	"testing"

	"tspusim/internal/topo"
)

// localizeLabs are the two labs the localization tables run on: a small
// seed-41 lab, whose subtests are named by vantage, and remoteLab (seed 12,
// 240 endpoints), whose subtests add a "-seed12" suffix. The vantage
// topology does not depend on the seed, so both rows expect the same hops.
func localizeLabs(t *testing.T) []struct {
	suffix string
	lab    *topo.Lab
} {
	return []struct {
		suffix string
		lab    *topo.Lab
	}{
		{"", topo.Build(topo.Options{Seed: 41, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})},
		{"-seed12", remoteLab(t)},
	}
}

// TestTTLLocalizeTable pins the §7.1 hop localization for each vantage: the
// TTL-limited trigger must first latch at exactly the hop the topology
// placed the symmetric device behind, and the control handshake at full TTL
// must not perturb the result.
func TestTTLLocalizeTable(t *testing.T) {
	cases := []struct {
		vantage    string
		triggerTTL int
	}{
		{topo.Rostelecom, 2},
		{topo.ERTelecom, 2},
		{topo.OBIT, 2},
	}
	for _, row := range localizeLabs(t) {
		lab := row.lab
		for _, tc := range cases {
			tc := tc
			t.Run(tc.vantage+row.suffix, func(t *testing.T) {
				res := TTLLocalize(lab, tc.vantage, 12)
				if res.TriggerTTL != tc.triggerTTL {
					t.Errorf("TriggerTTL = %d, want %d (paper: within the first three hops)",
						res.TriggerTTL, tc.triggerTTL)
				}
				want := lab.Vantages[tc.vantage].SymDeviceHop
				if res.TriggerTTL != want {
					t.Errorf("TriggerTTL = %d disagrees with topology's SymDeviceHop = %d",
						res.TriggerTTL, want)
				}
				if !strings.Contains(res.Render().String(), "between hop") {
					t.Errorf("Render() missing hop bracket: %q", res.Render().String())
				}
			})
		}
	}
}

// TestTTLLocalizeNoDevice: a path without any TSPU must report none rather
// than a phantom hop.
func TestTTLLocalizeNoDevice(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 41, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	// A short TTL horizon that cannot reach the device looks like no TSPU.
	res := TTLLocalize(lab, topo.ERTelecom, 1)
	if res.TriggerTTL != 0 {
		t.Fatalf("TriggerTTL = %d, want 0 with a 1-hop horizon", res.TriggerTTL)
	}
	if !strings.Contains(res.Render().String(), "no TSPU found") {
		t.Errorf("Render() = %q, want a no-TSPU report", res.Render().String())
	}
}

// TestPartialVisibilityTable pins the Fig. 8 (left) echo experiment: only
// the vantages the topology equips with an upstream-only second device
// detect one, and at the expected hop.
func TestPartialVisibilityTable(t *testing.T) {
	cases := []struct {
		vantage string
		ttls    []int
	}{
		// Rostelecom and OBIT carry an upstream-only device one hop past the
		// symmetric one (§7.1.1); ER-Telecom has a single symmetric device,
		// which stays exempt because the flow is remote-originated.
		{topo.Rostelecom, []int{3}},
		{topo.ERTelecom, nil},
		{topo.OBIT, []int{3}},
	}
	for _, row := range localizeLabs(t) {
		lab := row.lab
		for _, tc := range cases {
			tc := tc
			t.Run(tc.vantage+row.suffix, func(t *testing.T) {
				res := PartialVisibility(lab, tc.vantage, 12)
				if len(res.UpstreamOnlyTTLs) != len(tc.ttls) {
					t.Fatalf("UpstreamOnlyTTLs = %v, want %v", res.UpstreamOnlyTTLs, tc.ttls)
				}
				for i, want := range tc.ttls {
					if res.UpstreamOnlyTTLs[i] != want {
						t.Errorf("UpstreamOnlyTTLs[%d] = %d, want %d", i, res.UpstreamOnlyTTLs[i], want)
					}
				}
				rendered := res.Render().String()
				if len(tc.ttls) == 0 && !strings.Contains(rendered, "none detected") {
					t.Errorf("Render() = %q, want none detected", rendered)
				}
				if len(tc.ttls) > 0 && !strings.Contains(rendered, "upstream-only device between hop") {
					t.Errorf("Render() = %q, want an upstream-only report", rendered)
				}
			})
		}
	}
}
