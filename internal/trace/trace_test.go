package trace

import (
	"net/netip"
	"strings"
	"testing"

	"tspusim/internal/topo"
)

func TestTracerouteToUS(t *testing.T) {
	l := topo.Build(topo.Options{Seed: 2, Endpoints: 100, ASes: 8, TrancoN: 100, RegistryN: 100})
	v := l.Vantages[topo.ERTelecom]
	r := Traceroute(l.Sim, v.Stack, l.US1.Addr(), 443, 20)
	if !r.Reached {
		t.Fatalf("traceroute did not reach US: hops=%v", r.Hops)
	}
	// vp - access - agg - core - border - hub - us-router - us1: 7 routers.
	if r.HopCount() < 4 || r.HopCount() > 10 {
		t.Fatalf("hop count = %d", r.HopCount())
	}
	for i, h := range r.Hops {
		if !h.IsValid() {
			t.Fatalf("silent hop at %d: %v", i, r.Hops)
		}
	}
}

func TestTracerouteToEndpoint(t *testing.T) {
	l := topo.Build(topo.Options{Seed: 2, Endpoints: 100, ASes: 8, TrancoN: 100, RegistryN: 100})
	// Pick an endpoint without a device on path so the SYN probe isn't
	// interfered with (plain SYNs pass TSPUs anyway, but keep it clean).
	ep := l.Endpoints[0]
	r := Traceroute(l.Sim, l.Paris, ep.Addr, ep.Port, 25)
	if !r.Reached {
		t.Fatalf("traceroute to endpoint failed: %v", r.Hops)
	}
	if r.HopCount() < 4 {
		t.Fatalf("suspiciously short path: %v", r.Hops)
	}
}

func TestLinkFromTrace(t *testing.T) {
	mk := func(s string) netip.Addr { return netip.MustParseAddr(s) }
	r := &Result{
		Dst:     mk("10.20.0.10"),
		Hops:    []netip.Addr{mk("1.1.1.1"), mk("2.2.2.2"), mk("3.3.3.3")},
		Reached: true,
	}
	// hopsFromDst = 1: device on the access link (last hop -> dst).
	l1, ok := LinkFromTrace(r, 1)
	if !ok || l1.Before != mk("3.3.3.3") || l1.After != r.Dst {
		t.Fatalf("link1 = %v ok=%v", l1, ok)
	}
	l2, ok := LinkFromTrace(r, 2)
	if !ok || l2.Before != mk("2.2.2.2") || l2.After != mk("3.3.3.3") {
		t.Fatalf("link2 = %v", l2)
	}
	if _, ok := LinkFromTrace(r, 4); ok {
		t.Fatal("out-of-range hop accepted")
	}
	if _, ok := LinkFromTrace(&Result{}, 1); ok {
		t.Fatal("unreached trace accepted")
	}
}

func TestClusterLeafGrouping(t *testing.T) {
	mk := func(s string) netip.Addr { return netip.MustParseAddr(s) }
	c := NewCluster()
	// Two leaf links sharing a before-hop cluster together.
	c.Add(Link{Before: mk("5.5.5.5"), After: mk("10.0.0.1")}, true)
	c.Add(Link{Before: mk("5.5.5.5"), After: mk("10.0.0.2")}, true)
	// A transit link with distinct after-hop stays separate.
	c.Add(Link{Before: mk("5.5.5.5"), After: mk("6.6.6.6")}, false)
	if c.Unique() != 2 {
		t.Fatalf("unique = %d, want 2", c.Unique())
	}
	if m := c.Members(); m[0] != 2 {
		t.Fatalf("members = %v", m)
	}
}

func TestDOTOutput(t *testing.T) {
	mk := func(s string) netip.Addr { return netip.MustParseAddr(s) }
	r := &Result{
		Dst:     mk("10.0.0.9"),
		Hops:    []netip.Addr{mk("1.1.1.1"), mk("2.2.2.2")},
		Reached: true,
	}
	tspu := map[string]bool{EdgeKey(Link{Before: mk("2.2.2.2"), After: mk("10.0.0.9")}): true}
	dot := DOT([]*Result{r}, tspu)
	if !strings.Contains(dot, "color=red") {
		t.Fatal("TSPU link not marked red")
	}
	if !strings.Contains(dot, `"src" -> "1.1.1.1"`) {
		t.Fatalf("dot missing first edge:\n%s", dot)
	}
}
