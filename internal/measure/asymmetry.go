package measure

import (
	"net/netip"

	"tspusim/internal/hostnet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/trace"
)

// AsymmetryResult is the §7.1.1 observation that motivated the
// partial-visibility experiments: "asymmetric routing is common in Russia:
// on all three vantage points, our upstream and downstream traffic would
// traverse different hops". The check runs TCP traceroutes in both
// directions and compares the hop sets — the method the paper used to
// support its upstream-only findings.
type AsymmetryResult struct {
	// Rows per vantage.
	Rows []AsymmetryRow
}

// AsymmetryRow is one vantage's bidirectional comparison.
type AsymmetryRow struct {
	Vantage string
	// ForwardHops / ReverseHops are the router addresses seen in each
	// direction (reverse list is destination→vantage).
	ForwardHops, ReverseHops []netip.Addr
	// Asymmetric reports whether the reverse path traverses routers the
	// forward path never touched.
	Asymmetric bool
}

// RoutingAsymmetry measures both directions between each vantage and the
// US measurement machine.
func RoutingAsymmetry(lab *topo.Lab) *AsymmetryResult {
	res := &AsymmetryResult{}
	lab.US1.Listen(80, hostnet.ListenOptions{})
	for _, name := range []string{topo.Rostelecom, topo.ERTelecom, topo.OBIT} {
		v := lab.Vantages[name]
		fwd := trace.Traceroute(lab.Sim, v.Stack, lab.US1.Addr(), 80, 24)
		// Reverse: the US machine traceroutes back to the vantage. The
		// vantage must answer TCP probes; any unused port gets an RST,
		// which marks arrival just as well.
		rev := trace.Traceroute(lab.Sim, lab.US1, v.Stack.Addr(), 19999, 24)

		row := AsymmetryRow{Vantage: name, ForwardHops: fwd.Hops, ReverseHops: rev.Hops}
		// Compare at the address level, exactly what traceroute shows: a
		// parallel link pair puts the same routers on both paths but the
		// ICMP sources come from different interfaces. Alias resolution
		// would merge them — the paper deliberately did not alias-resolve
		// (§7.3), and neither do we. The vantage-side access hop always
		// appears in both; everything beyond may differ.
		fwdAddrs := map[netip.Addr]bool{}
		for _, h := range fwd.Hops {
			fwdAddrs[h] = true
		}
		for _, h := range rev.Hops {
			if !h.IsValid() || fwdAddrs[h] {
				continue
			}
			// Directionality artifact 1: the far side of a wire the forward
			// path traversed (traceroute reports arriving interfaces, so
			// the same link shows different addresses per direction).
			if sharesLinkWithForward(lab, h, fwdAddrs) {
				continue
			}
			// Directionality artifact 2: the access link of either endpoint
			// host — the forward path terminates at it instead of
			// traversing it.
			if onHostAccessLink(lab, h) {
				continue
			}
			// A genuinely different wire: link-level or path-level
			// asymmetry, which is what lets upstream-only TSPU installs see
			// half a connection (§7.1.1).
			row.Asymmetric = true
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// sharesLinkWithForward reports whether addr sits on a link whose opposite
// interface the forward path reported — i.e. the same wire seen from the
// other end.
func sharesLinkWithForward(lab *topo.Lab, addr netip.Addr, fwd map[netip.Addr]bool) bool {
	for _, l := range lab.Net.Links() {
		if l.A().Addr() == addr && fwd[l.B().Addr()] {
			return true
		}
		if l.B().Addr() == addr && fwd[l.A().Addr()] {
			return true
		}
	}
	return false
}

// onHostAccessLink reports whether addr sits on a link that terminates at a
// non-router (an endpoint's access link).
func onHostAccessLink(lab *topo.Lab, addr netip.Addr) bool {
	for _, l := range lab.Net.Links() {
		if l.A().Addr() == addr && !l.B().Node().IsRouter() {
			return true
		}
		if l.B().Addr() == addr && !l.A().Node().IsRouter() {
			return true
		}
	}
	return false
}

// Render prints the comparison.
func (r *AsymmetryResult) Render() *report.Doc {
	t := report.NewTable("Routing asymmetry (§7.1.1): bidirectional TCP traceroutes",
		"Vantage", "Fwd hops", "Rev hops", "Asymmetric")
	for _, row := range r.Rows {
		t.AddRow(row.Vantage, len(row.ForwardHops), len(row.ReverseHops), row.Asymmetric)
	}
	doc := new(report.Doc).Add(t)
	for _, row := range r.Rows {
		if row.Asymmetric {
			doc.Textf("%s: reverse path traverses routers the forward path never touched\n", row.Vantage)
		}
	}
	return doc.Text("paper: upstream and downstream traffic traverse different hops on all three vantages\n")
}
