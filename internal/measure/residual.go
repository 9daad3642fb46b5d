package measure

import (
	"time"

	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
)

// ResidualResult validates the §3 methodology requirement: "each test used
// a fresh source port on Russian vantage points to prevent residual
// censorship affecting results of subsequent tests". The blocking state is
// keyed per flow, so a control connection reusing the previous test's port
// inherits its censorship — a classic measurement confound the experiment
// quantifies.
type ResidualResult struct {
	// ReusedPortBlocked: a benign connection on the same 4-tuple right
	// after a trigger still sees blocking.
	ReusedPortBlocked bool
	// FreshPortBlocked: a benign connection on a fresh port does not.
	FreshPortBlocked bool
	// ReusedAfterExpiry: the reused port still sees blocking 80 s later
	// (false once the 75 s SNI-I hold lapses).
	ReusedAfterExpiry bool
}

// ResidualCensorship runs the three probes from ER-Telecom with an SNI-I
// trigger.
func ResidualCensorship(lab *topo.Lab) ResidualResult {
	return residual(VantagePath(lab, topo.ERTelecom), DomainSNI1)
}

// residual is the §3 triple over any path: trigger with domain on one port,
// then run a benign connection on the same 4-tuple, on a fresh port, and on
// the same 4-tuple again after 80 s.
func residual(p Path, domain string) ResidualResult {
	trig := NewFlow(p, 443)
	trig.Handshake()
	trig.L(packet.FlagsPSHACK, CH(domain))
	trig.Close()
	port := trig.LPort

	benignBlocked := func(lport uint16) bool {
		f := newFlowAt(p, lport, 443)
		defer f.Close()
		f.Handshake()
		f.L(packet.FlagsPSHACK, CH(DomainControl))
		return f.downstreamRST()
	}
	var res ResidualResult
	res.ReusedPortBlocked = benignBlocked(port)
	res.FreshPortBlocked = benignBlocked(p.Local.EphemeralPort())
	p.Sim.RunUntil(p.Sim.Now() + 80*time.Second)
	res.ReusedAfterExpiry = benignBlocked(port)
	return res
}

// Render prints the methodology check.
func (r ResidualResult) Render() *report.Doc {
	return new(report.Doc).
		Text("== Residual censorship (§3 methodology) ==\n").
		Textf("benign retry on the triggering port:      blocked=%v (residual state)\n", r.ReusedPortBlocked).
		Textf("benign retry on a fresh port:             blocked=%v\n", r.FreshPortBlocked).
		Textf("triggering port after the 75s hold:       blocked=%v\n", r.ReusedAfterExpiry).
		Text("paper: tests must use fresh source ports; blocking state is per-flow and expires\n")
}
