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
	// ReusedAfterExpiry: the same reused port is clean once the 75 s SNI-I
	// hold lapses.
	ReusedAfterExpiry bool
}

// ResidualCensorship runs the three probes from a vantage.
func ResidualCensorship(lab *topo.Lab) ResidualResult {
	v := vantageOf(lab, topo.ERTelecom)
	var res ResidualResult

	benignProbe := func(port uint16) bool {
		f := NewFlow(lab, v.Stack, lab.US1, 443)
		// Pin the port by rebinding the flow's local port.
		f.Close()
		f = &Flow{sim: lab.Sim, Local: v.Stack, Remote: lab.US1, LPort: port, RPort: 443}
		f.lseq, f.rseq = 1000, 5000
		v.Stack.RawBind(port, func(p *packet.Packet) { f.LocalGot = append(f.LocalGot, p) })
		lab.US1.RawBind(443, func(p *packet.Packet) {
			if p.TCP.SrcPort == port {
				f.RemoteGot = append(f.RemoteGot, p)
			}
		})
		defer f.Close()
		f.L(packet.FlagSYN, nil)
		f.R(packet.FlagsSYNACK, nil)
		f.L(packet.FlagACK, nil)
		f.L(packet.FlagsPSHACK, CH(DomainControl)) // benign SNI
		f.R(packet.FlagsPSHACK, []byte("SERVERHELLO"))
		return f.LastLocalRST()
	}

	// Trigger on a specific port.
	port := v.Stack.EphemeralPort()
	fTrig := &Flow{sim: lab.Sim, Local: v.Stack, Remote: lab.US1, LPort: port, RPort: 443, lseq: 1000, rseq: 5000}
	v.Stack.RawBind(port, func(p *packet.Packet) { fTrig.LocalGot = append(fTrig.LocalGot, p) })
	lab.US1.RawBind(443, func(p *packet.Packet) {})
	fTrig.L(packet.FlagSYN, nil)
	fTrig.R(packet.FlagsSYNACK, nil)
	fTrig.L(packet.FlagACK, nil)
	fTrig.L(packet.FlagsPSHACK, CH(DomainSNI1))
	fTrig.Close()

	res.ReusedPortBlocked = benignProbe(port)
	res.FreshPortBlocked = benignProbe(v.Stack.EphemeralPort())
	// After the 75 s SNI-I hold, the reused port is clean again.
	lab.Sim.RunUntil(lab.Sim.Now() + 80*time.Second)
	res.ReusedAfterExpiry = benignProbe(port)
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
