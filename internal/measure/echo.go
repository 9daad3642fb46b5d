package measure

import (
	"fmt"
	"net/netip"

	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
)

// EchoResult is the Table 4 funnel plus per-endpoint verdicts used by the
// Table 5 correlations.
type EchoResult struct {
	// Funnel counts.
	Discovered, NmapFiltered, TSPUPositive int
	// AS counts at each stage.
	DiscoveredASes, FilteredASes, PositiveASes int
	// Verdicts per tested endpoint.
	Verdicts []EchoVerdict
}

// EchoVerdict is one echo server's outcome.
type EchoVerdict struct {
	Endpoint *topo.Endpoint
	// ControlOK: all control packets (benign SNI) echoed.
	ControlOK bool
	// EchoBlocked: the SNI-II trigger cut the echo stream short.
	EchoBlocked bool
	// IPBlocked: the Tor-node SYN probe came back RST/ACK (IP-based block
	// on path).
	IPBlocked bool
}

// EchoMeasure runs the full §7.2 echo pipeline: ZMap-style discovery of
// port-7 echo servers, the §4 Nmap router/switch filter, and the Quack-style
// trigger test from the Paris machine — whose client port must be 443 for
// the role-reversed trigger to match (the paper's own confirmation of the
// visibility hypothesis). It then correlates with Tor-node IP probes.
func EchoMeasure(lab *topo.Lab, echoPackets int) *EchoResult {
	if echoPackets <= 0 {
		echoPackets = 20
	}
	res := &EchoResult{}

	// Discovery: probe port 7 everywhere (ZMap pass).
	var discovered []*topo.Endpoint
	asSeen := map[int]bool{}
	for _, ep := range lab.Endpoints {
		conn := lab.Paris.Dial(ep.Addr, 7, hostnet.DialOptions{})
		lab.Sim.Run()
		open := conn.State == hostnet.StateEstablished
		conn.Close()
		if open {
			discovered = append(discovered, ep)
			asSeen[ep.AS.Index] = true
		}
	}
	res.Discovered = len(discovered)
	res.DiscoveredASes = len(asSeen)

	// Ethics filter: router/switch labels only (§4).
	var filtered []*topo.Endpoint
	asSeen = map[int]bool{}
	for _, ep := range discovered {
		if ep.NmapLabel == "router" || ep.NmapLabel == "switch" {
			filtered = append(filtered, ep)
			asSeen[ep.AS.Index] = true
		}
	}
	res.NmapFiltered = len(filtered)
	res.FilteredASes = len(asSeen)

	asSeen = map[int]bool{}
	for _, ep := range filtered {
		v := EchoVerdict{Endpoint: ep}
		v.ControlOK = echoTrial(lab, ep, 443, DomainControl, echoPackets) >= echoPackets
		if v.ControlOK {
			got := echoTrial(lab, ep, 443, DomainSNI2, echoPackets)
			v.EchoBlocked = got < echoPackets/2
		}
		v.IPBlocked = torProbe(lab, ep.Addr, 7)
		res.Verdicts = append(res.Verdicts, v)
		if v.EchoBlocked {
			res.TSPUPositive++
			asSeen[ep.AS.Index] = true
		}
	}
	res.PositiveASes = len(asSeen)
	return res
}

// echoTrial opens an echo connection from Paris with client port sport,
// sends the ClientHello, waits for its echo, then streams n packets and
// counts the echoes received. §7.2's trick is sport 443, which makes the
// echoed ClientHello a trigger; 0 takes an ephemeral port, as Censored
// Planet's standard Quack probe does.
func echoTrial(lab *topo.Lab, ep *topo.Endpoint, sport uint16, domain string, n int) int {
	conn := lab.Paris.Dial(ep.Addr, 7, hostnet.DialOptions{SrcPort: sport})
	defer conn.Close()
	ch := CH(domain)
	conn.OnEstablished = func() { conn.Send(ch) }
	lab.Sim.Run()
	echoesBefore := conn.Segments
	for i := 0; i < n; i++ {
		conn.SendRaw(packet.FlagsPSHACK, []byte(fmt.Sprintf("payload-%02d", i)))
		lab.Sim.Run()
	}
	return conn.Segments - echoesBefore
}

// torProbe sends a SYN from the blocked Tor node and reports whether the
// response came back as RST/ACK (the IP-based blocking signature, §7.2).
func torProbe(lab *topo.Lab, addr netip.Addr, port uint16) bool {
	conn := lab.Tor.Dial(addr, port, hostnet.DialOptions{})
	lab.Sim.Run()
	blocked := conn.ResetSeen
	conn.Close()
	return blocked
}

// Table5Echo builds the IP-block vs echo-block contingency matrix.
func (r *EchoResult) Table5Echo() *report.Contingency {
	c := &report.Contingency{Title: "Table 5 (upper): IP blocking vs echo blocking", RowName: "IP", ColName: "Echo"}
	for _, v := range r.Verdicts {
		if !v.ControlOK {
			continue
		}
		c.Add(v.IPBlocked, v.EchoBlocked)
	}
	return c
}

// Render prints the Table 4 funnel.
func (r *EchoResult) Render() *report.Doc {
	t := report.NewTable("Table 4: echo server measurements",
		"", "Echo Servers", "Nmap-filtered", "TSPU-positive")
	t.AddRow("IPs", r.Discovered, r.NmapFiltered, r.TSPUPositive)
	t.AddRow("ASes", r.DiscoveredASes, r.FilteredASes, r.PositiveASes)
	return new(report.Doc).Add(t)
}
