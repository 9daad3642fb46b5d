package measure

import (
	"fmt"
	"time"

	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/quicx"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/trace"
	"tspusim/internal/tspu"
)

// BehaviorTraces reproduces Fig. 2: a packet-level trace of each blocking
// behavior, captured at the client side (what a Russian user's tcpdump would
// show). Packet lines carry no stats; each behavior's bracketed summary does.
func BehaviorTraces(lab *topo.Lab) *report.Doc {
	doc := new(report.Doc)
	v := vantageOf(lab, topo.ERTelecom)

	step := func(format string, args ...any) { doc.Textf("  "+format+"\n", args...) }
	run := func(title string, script func()) {
		doc.Textf("--- %s ---\n", title)
		script()
		doc.Text("\n")
	}

	lab.US1.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) {
			c.Send([]byte("SERVERHELLO....."))
			c.Send([]byte("CERTIFICATE....."))
		},
	})

	connTrace := func(domain string) {
		conn := v.Stack.Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
		step("-> SYN")
		conn.OnPacket = func(p *packet.Packet) {
			step("<- %s%s", p.TCP.Flags.String(), payloadNote(p))
		}
		conn.OnEstablished = func() {
			step("-> ACK")
			step("-> ClientHello (SNI=%s)", domain)
			conn.Send(CH(domain))
		}
		lab.Sim.Run()
		conn.Close()
	}

	run("SNI-Based (I): RST/ACK rewriting ("+DomainSNI1+")", func() {
		connTrace(DomainSNI1)
	})
	run("SNI-Based (II): allowance then symmetric drops ("+DomainSNI2+")", func() {
		connTrace(DomainSNI2)
		f := NewFlow(VantagePath(lab, topo.ERTelecom), 443)
		defer f.Close()
		f.Handshake()
		f.L(packet.FlagsPSHACK, CH(DomainSNI2))
		step("   [raw flow: %d of %d post-trigger packets delivered, then symmetric drops]",
			f.markersDelivered(), markers)
	})
	run("SNI-Based (IV): split handshake backup drop ("+DomainSNI14+")", func() {
		us2 := lab.US2.Listen(443, hostnet.ListenOptions{SplitHandshake: true})
		conn := v.Stack.Dial(lab.US2.Addr(), 443, hostnet.DialOptions{})
		step("-> SYN")
		conn.OnPacket = func(p *packet.Packet) {
			step("<- %s", p.TCP.Flags.String())
		}
		conn.OnEstablished = func() {
			step("-> ClientHello (SNI=%s)", DomainSNI14)
			conn.Send(CH(DomainSNI14))
		}
		lab.Sim.Run()
		delivered := false
		for _, sc := range us2.Conns {
			if sc.RemotePort == conn.LocalPort && len(sc.Received) > 0 {
				delivered = true
			}
		}
		step("   [ClientHello delivered to server: %v — backup drops everything]", delivered)
		conn.Close()
	})
	run("IP-Based: outgoing dropped, inbound responses rewritten", func() {
		conn := v.Stack.Dial(lab.TorAddr, 9001, hostnet.DialOptions{})
		lab.Sim.Run()
		step("-> SYN to blocked IP")
		step("   [replies received: %d — dropped at the TSPU]", len(conn.Packets))
		conn.Close()
	})
	run("QUIC: v1 initial triggers full drop", func() {
		got := udpDelivered(VantagePath(lab, topo.ERTelecom), 443,
			quicx.BuildInitial(quicx.Version1, 1200), []byte("second"), []byte("third"))
		step("-> QUIC v1 Initial (1200 bytes)")
		step("-> two follow-up datagrams")
		step("   [server received %d of 3 — everything after the trigger drops]", got)
	})
	return doc
}

func payloadNote(p *packet.Packet) string {
	if len(p.TCP.Payload) > 0 {
		return fmt.Sprintf(" len=%d", len(p.TCP.Payload))
	}
	return ""
}

// FragBehaviorTrace reproduces Fig. 3: fragments buffered at the device,
// released together after the last arrives, TTLs rewritten. The per-fragment
// lines carry no stats: a position in the trace is not a stable key.
func FragBehaviorTrace(lab *topo.Lab) *report.Doc {
	doc := new(report.Doc).Text("== Fig. 3: TSPU handling of IP fragmentation ==\n")
	v := vantageOf(lab, topo.ERTelecom)
	type arrival struct {
		at  time.Duration
		ttl uint8
		off uint16
	}
	var arrivals []arrival
	lab.US1.Tap(func(p *packet.Packet) {
		if p.IsFragment() || p.IP.FragOffset != 0 {
			arrivals = append(arrivals, arrival{lab.Sim.Now(), p.IP.TTL, p.IP.FragOffset})
		} else if p.TCP == nil {
			arrivals = append(arrivals, arrival{lab.Sim.Now(), p.IP.TTL, 0})
		}
	})
	defer lab.US1.ClearTaps()

	p := packet.NewTCP(v.Stack.Addr(), lab.US1.Addr(), v.Stack.EphemeralPort(), 7547, packet.FlagSYN, 1, 0, nil)
	p.IP.ID = v.Stack.NextIPID()
	frags, err := packet.FragmentCount(p, 3)
	if err != nil {
		return doc.Text(err.Error())
	}
	frags[1].IP.TTL = 33 // distinct TTLs show the rewrite
	frags[2].IP.TTL = 21
	base := lab.Sim.Now()
	for i, f := range frags {
		f := f
		sent := time.Duration(i) * 50 * time.Millisecond
		doc.Text(fmt.Sprintf("t=%3dms send fragment[%d] offset=%d ttl=%d\n", sent/time.Millisecond, i, f.IP.FragOffset, f.IP.TTL))
		lab.Sim.After(sent, func() { v.Stack.Send(f) })
	}
	lab.Sim.Run()
	for i, a := range arrivals {
		doc.Text(fmt.Sprintf("t=%3dms recv fragment[%d] offset=%d ttl=%d\n",
			(a.at-base)/time.Millisecond, i, a.off, a.ttl))
	}
	if len(arrivals) == 3 && arrivals[0].ttl == arrivals[1].ttl && arrivals[1].ttl == arrivals[2].ttl {
		doc.Text("all fragments released together after the last arrived, TTLs rewritten to the first fragment's\n")
	}
	return doc
}

// ThrottleResult is the SNI-III measurement.
type ThrottleResult struct {
	// GoodputBps is the throttled goodput.
	GoodputBps float64
	// ControlBps is the un-throttled goodput of the same workload.
	ControlBps float64
}

// ThrottleMeasure activates the Feb 26 - Mar 4 throttling policy and
// measures upstream goodput for a throttled domain vs a control.
func ThrottleMeasure(lab *topo.Lab) ThrottleResult {
	lab.Controller.Update(func(p *tspu.Policy) { p.ThrottleActive = true })
	defer lab.Controller.Update(func(p *tspu.Policy) { p.ThrottleActive = false })
	p := VantagePath(lab, topo.ERTelecom)
	// 10 seconds of 1000-byte sends every 100ms.
	return ThrottleResult{
		GoodputBps: uploadGoodput(p, DomainThrottle, 100, 1000),
		ControlBps: uploadGoodput(p, DomainControl, 100, 1000),
	}
}

// uploadGoodput opens a flow over p, triggers it with a ClientHello for
// domain, then offers sends payloads of size bytes, one every 100 ms, and
// returns the upstream goodput that reached the remote in bytes per second.
func uploadGoodput(p Path, domain string, sends, size int) float64 {
	f := NewFlow(p, 443)
	defer f.Close()
	f.Handshake()
	f.L(packet.FlagsPSHACK, CH(domain))
	start := p.Sim.Now()
	base := len(f.RemoteGot)
	for i := 0; i < sends; i++ {
		f.Sleep(100 * time.Millisecond)
		f.L(packet.FlagsPSHACK, make([]byte, size))
	}
	received := 0
	for _, a := range f.RemoteGot[base:] {
		received += a.Len
	}
	return float64(received) / (p.Sim.Now() - start).Seconds()
}

// Render lays out the throttling comparison.
func (r ThrottleResult) Render() *report.Doc {
	return new(report.Doc).
		Text("== SNI-III throttling (Feb 26 - Mar 4 2022 policy) ==\n").
		Textf("throttled goodput: %8.0f B/s (paper: 600-700 B/s)\n", r.GoodputBps).
		Textf("control goodput:   %8.0f B/s\n", r.ControlBps).
		Textf("slowdown:          %8.1fx\n", r.ControlBps/r.GoodputBps)
}

// TracerouteStudy reproduces Fig. 10-12: traceroutes to every TSPU-positive
// endpoint, TSPU-link extraction via the fragment localization, clustering,
// and DOT export.
type TracerouteStudy struct {
	Traces      []*trace.Result
	Cluster     *trace.Cluster
	UniqueLinks int
	DOT         string
}

// RunTracerouteStudy consumes a prior FragScan (with localization) and maps
// every positive endpoint's TSPU link.
func RunTracerouteStudy(lab *topo.Lab, scan *FragScanResult) *TracerouteStudy {
	study := &TracerouteStudy{Cluster: trace.NewCluster()}
	tspuEdges := map[string]bool{}
	for _, v := range scan.Verdicts {
		if !v.TSPULike || v.LocalizedHops == 0 {
			continue
		}
		tr := trace.Traceroute(lab.Sim, lab.Paris, v.Endpoint.Addr, v.Endpoint.Port, 32)
		study.Traces = append(study.Traces, tr)
		link, ok := trace.LinkFromTrace(tr, v.LocalizedHops)
		if !ok {
			continue
		}
		study.Cluster.Add(link, v.LocalizedHops == 1)
		tspuEdges[trace.EdgeKey(link)] = true
	}
	study.UniqueLinks = study.Cluster.Unique()
	study.DOT = trace.DOT(study.Traces, tspuEdges)
	return study
}

// Render summarizes the study (Fig. 10's caption numbers).
func (s *TracerouteStudy) Render(scale float64) *report.Doc {
	t := report.NewTable("Fig. 10/11: traceroutes with TSPU links",
		"Metric", "Value", "Paper")
	t.AddRow("traceroutes with TSPU on path", len(s.Traces), "> 1M")
	t.AddRow("unique TSPU links", s.UniqueLinks, "6,871")
	t.AddRow("unique links (paper scale)", int(float64(s.UniqueLinks)*scale), "")
	sizes := s.Cluster.Members()
	if len(sizes) > 0 {
		t.AddRow("largest shared link serves", report.Numf("%.0f endpoints", float64(sizes[0])), "censorship-as-a-service (Fig. 11)")
	}
	return new(report.Doc).Add(t)
}
