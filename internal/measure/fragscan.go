package measure

import (
	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/trace"
)

// fragProbe sends a SYN to the remote's port over p, split into n
// fragments, and reports whether a SYN/ACK came back. secondTTL, when
// nonzero, is the TTL of every fragment after the first: the TTL-limited
// localization variant.
func fragProbe(p Path, port uint16, n int, secondTTL uint8) bool {
	st, addr := p.Local, p.Remote.Addr()
	sport := st.EphemeralPort()
	got := false
	st.RawBind(sport, func(pkt *packet.Packet) {
		if pkt.TCP != nil && pkt.TCP.Flags.Has(packet.FlagsSYNACK) && pkt.IP.Src == addr {
			got = true
		}
	})
	defer st.RawUnbind(sport)
	syn := packet.NewTCP(st.Addr(), addr, sport, port, packet.FlagSYN, 1, 0, nil)
	syn.IP.ID = st.NextIPID()
	frags, err := packet.FragmentCount(syn, n)
	if err != nil {
		return false
	}
	if secondTTL != 0 {
		for i := 1; i < len(frags); i++ {
			frags[i].IP.TTL = secondTTL
		}
	}
	for _, f := range frags {
		st.Send(f)
	}
	p.Sim.Run()
	return got
}

// plainProbe sends an ordinary SYN to the remote's port over p and reports
// whether it was answered.
func plainProbe(p Path, port uint16) bool {
	conn := p.Local.Dial(p.Remote.Addr(), port, hostnet.DialOptions{})
	p.Sim.Run()
	ok := len(conn.Packets) > 0 && !conn.ResetSeen
	conn.Close()
	return ok
}

// FragVerdict is one endpoint's fragmentation-scan outcome.
type FragVerdict struct {
	Endpoint *topo.Endpoint
	// Responsive: passed the control probes (plain SYN and a 2-fragment SYN).
	Responsive bool
	// TSPULike: answered 45 fragments but not 46 (§7.2's fingerprint).
	TSPULike bool
	// IPBlocked: the Tor SYN probe returned RST/ACK.
	IPBlocked bool
	// LocalizedHops is the device distance from the destination in links
	// (0 = not localized).
	LocalizedHops int
}

// FragScanResult is the §7.2 remote scan output (Fig. 9, Fig. 12, Table 5
// lower).
type FragScanResult struct {
	Verdicts []FragVerdict
	// PortTotals / PortPositive mirror Fig. 9's bars.
	PortTotals   map[uint16]int
	PortPositive map[uint16]int
	// ASes counts.
	TotalASes, PositiveASes int
	// HopHist is the Fig. 12 histogram (device distance from destination).
	HopHist *report.Hist
}

// FragScan runs the fingerprint over the endpoint population from the Paris
// machine. withTor additionally runs the Tor correlation probes; localize
// additionally runs TTL-limited localization on positives.
func FragScan(lab *topo.Lab, withTor, localize bool) *FragScanResult {
	res := &FragScanResult{
		PortTotals:   make(map[uint16]int),
		PortPositive: make(map[uint16]int),
		HopHist:      report.NewHist("Fig. 12: TSPU link distance from destination (hops)"),
	}
	totalAS := map[int]bool{}
	posAS := map[int]bool{}
	for _, ep := range lab.Endpoints {
		v := FragVerdict{Endpoint: ep}
		res.PortTotals[ep.Port]++
		totalAS[ep.AS.Number] = true
		// Control: must answer plain and 2-fragment SYNs (the paper removed
		// endpoints failing these before testing).
		p := Path{Sim: lab.Sim, Local: lab.Paris, Remote: ep.Stack()}
		v.Responsive = plainProbe(p, ep.Port) && fragProbe(p, ep.Port, 2, 0)
		if v.Responsive {
			r45 := fragProbe(p, ep.Port, 45, 0)
			r46 := fragProbe(p, ep.Port, 46, 0)
			v.TSPULike = r45 && !r46
		}
		if v.TSPULike {
			res.PortPositive[ep.Port]++
			posAS[ep.AS.Number] = true
			if localize {
				v.LocalizedHops = fragLocalize(p, ep.Port)
				if v.LocalizedHops > 0 {
					res.HopHist.Add(v.LocalizedHops)
				}
			}
		}
		if withTor {
			v.IPBlocked = torProbe(lab, ep.Addr, ep.Port)
		}
		res.Verdicts = append(res.Verdicts, v)
	}
	res.TotalASes = len(totalAS)
	res.PositiveASes = len(posAS)
	return res
}

// fragLocalize finds the TSPU device's position: the first fragment goes at
// full TTL, the second at increasing TTLs; the response appears once the
// second fragment survives to the device, which then rewrites its TTL to the
// first fragment's (Fig. 3). Returns the device distance from the
// destination in hops, derived from the probe TTL and the path length.
func fragLocalize(p Path, port uint16) int {
	// A plain (unfragmented) traceroute counts the routers on the path.
	tr := trace.Traceroute(p.Sim, p.Local, p.Remote.Addr(), port, 32)
	pathLen := tr.HopCount()
	if !tr.Reached || pathLen == 0 {
		return 0
	}
	for ttl := 1; ttl <= pathLen+1; ttl++ {
		if fragProbe(p, port, 2, uint8(ttl)) {
			// The probe's second fragment died at router `ttl` until now, so
			// the device link follows router ttl-1 (source side). Convert to
			// distance from the destination.
			return pathLen - ttl + 2
		}
	}
	return 0
}

// Table5Frag builds the IP-block vs fragment-fingerprint contingency.
func (r *FragScanResult) Table5Frag() *report.Contingency {
	c := &report.Contingency{Title: "Table 5 (lower): IP blocking vs fragmentation fingerprint", RowName: "IP", ColName: "Fragment"}
	for _, v := range r.Verdicts {
		if !v.Responsive {
			continue
		}
		c.Add(v.IPBlocked, v.TSPULike)
	}
	return c
}

// Render prints the Fig. 9 port breakdown.
func (r *FragScanResult) Render(scale float64) *report.Doc {
	t := report.NewTable("Fig. 9: endpoints with TSPU installations by port",
		"Port", "Endpoints", "TSPU-like", "Rate", "Paper-scale endpoints")
	total, pos := 0, 0
	for _, port := range topo.ScanPorts {
		n, p := r.PortTotals[port], r.PortPositive[port]
		total += n
		pos += p
		rate := 0.0
		if n > 0 {
			rate = float64(p) / float64(n)
		}
		t.AddRow(port, n, p, report.Numf("%.1f%%", 100*rate), int(float64(n)*scale))
	}
	return new(report.Doc).Add(t).
		Textf("total: %d/%d endpoints TSPU-like (%.2f%%; paper: 25.31%%), %d/%d ASes (paper: 650/4986)\n",
			pos, total, 100*float64(pos)/float64(max(total, 1)), r.PositiveASes, r.TotalASes)
}

// USValidation scans a US control population for TSPU-like fragment
// behavior, reproducing the 0.708% finding.
type USValidation struct {
	Total, TSPULike int
}

// ValidateUS runs the fingerprint against lab-built US endpoints.
func ValidateUS(lab *topo.Lab, eps []*topo.USEndpoint) USValidation {
	var res USValidation
	for _, ep := range eps {
		res.Total++
		p := Path{Sim: lab.Sim, Local: lab.US2, Remote: ep.Stack}
		if !plainProbe(p, 7547) {
			continue
		}
		r45 := fragProbe(p, 7547, 45, 0)
		r46 := fragProbe(p, 7547, 46, 0)
		if r45 && !r46 {
			res.TSPULike++
		}
	}
	return res
}

// LargeASStats reproduces the §7.3 sentence: "among the 85 ASes that we
// have at least 5,000 testing targets in, over 75% of them contain endpoints
// that are behind TSPU installations." The threshold scales with the lab.
type LargeASStats struct {
	Threshold     int
	LargeASes     int
	WithTSPU      int
	FractionTSPU  float64
	OverallASFrac float64
}

// LargeAS computes the statistic from a scan; threshold is the minimum
// endpoints per AS to count it as "large" (the paper's 5,000, scaled).
func (r *FragScanResult) LargeAS(threshold int) LargeASStats {
	perAS := map[int]int{}
	posAS := map[int]bool{}
	for _, v := range r.Verdicts {
		perAS[v.Endpoint.AS.Number]++
		if v.TSPULike {
			posAS[v.Endpoint.AS.Number] = true
		}
	}
	st := LargeASStats{Threshold: threshold}
	for as, n := range perAS {
		if n >= threshold {
			st.LargeASes++
			if posAS[as] {
				st.WithTSPU++
			}
		}
	}
	if st.LargeASes > 0 {
		st.FractionTSPU = float64(st.WithTSPU) / float64(st.LargeASes)
	}
	if len(perAS) > 0 {
		st.OverallASFrac = float64(len(posAS)) / float64(len(perAS))
	}
	return st
}

// Render prints the statistic.
func (s LargeASStats) Render() *report.Doc {
	return new(report.Doc).
		Textf("large ASes (>= %d targets): %d, with TSPU: %d (%.0f%%; paper: >75%% of 85 large ASes)\n",
			s.Threshold, s.LargeASes, s.WithTSPU, 100*s.FractionTSPU).
		Textf("all ASes with TSPU-like behavior: %.1f%% (paper: 12.8%%)\n", 100*s.OverallASFrac)
}
