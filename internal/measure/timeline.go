package measure

import (
	"time"

	"tspusim/internal/quicx"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
	"tspusim/internal/workload"
)

// The policy timeline of §2/§5.2, as centrally-pushed phases. What makes
// the TSPU architecture novel is not any single behavior but that these
// transitions happened simultaneously across every ISP in the country —
// that uniform flip is what the replay demonstrates.
//
//	March 2021:   Twitter throttled at ~130 kbps [98]; no QUIC filter.
//	Feb 26 2022:  hard throttling at 600-700 B/s for twitter.com/fbcdn.net.
//	March 4 2022: throttling replaced by SNI-I RST blocking; QUIC v1
//	              filtering begins; wartime news domains blocked.
type TimelinePhase struct {
	Name  string
	Apply func(*tspu.Policy)
}

// TimelinePhases returns the historical policy phases.
func TimelinePhases() []TimelinePhase {
	return []TimelinePhase{
		{
			Name: "2021-03 Twitter throttling (130 kbps policing)",
			Apply: func(p *tspu.Policy) {
				p.ThrottleActive = true
				p.ThrottleRate = 16250 // ~130 kbps in bytes/second
				p.QUICFilter = false
			},
		},
		{
			Name: "2022-02-26 hard throttling (600-700 B/s)",
			Apply: func(p *tspu.Policy) {
				p.ThrottleActive = true
				p.ThrottleRate = 650
				p.QUICFilter = false
			},
		},
		{
			Name: "2022-03-04 RST blocking + QUIC filter",
			Apply: func(p *tspu.Policy) {
				p.ThrottleActive = false
				p.QUICFilter = true
				// Wartime additions: western and independent media join
				// SNI-I ("the day the news died", §2).
				for _, wk := range workload.WellKnownDomains() {
					if wk.SNI1 {
						p.SNI1Domains.Add(wk.Name)
					}
				}
			},
		},
	}
}

// TimelineSample is the measured client experience in one phase.
type TimelineSample struct {
	Phase string
	// TwitterGoodputBps is upstream goodput to a throttle-listed domain.
	TwitterGoodputBps float64
	// TwitterReset reports RST-based blocking.
	TwitterReset bool
	// QUICWorks reports whether a QUIC v1 exchange completes.
	QUICWorks bool
	// MeasuredAt is the virtual time of the sample.
	MeasuredAt time.Duration
}

// TimelineReplay pushes each phase to every device in the country via the
// controller and measures the same client workload under each — all on one
// continuous virtual clock, like a vantage point living through the events.
func TimelineReplay(lab *topo.Lab) []TimelineSample {
	p := VantagePath(lab, topo.ERTelecom)
	serveHello(lab.US1)
	var out []TimelineSample
	for _, phase := range TimelinePhases() {
		lab.Controller.Update(phase.Apply)
		s := TimelineSample{Phase: phase.Name}

		// Goodput probe against the throttled/blocked domain. Offer ~30 kB/s
		// so the 2021 policing level (16.25 kB/s) is visible as a cap rather
		// than hiding below the offered load.
		s.TwitterGoodputBps = uploadGoodput(p, DomainThrottle, 50, 3000)

		s.TwitterReset = chReset(p, DomainThrottle)
		s.QUICWorks = udpDelivered(p, 443, quicx.BuildInitial(quicx.Version1, 1200), []byte("follow-up")) == 2
		s.MeasuredAt = lab.Sim.Now()
		out = append(out, s)

		// Let blocking state from this phase drain before the next: the
		// longest hold is 480 s.
		lab.Sim.RunUntil(lab.Sim.Now() + 10*time.Minute)
	}
	return out
}

// RenderTimeline prints the replay.
func RenderTimeline(samples []TimelineSample) *report.Doc {
	doc := new(report.Doc).Text("== Policy timeline replay: one vantage living through 2021-2022 ==\n")
	for _, s := range samples {
		doc.Textf("%s\n  twitter goodput: %8.0f B/s   RST-blocked: %-5v   QUIC v1 works: %v\n",
			s.Phase, s.TwitterGoodputBps, s.TwitterReset, s.QUICWorks)
	}
	return doc.Text("paper: policing at 130 kbps (2021) -> 600-700 B/s (Feb 26) -> RST + QUIC filter (Mar 4)\n")
}
