package measure

import (
	"fmt"

	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
)

// ObservatoryResult reproduces the §5.3.2 finding that motivated the
// paper's new techniques: because TSPU blocking only triggers on
// locally-originated connections, remote platforms in the Censored Planet
// style (probes originated outside Russia) cannot see out-registry blocking
// at all, while in-country OONI-style web-connectivity tests report it as
// anomalies ("over 70% of web connectivity tests" for play.google.com).
type ObservatoryResult struct {
	// Rates[class][platform] is the anomaly rate.
	Rates map[string]map[string]float64
	// Trials per cell.
	Trials int
}

// Platform labels.
const (
	PlatformOONI = "ooni (in-country)"
	PlatformCP   = "censoredplanet (remote echo)"
)

// ObservatoryComparison tests three domain classes from both perspectives.
func ObservatoryComparison(lab *topo.Lab, trials int) *ObservatoryResult {
	if trials <= 0 {
		trials = 20
	}
	res := &ObservatoryResult{Trials: trials, Rates: make(map[string]map[string]float64)}
	serveHello(lab.US1)
	v := vantageOf(lab, topo.ERTelecom)

	// An in-country echo host for the Censored Planet style probe: remote
	// machine connects in and bounces the CH back out.
	var echoEp *topo.Endpoint
	for _, ep := range lab.Endpoints {
		// A clean echo server: CP's baseline methodology doesn't rely on
		// upstream-only devices (that was this paper's novel trick).
		if ep.Echo && !ep.BehindTSPU && !ep.BehindUpstreamOnly {
			echoEp = ep
			break
		}
	}

	classes := map[string]string{
		"out-registry (SNI-II)": DomainSNI2,
		"registry (SNI-I)":      DomainSNI1,
		"control":               DomainControl,
	}
	for class, domain := range classes {
		res.Rates[class] = make(map[string]float64)

		// OONI style: fetch from the vantage, anomaly = reset or no body.
		anomalies := 0
		for i := 0; i < trials; i++ {
			conn := v.Stack.Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
			ch := CH(domain)
			conn.OnEstablished = func() { conn.Send(ch) }
			lab.Sim.Run()
			blocked := conn.ResetSeen || len(conn.Received) == 0
			if domain == DomainSNI2 {
				// SNI-II lets the first response through; an OONI web test
				// fails on the truncated page body that follows. Emulate by
				// probing continued transfer.
				before := conn.Segments
				for j := 0; j < 10; j++ {
					conn.SendRaw(packet.FlagsPSHACK, []byte("GET /next"))
					lab.Sim.Run()
				}
				blocked = conn.Segments-before < 10
			}
			if blocked {
				anomalies++
			}
			conn.Close()
		}
		res.Rates[class][PlatformOONI] = float64(anomalies) / float64(trials)

		// Censored Planet style: Quack echo from the Paris machine using an
		// ordinary ephemeral source port. The echoed CH leaves Russia toward
		// a non-443 port on a remotely-originated flow, so nothing triggers.
		anomalies = 0
		if echoEp != nil {
			for i := 0; i < trials; i++ {
				got := echoTrial(lab, echoEp, 0, domain, 10)
				if got < 10 {
					anomalies++
				}
			}
			res.Rates[class][PlatformCP] = float64(anomalies) / float64(trials)
		}
	}
	return res
}

// Render prints the platform comparison.
func (r *ObservatoryResult) Render() *report.Doc {
	t := report.NewTable(
		fmt.Sprintf("Observatory comparison (§5.3.2): anomaly rates, %d trials/cell", r.Trials),
		"Domain class", PlatformOONI, PlatformCP)
	for _, class := range []string{"out-registry (SNI-II)", "registry (SNI-I)", "control"} {
		t.AddRow(class,
			report.Numf("%.0f%%", 100*r.Rates[class][PlatformOONI]),
			report.Numf("%.0f%%", 100*r.Rates[class][PlatformCP]))
	}
	return new(report.Doc).Add(t).
		Text("paper: OONI reports >70% anomalies for play.google.com; Censored Planet cannot detect it\n")
}
