package measure

import (
	"fmt"
	"net/netip"

	"tspusim/internal/dnsx"
	"tspusim/internal/hostnet"
	"tspusim/internal/httpx"
	"tspusim/internal/ispdpi"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/workload"
)

// WebVerdict classifies one OONI-style web connectivity test.
type WebVerdict int

// Verdicts, ordered roughly by protocol layer.
const (
	// WebOK: DNS, TCP, TLS, and HTTP all behaved.
	WebOK WebVerdict = iota
	// WebDNSBlockpage: the ISP resolver answered with its blockpage (the
	// pre-2019 decentralized mechanism).
	WebDNSBlockpage
	// WebDNSFailure: no usable DNS answer.
	WebDNSFailure
	// WebTLSReset: the TLS handshake died on an injected RST (SNI-I).
	WebTLSReset
	// WebHTTPAnomaly: HTTP connected but the transfer failed or truncated.
	WebHTTPAnomaly
)

func (v WebVerdict) String() string {
	switch v {
	case WebOK:
		return "ok"
	case WebDNSBlockpage:
		return "dns-blockpage"
	case WebDNSFailure:
		return "dns-failure"
	case WebTLSReset:
		return "tls-reset"
	case WebHTTPAnomaly:
		return "http-anomaly"
	}
	return "?"
}

// WebTest is one domain's outcome.
type WebTest struct {
	Domain  string
	Verdict WebVerdict
	// BlockpageISP is the fingerprinted ISP when Verdict is WebDNSBlockpage.
	BlockpageISP string
	// Resolved is the answered address.
	Resolved netip.Addr
}

// WebConnectivityResult aggregates a run.
type WebConnectivityResult struct {
	Vantage string
	Tests   []WebTest
}

// WebConnectivity runs the full layered test from a vantage for each
// domain: ISP DNS resolution (with blockpage fetch + fingerprint when the
// answer looks censored), then a TLS ClientHello to the resolved address,
// then an HTTP fetch. It reproduces what a Russian OONI probe measures:
// ISP-level DNS censorship and TSPU-level SNI censorship layered on the
// same sites (§6.2/§6.3).
func WebConnectivity(lab *topo.Lab, vantage string, domains []workload.Domain) *WebConnectivityResult {
	v := vantageOf(lab, vantage)
	res := &WebConnectivityResult{Vantage: vantage}
	dns := dnsx.NewClient(v.Stack, v.ResolverAddr)
	web := &httpx.Client{Stack: v.Stack, Run: lab.Sim.Run}

	for _, d := range domains {
		t := WebTest{Domain: d.Name}
		var answer netip.Addr
		dns.Lookup(d.Name, func(m *dnsx.Message) {
			if len(m.Answers) > 0 {
				answer = m.Answers[0].Addr
			}
		})
		lab.Sim.Run()
		if !answer.IsValid() {
			t.Verdict = WebDNSFailure
			res.Tests = append(res.Tests, t)
			continue
		}
		t.Resolved = answer

		// Fetch over HTTP first: a blockpage answer serves the ISP's page.
		got := web.Get(answer, 80, d.Name, "/")
		if got.Response != nil {
			if isp, ok := ispdpi.FingerprintBlockpage(got.Response.Body); ok {
				t.Verdict = WebDNSBlockpage
				t.BlockpageISP = isp
				res.Tests = append(res.Tests, t)
				continue
			}
		}

		// TLS layer: ClientHello toward the resolved address.
		conn := v.Stack.Dial(answer, 443, hostnet.DialOptions{})
		ch := CH(d.Name)
		conn.OnEstablished = func() { conn.Send(ch) }
		lab.Sim.Run()
		tlsReset := conn.ResetSeen
		tlsOK := len(conn.Received) > 0 && !conn.ResetSeen
		conn.Close()

		switch {
		case tlsReset:
			t.Verdict = WebTLSReset
		case got.Response == nil || got.Truncated:
			t.Verdict = WebHTTPAnomaly
		case !tlsOK:
			t.Verdict = WebHTTPAnomaly
		default:
			t.Verdict = WebOK
		}
		res.Tests = append(res.Tests, t)
	}
	return res
}

// Counts tallies verdicts.
func (r *WebConnectivityResult) Counts() map[WebVerdict]int {
	out := map[WebVerdict]int{}
	for _, t := range r.Tests {
		out[t.Verdict]++
	}
	return out
}

// Render prints the verdict distribution and the layering summary.
func (r *WebConnectivityResult) Render() *report.Doc {
	counts := r.Counts()
	t := report.NewTable(
		fmt.Sprintf("Web connectivity from %s (%d domains)", r.Vantage, len(r.Tests)),
		"Verdict", "Count", "Meaning")
	t.AddRow(WebOK.String(), counts[WebOK], "uncensored")
	t.AddRow(WebDNSBlockpage.String(), counts[WebDNSBlockpage], "ISP resolver blockpage (decentralized mechanism)")
	t.AddRow(WebTLSReset.String(), counts[WebTLSReset], "TSPU SNI-I reset (centralized mechanism)")
	t.AddRow(WebHTTPAnomaly.String(), counts[WebHTTPAnomaly], "transfer failed/truncated")
	t.AddRow(WebDNSFailure.String(), counts[WebDNSFailure], "no DNS answer")
	return new(report.Doc).Add(t).
		Text("tls-reset with clean DNS is the TSPU's signature: blocking the ISP never deployed\n")
}
