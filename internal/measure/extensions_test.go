package measure

import (
	"strings"
	"testing"
	"time"

	"tspusim/internal/ispdpi"
	"tspusim/internal/topo"
	"tspusim/internal/workload"
)

// thin aliases keep the fingerprint test readable.
var (
	ispdpiKnownISPs   = ispdpi.KnownBlockpageISPs
	ispdpiBlockpage   = ispdpi.BlockpageHTML
	ispdpiFingerprint = ispdpi.FingerprintBlockpage
)

func TestObservatoryComparison(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 51, Endpoints: 200, ASes: 16, EchoServers: 60, TrancoN: 100, RegistryN: 100})
	res := ObservatoryComparison(lab, 10)

	ooni := res.Rates["out-registry (SNI-II)"][PlatformOONI]
	cp := res.Rates["out-registry (SNI-II)"][PlatformCP]
	// The paper's asymmetry: in-country tests see the out-registry blocking
	// (>70% anomalies), remote platforms see none.
	if ooni < 0.7 {
		t.Fatalf("OONI anomaly rate for out-registry = %.2f, want >= 0.7", ooni)
	}
	if cp != 0 {
		t.Fatalf("Censored Planet anomaly rate for out-registry = %.2f, want 0", cp)
	}
	// Registry SNI-I domains: visible in-country too.
	if res.Rates["registry (SNI-I)"][PlatformOONI] < 0.7 {
		t.Fatal("SNI-I domains not anomalous in-country")
	}
	// Controls clean everywhere.
	if res.Rates["control"][PlatformOONI] != 0 || res.Rates["control"][PlatformCP] != 0 {
		t.Fatalf("control anomalies: %+v", res.Rates["control"])
	}
	if !strings.Contains(res.Render().String(), "censoredplanet") {
		t.Fatal("render incomplete")
	}
}

func TestTimelineReplay(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 52, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	samples := TimelineReplay(lab)
	if len(samples) != 3 {
		t.Fatalf("samples = %d", len(samples))
	}
	p2021, pFeb, pMar := samples[0], samples[1], samples[2]

	// 2021: policed around 16 kB/s — well below the ~30 kB/s offered, well
	// above the 2022 rate.
	if p2021.TwitterGoodputBps < 8000 || p2021.TwitterGoodputBps > 20000 {
		t.Fatalf("2021 goodput = %.0f B/s, want ~16250", p2021.TwitterGoodputBps)
	}
	if p2021.TwitterReset || !p2021.QUICWorks {
		t.Fatalf("2021 phase: reset=%v quic=%v", p2021.TwitterReset, p2021.QUICWorks)
	}
	// Feb 2022: hard throttle.
	if pFeb.TwitterGoodputBps > 1100 {
		t.Fatalf("Feb 2022 goodput = %.0f B/s, want ~650", pFeb.TwitterGoodputBps)
	}
	if pFeb.TwitterReset || !pFeb.QUICWorks {
		t.Fatalf("Feb 2022 phase: reset=%v quic=%v", pFeb.TwitterReset, pFeb.QUICWorks)
	}
	// Mar 4: RST blocking, QUIC filtered.
	if !pMar.TwitterReset {
		t.Fatal("Mar 2022: no RST blocking")
	}
	if pMar.QUICWorks {
		t.Fatal("Mar 2022: QUIC still works")
	}
	if !strings.Contains(RenderTimeline(samples).String(), "2022-03-04") {
		t.Fatal("render incomplete")
	}
	// Monotonic virtual clock across phases.
	if !(p2021.MeasuredAt < pFeb.MeasuredAt && pFeb.MeasuredAt < pMar.MeasuredAt) {
		t.Fatal("phases not on one continuous clock")
	}
}

func TestWebConnectivityLayers(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 54, Endpoints: 40, ASes: 4, TrancoN: 200, RegistryN: 200})
	// Sample registry domains plus controls.
	domains := append([]workload.Domain{}, lab.Registry[:60]...)
	domains = append(domains,
		workload.Domain{Name: "clean-control-a.example"},
		workload.Domain{Name: "clean-control-b.example"},
	)
	res := WebConnectivity(lab, topo.ERTelecom, domains)
	counts := res.Counts()

	// Controls come back OK end to end (DNS, HTTP via the web farm, TLS).
	if counts[WebOK] < 2 {
		t.Fatalf("controls not OK: %v", counts)
	}
	// ER-Telecom's resolver blocklist is large: most registry domains hit
	// the blockpage, fingerprinted to the right ISP.
	if counts[WebDNSBlockpage] == 0 {
		t.Fatalf("no blockpage verdicts: %v", counts)
	}
	for _, wt := range res.Tests {
		if wt.Verdict == WebDNSBlockpage && wt.BlockpageISP != topo.ERTelecom {
			t.Fatalf("blockpage fingerprinted as %q", wt.BlockpageISP)
		}
	}
	// TSPU-only domains (in registry, missing from the ISP blocklist) show
	// the tls-reset signature: DNS clean, TLS dead.
	if counts[WebTLSReset] == 0 {
		t.Fatalf("no tls-reset verdicts: %v", counts)
	}
	if counts[WebDNSFailure] != 0 {
		t.Fatalf("unexpected dns failures: %v", counts)
	}
	if res.Render().String() == "" {
		t.Fatal("empty render")
	}
}

func TestBlockpageFingerprinting(t *testing.T) {
	for _, isp := range ispdpiKnownISPs() {
		body := ispdpiBlockpage(isp, "blocked.ru")
		got, ok := ispdpiFingerprint(body)
		if !ok || got != isp {
			t.Fatalf("fingerprint(%s) = %q ok=%v", isp, got, ok)
		}
	}
	if _, ok := ispdpiFingerprint("<html><body>ordinary content</body></html>"); ok {
		t.Fatal("false positive on ordinary content")
	}
}

func TestPolicyPropagation(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 55, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	res := PolicyPropagation(lab, 8*time.Second)
	for v, onset := range res.Onset {
		if onset < 0 {
			t.Fatalf("%s never blocked", v)
		}
		if onset > 10*time.Second {
			t.Fatalf("%s onset %v exceeds jitter window", v, onset)
		}
		if res.ISPResolverAdopted[v] {
			t.Fatalf("%s resolver magically adopted the fresh domain", v)
		}
	}
	if !strings.Contains(res.Render().String(), "onset spread") {
		t.Fatalf("render incomplete:\n%s", res.Render().String())
	}
}

func TestRoutingAsymmetry(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 57, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	res := RoutingAsymmetry(lab)
	got := map[string]bool{}
	for _, row := range res.Rows {
		if len(row.ForwardHops) == 0 || len(row.ReverseHops) == 0 {
			t.Fatalf("%s: empty traceroute", row.Vantage)
		}
		got[row.Vantage] = row.Asymmetric
	}
	// Rostelecom's return path crosses the clean parallel link (its edge
	// router pair); OBIT returns via the rt-transit parallel. ER-Telecom is
	// fully symmetric.
	if !got[topo.Rostelecom] {
		t.Fatal("rostelecom should be asymmetric")
	}
	if got[topo.ERTelecom] {
		t.Fatal("ertelecom should be symmetric")
	}
	if !strings.Contains(res.Render().String(), "asymmetry") {
		t.Fatal("render incomplete")
	}
}

func TestDeviceReport(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 58, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	rep := Devices(lab)
	if len(rep.Rows) < 4 {
		t.Fatalf("only %d active devices", len(rep.Rows))
	}
	names := map[string]bool{}
	totalTriggers := 0
	for _, row := range rep.Rows {
		names[row.Name] = true
		totalTriggers += row.Triggers
		if row.Stats.Handled <= 0 {
			t.Fatalf("%s reported idle", row.Name)
		}
	}
	for _, want := range []string{"ertelecom-tspu-sym", "rostelecom-tspu-sym", "obit-tspu-sym"} {
		if !names[want] {
			t.Fatalf("missing device %s", want)
		}
	}
	if totalTriggers == 0 {
		t.Fatal("workload produced no triggers")
	}
	if !strings.Contains(rep.Render().String(), "fleet") {
		t.Fatal("render incomplete")
	}
}
