package measure

import (
	"testing"

	"tspusim/internal/topo"
)

func remoteLab(t *testing.T) *topo.Lab {
	t.Helper()
	return topo.Build(topo.Options{Seed: 12, Endpoints: 240, ASes: 20, EchoServers: 60, TrancoN: 100, RegistryN: 100})
}

func TestEchoMeasure(t *testing.T) {
	lab := remoteLab(t)
	res := EchoMeasure(lab, 20)
	if res.Discovered == 0 {
		t.Fatal("no echo servers discovered")
	}
	if res.NmapFiltered == 0 || res.NmapFiltered > res.Discovered {
		t.Fatalf("funnel broken: %d -> %d", res.Discovered, res.NmapFiltered)
	}
	if res.TSPUPositive == 0 {
		t.Fatal("no echo positives despite upstream-only ASes")
	}
	if res.TSPUPositive > res.NmapFiltered {
		t.Fatal("positives exceed tested")
	}
	// Ground truth check: every positive is behind an upstream-only device;
	// clean endpoints are never positive.
	for _, v := range res.Verdicts {
		if v.EchoBlocked && !v.Endpoint.BehindUpstreamOnly {
			t.Fatalf("false positive at %v (deploy=%v)", v.Endpoint.Addr, v.Endpoint.AS.Deploy)
		}
	}
	// Table 5 (upper): echo positives must be IP-blocked too.
	c := res.Table5Echo()
	if c.NB != 0 {
		t.Fatalf("echo-positive but not IP-blocked: %d", c.NB)
	}
	if c.BB == 0 {
		t.Fatal("no (B,B) cell")
	}
	if res.Render().String() == "" {
		t.Fatal("empty render")
	}
}

func TestEchoControlCatchesSymmetric(t *testing.T) {
	// Endpoints behind symmetric TSPUs see no echo blocking (the device saw
	// the remote SYN), which is exactly why the paper needed the frag scan.
	lab := remoteLab(t)
	res := EchoMeasure(lab, 20)
	for _, v := range res.Verdicts {
		if v.Endpoint.BehindTSPU && v.EchoBlocked {
			t.Fatalf("symmetric-TSPU endpoint flagged by echo: %v", v.Endpoint.Addr)
		}
	}
}

func TestFragScanGroundTruth(t *testing.T) {
	lab := remoteLab(t)
	res := FragScan(lab, true, true)
	if len(res.Verdicts) != len(lab.Endpoints) {
		t.Fatal("not all endpoints scanned")
	}
	tp, fp, fn := 0, 0, 0
	for _, v := range res.Verdicts {
		switch {
		case v.TSPULike && v.Endpoint.BehindTSPU:
			tp++
		case v.TSPULike && !v.Endpoint.BehindTSPU:
			fp++
		case !v.TSPULike && v.Endpoint.BehindTSPU:
			fn++
		}
	}
	if fp != 0 {
		t.Fatalf("false positives: %d", fp)
	}
	if fn != 0 {
		t.Fatalf("false negatives: %d", fn)
	}
	if tp == 0 {
		t.Fatal("no true positives")
	}
	// Upstream-only endpoints are invisible to the frag scan (§7.3).
	for _, v := range res.Verdicts {
		if v.Endpoint.BehindUpstreamOnly && v.TSPULike {
			t.Fatal("upstream-only endpoint detected by frag scan")
		}
	}
}

func TestFragLocalizationMatchesGroundTruth(t *testing.T) {
	// A larger AS population than the other remote tests: the Fig. 12 shape
	// check needs the per-AS depth samples to average out.
	lab := topo.Build(topo.Options{Seed: 12, Endpoints: 600, ASes: 60, EchoServers: 60, TrancoN: 100, RegistryN: 100})
	res := FragScan(lab, false, true)
	checked := 0
	for _, v := range res.Verdicts {
		if !v.TSPULike || v.LocalizedHops == 0 {
			continue
		}
		checked++
		if v.LocalizedHops != v.Endpoint.DeviceHops {
			t.Fatalf("endpoint %v: localized %d hops, ground truth %d",
				v.Endpoint.Addr, v.LocalizedHops, v.Endpoint.DeviceHops)
		}
	}
	if checked == 0 {
		t.Fatal("nothing localized")
	}
	// Fig. 12 shape: majority within two hops.
	if res.HopHist.Total() == 0 || res.HopHist.FracAtOrBelow(2) < 0.4 {
		t.Fatalf("hop histogram shape off: frac<=2 = %.2f", res.HopHist.FracAtOrBelow(2))
	}
	if res.Render(lab.PaperScale()).String() == "" {
		t.Fatal("empty render")
	}
}

func TestFragTorCorrelation(t *testing.T) {
	lab := remoteLab(t)
	res := FragScan(lab, true, false)
	c := res.Table5Frag()
	if c.Total() == 0 {
		t.Fatal("empty contingency")
	}
	// Fragment-positive implies IP-blocked (symmetric device on path);
	// IP-blocked without fragment-positive are the upstream-only cases.
	if c.NB != 0 {
		t.Fatalf("fragment-positive but not IP-blocked: %d", c.NB)
	}
	if c.BN == 0 {
		t.Fatal("expected upstream-only (B,N) disagreements")
	}
	if c.String() == "" {
		t.Fatal("empty render")
	}
}

func TestUSValidation(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 21, Endpoints: 60, ASes: 6, TrancoN: 100, RegistryN: 100})
	us := lab.BuildUSPopulation(800)
	res := ValidateUS(lab, us)
	if res.Total != 800 {
		t.Fatalf("total = %d", res.Total)
	}
	frac := float64(res.TSPULike) / float64(res.Total)
	// Paper: 0.708%. With 800 endpoints expect a handful.
	if frac > 0.05 {
		t.Fatalf("US false-positive rate = %.3f, too high", frac)
	}
	// The AS17306-like group must be discoverable at larger n; just require
	// ground truth consistency here.
	for _, ep := range us {
		if ep.FragLimit == 45 && res.TSPULike == 0 {
			t.Fatal("45-limit middlebox present but no TSPU-like US host found")
		}
	}
}
