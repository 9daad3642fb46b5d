package measure

import (
	"strings"
	"testing"

	"tspusim/internal/topo"
)

func TestBehaviorTracesFig2(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 41, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	out := BehaviorTraces(lab).String()
	for _, want := range []string{
		"SNI-Based (I)", "SNI-Based (II)", "SNI-Based (IV)",
		"IP-Based", "QUIC",
		"RST/ACK",                 // the SNI-I rewrite visible in the client trace
		"[replies received: 0",    // IP-based silence
		"[server received 1 of 3", // QUIC trigger passes, rest drop
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 2 trace missing %q\n%s", want, out)
		}
	}
}

func TestFragBehaviorTraceFig3(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 42, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	out := FragBehaviorTrace(lab).String()
	if !strings.Contains(out, "TTLs rewritten") {
		t.Fatalf("Fig. 3 trace missing rewrite confirmation:\n%s", out)
	}
	// Send TTLs are distinct; receive TTLs must be uniform.
	if !strings.Contains(out, "ttl=33") || !strings.Contains(out, "ttl=21") {
		t.Fatalf("Fig. 3 trace missing distinct send TTLs:\n%s", out)
	}
}

func TestThrottleMeasureSNI3(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 43, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	res := ThrottleMeasure(lab)
	if res.GoodputBps < 300 || res.GoodputBps > 1100 {
		t.Fatalf("throttled goodput = %.0f B/s, want ~650", res.GoodputBps)
	}
	if res.ControlBps < 5000 {
		t.Fatalf("control goodput = %.0f B/s, suspiciously low", res.ControlBps)
	}
	if res.ControlBps/res.GoodputBps < 5 {
		t.Fatalf("slowdown only %.1fx", res.ControlBps/res.GoodputBps)
	}
	if !strings.Contains(res.Render().String(), "600-700") {
		t.Fatal("render missing paper reference")
	}
	// Throttling must be inactive again after the measurement.
	if lab.Controller.Policy().ThrottleActive {
		t.Fatal("throttle left active")
	}
}

func TestTracerouteStudyFig10(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 44, Endpoints: 160, ASes: 16, TrancoN: 100, RegistryN: 100})
	scan := FragScan(lab, false, true)
	study := RunTracerouteStudy(lab, scan)
	if len(study.Traces) == 0 {
		t.Fatal("no traceroutes")
	}
	if study.UniqueLinks == 0 {
		t.Fatal("no TSPU links")
	}
	if study.UniqueLinks > len(study.Traces) {
		t.Fatal("more links than traces")
	}
	if !strings.Contains(study.DOT, "color=red") {
		t.Fatal("DOT missing TSPU link marking")
	}
	if !strings.Contains(study.Render(lab.PaperScale()).String(), "unique TSPU links") {
		t.Fatal("render incomplete")
	}
	// Clustering effect: shared devices mean strictly fewer links than
	// positive endpoints.
	positives := 0
	for _, v := range scan.Verdicts {
		if v.TSPULike {
			positives++
		}
	}
	if study.UniqueLinks >= positives {
		t.Fatalf("links %d not clustered below positives %d", study.UniqueLinks, positives)
	}
}
