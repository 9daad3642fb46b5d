package measure

import (
	"strconv"
	"strings"
	"testing"

	"tspusim/internal/topo"
)

func TestDomainSurveyFig6(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 6, Endpoints: 40, ASes: 4, TrancoN: 300, RegistryN: 300})
	res := DomainSurvey(lab, "registry-sample", lab.Registry)
	tspu, perISP, tspuOnly := res.Counts()

	// The TSPU must block ~96.55% of the registry sample.
	frac := float64(tspu) / float64(len(lab.Registry))
	if frac < 0.90 || frac > 1.0 {
		t.Fatalf("TSPU blocked %.2f of registry, want ~0.9655", frac)
	}
	// ISP resolvers lag: rostelecom < obit < ertelecom < TSPU (Fig. 6).
	if !(perISP[topo.Rostelecom] < perISP[topo.OBIT] &&
		perISP[topo.OBIT] < perISP[topo.ERTelecom] &&
		perISP[topo.ERTelecom] < tspu) {
		t.Fatalf("ordering broken: %v tspu=%d", perISP, tspu)
	}
	if tspuOnly == 0 {
		t.Fatal("no TSPU-only blocking despite ISP lag")
	}
	if !strings.Contains(res.Render().String(), "Fig. 6") {
		t.Fatal("render missing title")
	}
}

func TestDomainSurveyTranco(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 7, Endpoints: 40, ASes: 4, TrancoN: 400, RegistryN: 100})
	res := DomainSurvey(lab, "tranco", lab.Tranco)
	tspu, _, tspuOnly := res.Counts()
	if tspu == 0 {
		t.Fatal("no Tranco domains blocked")
	}
	// Most Tranco blocking is out-registry (Google services, circumvention,
	// news, porn) and so invisible to ISP resolvers.
	if float64(tspuOnly)/float64(tspu) < 0.5 {
		t.Fatalf("tspu-only fraction = %d/%d, expected mostly out-registry", tspuOnly, tspu)
	}
}

func TestCategoriesFig7(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 8, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 240})
	res := DomainSurvey(lab, "registry-sample", lab.Registry)
	cb := Categories(lab, res, 12, 40)
	allTotal, blockedTotal := 0, 0
	for _, n := range cb.All {
		allTotal += n
	}
	for _, n := range cb.Blocked {
		blockedTotal += n
	}
	if allTotal != len(lab.Registry) {
		t.Fatalf("all = %d, want %d", allTotal, len(lab.Registry))
	}
	if blockedTotal == 0 {
		t.Fatal("no blocked categories")
	}
	if !strings.Contains(cb.Render().String(), "Fig. 7") {
		t.Fatal("render missing title")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 9, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	res := Table3(lab)
	if len(res.Rows) == 0 {
		t.Fatal("empty table")
	}
	for _, row := range res.Rows {
		if !row.MatchesPaperBehaviors {
			t.Errorf("%s: measured SNI-I=%v SNI-II=%v SNI-IV=%v, paper %v/%v/%v",
				row.Domain, row.SNI1, row.SNI2, row.SNI4,
				row.ExpectedSNI1, row.ExpectedSNI2, row.ExpectedSNI4)
		}
	}
	if !strings.Contains(res.Render().String(), "Table 3") {
		t.Fatal("render missing title")
	}
}

func TestCHFuzzFig13(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 10, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	rows := CHFuzz(lab)
	if rows[0].Name != "unmodified" || !rows[0].Blocked {
		t.Fatal("baseline CH not blocked")
	}
	for _, r := range rows[1:] {
		if r.Structural && r.Blocked {
			t.Errorf("%s: structural corruption still blocked", r.Name)
		}
		if !r.Structural && !r.Blocked {
			t.Errorf("%s: cosmetic change evaded blocking", r.Name)
		}
	}
	if !strings.Contains(RenderCHFuzz(rows).String(), "Fig. 13") {
		t.Fatal("render missing title")
	}
}

func TestQUICFuzzFig14(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 12, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	res := QUICFuzz(lab)
	if !res.V1Blocked {
		t.Fatal("v1 not blocked")
	}
	if res.Draft29Blocked || res.QuicpingBlocked || res.Port80Blocked {
		t.Fatalf("overbroad fingerprint: %+v", res)
	}
	if res.MinLen != 1001 {
		t.Fatalf("MinLen = %d, want 1001", res.MinLen)
	}
	if !strings.Contains(res.Render().String(), "1001") {
		t.Fatal("render missing threshold")
	}
}

func TestVennRegions(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 13, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 200})
	res := DomainSurvey(lab, "registry-sample", lab.Registry)
	venn := res.Venn()
	total := 0
	for _, n := range venn {
		total += n
	}
	if total != len(lab.Registry) {
		t.Fatalf("venn total %d != %d domains", total, len(lab.Registry))
	}
	// The dominant region must include the TSPU (it blocks ~96.5%).
	best, bestN := "", 0
	for k, n := range venn {
		if n > bestN {
			best, bestN = k, n
		}
	}
	if !strings.Contains(best, "tspu") {
		t.Fatalf("dominant region %q lacks tspu", best)
	}
	if !strings.Contains(res.RenderVenn().String(), "Venn") {
		t.Fatal("render incomplete")
	}
}

// TestRenderVennBreaksTiesByRegion pins the Fig. 6 region order: largest
// count first, and regions of equal count by name. Seven regions tie, so a
// sort by count alone leaves their order to map iteration and fails here.
func TestRenderVennBreaksTiesByRegion(t *testing.T) {
	regions := []struct {
		tspu bool
		isps []string
		n    int
	}{
		{false, []string{topo.Rostelecom}, 2},
		{true, []string{topo.OBIT}, 2},
		{true, nil, 3},
		{false, nil, 2},
		{false, []string{topo.ERTelecom, topo.OBIT}, 2},
		{true, []string{topo.ERTelecom}, 2},
		{false, []string{topo.OBIT}, 2},
		{true, []string{topo.ERTelecom, topo.OBIT, topo.Rostelecom}, 2},
	}
	res := &SurveyResult{List: "ties"}
	for _, g := range regions {
		for i := 0; i < g.n; i++ {
			v := DomainVerdict{TSPUBlocked: g.tspu, ISPBlocked: map[string]bool{}}
			for _, isp := range g.isps {
				v.ISPBlocked[isp] = true
			}
			res.Verdicts = append(res.Verdicts, v)
		}
	}
	want := []string{
		"tspu",
		"(none)",
		"ertelecom+obit",
		"ertelecom+obit+rostelecom+tspu",
		"ertelecom+tspu",
		"obit",
		"obit+tspu",
		"rostelecom",
	}
	var got []string
	for _, line := range strings.Split(res.RenderVenn().String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if _, err := strconv.Atoi(f[1]); err == nil {
				got = append(got, f[0])
			}
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Venn rows = %v, want %v\n%s", got, want, res.RenderVenn())
	}
}
