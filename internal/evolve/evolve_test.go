package evolve

import (
	"strings"
	"testing"

	"tspusim/internal/circumvent"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
)

func evLab(t *testing.T) *topo.Lab {
	t.Helper()
	return topo.Build(topo.Options{Seed: 61, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
}

// evalOne runs one strategy against one behavior target.
func evalOne(lab *topo.Lab, strat circumvent.Strategy, label, domain string) bool {
	return circumvent.Evaluate(lab, topo.ERTelecom, lab.US1, strat, circumvent.Target{Label: label, Domain: domain})
}

func TestSearchFindsEvasions(t *testing.T) {
	lab := evLab(t)
	results := Search(lab, lab.US1, SearchOptions{Population: 12, Generations: 5})
	if len(results) == 0 {
		t.Fatal("no candidates evaluated")
	}
	best := results[0]
	if best.Fitness != 3 {
		t.Fatalf("best fitness = %d/3: %s", best.Fitness, best.Genome)
	}
	// The winner must use at least one mechanism the paper documents as
	// effective; junk-only genomes cannot win.
	g := best.Genome
	if g.SegmentSize == 0 && g.FragmentPayload == 0 && g.PadBeforeSNI == 0 && !g.PrependRecord {
		t.Fatalf("winner uses no effective gene: %s", g)
	}
	if !strings.Contains(Render(results).String(), "full evasions") {
		t.Fatal("render incomplete")
	}
}

func TestJunkOnlyGenomeFails(t *testing.T) {
	// The TTL-junk insertion strategy is mitigated (§8); a genome carrying
	// only that gene must not evade anything.
	lab := evLab(t)
	g := Genome{JunkTTL: 3}
	strat := g.Strategy()
	evaded := 0
	for _, tg := range []struct{ label, domain string }{
		{"SNI-I", "dw.com"}, {"SNI-II", "play.google.com"},
	} {
		if evalOne(lab, strat, tg.label, tg.domain) {
			evaded++
		}
	}
	if evaded != 0 {
		t.Fatalf("junk-only genome evaded %d targets", evaded)
	}
}

func TestSegmentationGenomeWins(t *testing.T) {
	lab := evLab(t)
	g := Genome{SegmentSize: 64}
	strat := g.Strategy()
	if !evalOne(lab, strat, "SNI-I", "dw.com") {
		t.Fatal("segmentation genome failed against SNI-I")
	}
	if !evalOne(lab, strat, "SNI-II", "play.google.com") {
		t.Fatal("segmentation genome failed against SNI-II")
	}
}

func TestGenomeDeterminism(t *testing.T) {
	a, b := sim.NewRand(9), sim.NewRand(9)
	for i := 0; i < 50; i++ {
		ga, gb := Random(a), Random(b)
		if ga != gb {
			t.Fatal("Random not deterministic")
		}
		if ga.Mutate(sim.NewRand(uint64(i))) != gb.Mutate(sim.NewRand(uint64(i))) {
			t.Fatal("Mutate not deterministic")
		}
	}
}

func TestGenomeStringAndComplexity(t *testing.T) {
	g := Genome{}
	if g.String() != "noop" || !g.IsNoop() || g.Complexity() != 0 {
		t.Fatal("noop genome misdescribed")
	}
	g = Genome{SegmentSize: 64, PrependRecord: true}
	if g.Complexity() != 2 {
		t.Fatalf("complexity = %d", g.Complexity())
	}
	if !strings.Contains(g.String(), "segment(64)") || !strings.Contains(g.String(), "prepend-record") {
		t.Fatalf("string = %s", g)
	}
}

func TestSearchDeterministic(t *testing.T) {
	labA, labB := evLab(t), evLab(t)
	ra := Search(labA, labA.US1, SearchOptions{Population: 8, Generations: 3})
	rb := Search(labB, labB.US1, SearchOptions{Population: 8, Generations: 3})
	if len(ra) != len(rb) {
		t.Fatalf("candidate counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Genome != rb[i].Genome || ra[i].Fitness != rb[i].Fitness {
			t.Fatalf("divergence at %d: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestServerGenes(t *testing.T) {
	lab := evLab(t)
	// Split handshake alone: evades SNI-I, not SNI-II (Table 8 semantics).
	split := Genome{ServerSplit: true}
	if !evalOne(lab, split.Strategy(), "SNI-I", "dw.com") {
		t.Fatal("srv-split failed against SNI-I")
	}
	if evalOne(lab, split.Strategy(), "SNI-II", "play.google.com") {
		t.Fatal("srv-split should not evade SNI-II")
	}
	// Delay past the 60 s SYN-SENT timeout evades; a 30 s delay does not.
	if !evalOne(lab, Genome{ServerDelaySec: 61}.Strategy(), "SNI-I", "dw.com") {
		t.Fatal("srv-delay(61) failed")
	}
	if evalOne(lab, Genome{ServerDelaySec: 30}.Strategy(), "SNI-I", "dw.com") {
		t.Fatal("srv-delay(30) should not evade")
	}
}

func TestSearchSpansBothSides(t *testing.T) {
	lab := evLab(t)
	results := Search(lab, lab.US1, SearchOptions{Population: 20, Generations: 6})
	var sawServer bool
	for _, d := range results {
		g := d.Genome
		if g.ServerWindow > 0 || g.ServerSplit || g.ServerDelaySec > 0 {
			sawServer = true
		}
	}
	if !sawServer {
		t.Fatal("search never tried a server-side gene")
	}
}
