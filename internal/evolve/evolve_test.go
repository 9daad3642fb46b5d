package evolve

import (
	"strings"
	"testing"

	"tspusim/internal/circumvent"
	"tspusim/internal/measure"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
)

func evLab(t *testing.T) *topo.Lab {
	t.Helper()
	return topo.Build(topo.Options{Seed: 61, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
}

// evades runs one genome against the §8 target with the given label, from
// ER-Telecom to the US machine.
func evades(t *testing.T, lab *topo.Lab, g circumvent.Genome, label string) bool {
	t.Helper()
	for _, pr := range circumvent.Targets() {
		if pr.Label == label {
			return circumvent.Trial(measure.VantagePath(lab, topo.ERTelecom), circumvent.Strategy{Genome: g}, pr).Evaded
		}
	}
	t.Fatalf("no target %q", label)
	return false
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
	g := circumvent.Genome{JunkTTL: 3}
	evaded := 0
	for _, label := range []string{"SNI-I", "SNI-II"} {
		if evades(t, lab, g, label) {
			evaded++
		}
	}
	if evaded != 0 {
		t.Fatalf("junk-only genome evaded %d targets", evaded)
	}
}

func TestSegmentationGenomeWins(t *testing.T) {
	lab := evLab(t)
	g := circumvent.Genome{SegmentSize: 64}
	if !evades(t, lab, g, "SNI-I") {
		t.Fatal("segmentation genome failed against SNI-I")
	}
	if !evades(t, lab, g, "SNI-II") {
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
		if Mutate(ga, sim.NewRand(uint64(i))) != Mutate(gb, sim.NewRand(uint64(i))) {
			t.Fatal("Mutate not deterministic")
		}
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
	split := circumvent.Genome{ServerSplit: true}
	if !evades(t, lab, split, "SNI-I") {
		t.Fatal("srv-split failed against SNI-I")
	}
	if evades(t, lab, split, "SNI-II") {
		t.Fatal("srv-split should not evade SNI-II")
	}
	// Delay past the 60 s SYN-SENT timeout evades; a 30 s delay does not.
	if !evades(t, lab, circumvent.Genome{ServerDelaySec: 61}, "SNI-I") {
		t.Fatal("srv-delay(61) failed")
	}
	if evades(t, lab, circumvent.Genome{ServerDelaySec: 30}, "SNI-I") {
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

func TestDecodeRoundTripsRandom(t *testing.T) {
	r := sim.NewRand(41)
	for i := 0; i < 200; i++ {
		g := Random(r)
		d, err := circumvent.Decode(g.String())
		if err != nil || d != g {
			t.Fatalf("Random genome %q did not round-trip: %+v %v", g.String(), d, err)
		}
	}
}

func TestShrinkFindsMinimalForm(t *testing.T) {
	// Predicate: the genome still carries a segmentation gene. Everything
	// else is junk and must be shrunk away.
	g := circumvent.Genome{SegmentSize: 64, JunkTTL: 3, PadBeforeSNI: 100, ServerSplit: true}
	min := Shrink(g, func(c circumvent.Genome) bool { return c.SegmentSize > 0 })
	if min != (circumvent.Genome{SegmentSize: 64}) {
		t.Fatalf("shrink kept junk genes: %q", min.String())
	}
	// The all-zero genome is never offered even under an always-true
	// predicate: one gene must survive.
	min = Shrink(g, func(circumvent.Genome) bool { return true })
	if min.IsNoop() || min.Complexity() != 1 {
		t.Fatalf("shrink under true-predicate should stop at one gene, got %q", min.String())
	}
}
