// The genome tests are an external package so the fuzz target can also
// drive the search's Mutate and Shrink over decoded genomes.
package circumvent_test

import (
	"math"
	"strings"
	"testing"

	"tspusim/internal/circumvent"
	"tspusim/internal/evolve"
	"tspusim/internal/sim"
)

// FuzzGenome pins the corpus serialization contract: any string Decode
// accepts round-trips through String() unchanged, mutation is a pure
// function of (genome, rand seed), and no decode/encode/mutate chain
// panics. The seed corpus is distilled from the smallest winning genomes the
// arms race pins — the forms the replay suite parses out of
// testdata/evasions, so a serialization regression breaks here before it
// breaks a golden.
func FuzzGenome(f *testing.F) {
	for _, s := range []string{
		"noop",
		"segment(64)",
		"fragment(64)",
		"pad-before-sni(600)",
		"prepend-record",
		"junk(ttl=3)",
		"srv-window(100)",
		"srv-split",
		"srv-delay(61s)",
		"segment(16)+prepend-record",
		"fragment(16)+junk(ttl=2)",
		"segment(64)+fragment(64)+pad-before-sni(50)+prepend-record",
		"srv-window(50)+srv-split+srv-delay(70s)",
		"segment(0)",
		"segment(-1)",
		"segment(64)+segment(64)",
		"pad-before-sni(99999999)",
		"junk(ttl=255)",
		"junk(ttl=256)",
		"srv-window(65535)",
		"srv-window(65636)",
		"srv-delay(61)",
		"unknown-gene",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := circumvent.Decode(s)
		if err != nil {
			return // malformed input: rejection is the contract
		}
		// Trial writes these genes into 8- and 16-bit wire fields.
		if g.JunkTTL > math.MaxUint8 || g.ServerWindow > math.MaxUint16 {
			t.Fatalf("Decode(%q) accepted a value its wire field wraps: %+v", s, g)
		}
		// Decode ∘ String is the identity on decoded genomes.
		back, err := circumvent.Decode(g.String())
		if err != nil {
			t.Fatalf("String() of decoded genome does not re-decode: %q -> %q: %v", s, g.String(), err)
		}
		if back != g {
			t.Fatalf("round trip drifted: %q -> %+v -> %q -> %+v", s, g, g.String(), back)
		}
		// Mutation under equal rand streams is deterministic.
		if evolve.Mutate(g, sim.NewRand(7)) != evolve.Mutate(g, sim.NewRand(7)) {
			t.Fatalf("Mutate not deterministic for %q", s)
		}
		// A mutation chain stays canonical: every intermediate form
		// re-decodes to itself (mutated values are always the generator's
		// canonical multiples).
		r := sim.NewRand(uint64(len(s)) + 1)
		m := g
		for i := 0; i < circumvent.NumGenes; i++ {
			m = evolve.Mutate(m, r)
			d, err := circumvent.Decode(m.String())
			if err != nil || d != m {
				t.Fatalf("mutated form not canonical: %q (from %q): %v", m.String(), s, err)
			}
		}
		// Shrink under a pure predicate terminates and stays decodable.
		shr := evolve.Shrink(g, func(c circumvent.Genome) bool { return c.Complexity() >= g.Complexity()-1 })
		if _, err := circumvent.Decode(shr.String()); err != nil {
			t.Fatalf("shrunk form not decodable: %q", shr.String())
		}
	})
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"", "segment()", "segment(x)", "segment(-4)", "segment(0)",
		"segment(64)+segment(32)", "prepend-record+prepend-record",
		"srv-delay(61)", "srv-delay(s)", "pad-before-sni(1048577)",
		"segment(007)", "noop+segment(64)", "segment(64)x",
	} {
		if g, err := circumvent.Decode(s); err == nil {
			t.Errorf("Decode(%q) accepted malformed input as %+v", s, g)
		}
	}
}

// TestDecodeBoundsWireWidth: the junk TTL and the server window are bounded
// by the wire fields Trial writes them into, so srv-window(65636) is
// rejected rather than advertised as a window of 100.
func TestDecodeBoundsWireWidth(t *testing.T) {
	for _, c := range []struct {
		s  string
		ok bool
	}{
		{"junk(ttl=255)", true},
		{"junk(ttl=256)", false},
		{"srv-window(65535)", true},
		{"srv-window(65536)", false},
		{"srv-window(65636)", false},
		{"segment(65636)", true},
		{"srv-delay(1048576s)", true},
	} {
		if _, err := circumvent.Decode(c.s); (err == nil) != c.ok {
			t.Errorf("Decode(%q): err = %v, want accepted %v", c.s, err, c.ok)
		}
	}
}

func TestGenomeStringAndComplexity(t *testing.T) {
	g := circumvent.Genome{}
	if g.String() != "noop" || !g.IsNoop() || g.Complexity() != 0 {
		t.Fatal("noop genome misdescribed")
	}
	g = circumvent.Genome{SegmentSize: 64, PrependRecord: true}
	if g.Complexity() != 2 {
		t.Fatalf("complexity = %d", g.Complexity())
	}
	if !strings.Contains(g.String(), "segment(64)") || !strings.Contains(g.String(), "prepend-record") {
		t.Fatalf("string = %s", g)
	}
}
