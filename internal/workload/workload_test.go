package workload

import (
	"strings"
	"testing"

	"tspusim/internal/sim"
)

func TestGenTrancoShape(t *testing.T) {
	rng := sim.NewRand(1)
	ds := GenTranco(rng, TrancoOptions{})
	if len(ds) != 10000+1325 {
		t.Fatalf("len = %d, want 11325", len(ds))
	}
	// Paper-named domains are present at top ranks.
	names := map[string]bool{}
	for _, d := range ds[:50] {
		names[d.Name] = true
	}
	for _, want := range []string{"twitter.com", "facebook.com", "play.google.com", "nordvpn.com"} {
		if !names[want] {
			t.Fatalf("missing well-known domain %s", want)
		}
	}
	clbl := 0
	for _, d := range ds {
		if d.FromCLBL {
			clbl++
		}
	}
	if clbl != 1325 {
		t.Fatalf("CLBL count = %d", clbl)
	}
}

func TestGenTrancoDeterministic(t *testing.T) {
	a := GenTranco(sim.NewRand(7), TrancoOptions{N: 500, CLBL: 50})
	b := GenTranco(sim.NewRand(7), TrancoOptions{N: 500, CLBL: 50})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGenRegistryShape(t *testing.T) {
	rng := sim.NewRand(2)
	ds := GenRegistry(rng, RegistryOptions{})
	if len(ds) != 10000 {
		t.Fatalf("len = %d", len(ds))
	}
	counts := map[Category]int{}
	after := 0
	for _, d := range ds {
		if !d.InRegistry {
			t.Fatal("registry domain not marked InRegistry")
		}
		counts[d.Category]++
		if d.AddedAfterFeb24 {
			after++
		}
	}
	// Gambling must dominate, media second tier (Fig. 7).
	if counts[CatGambling] < counts[CatTechnology] {
		t.Fatalf("gambling %d not dominant over technology %d", counts[CatGambling], counts[CatTechnology])
	}
	if counts[CatInformativeMedia] < 1000 {
		t.Fatalf("media count = %d", counts[CatInformativeMedia])
	}
	if after < 500 || after > 2500 {
		t.Fatalf("after-Feb-24 count = %d", after)
	}
}

func TestWellKnownConsistency(t *testing.T) {
	for _, wk := range WellKnownDomains() {
		if wk.SNI4 && !wk.SNI1 {
			t.Fatalf("%s: SNI-IV domains are a subset of SNI-I targets (Table 3)", wk.Name)
		}
		if wk.SNI2 && wk.SNI1 {
			t.Fatalf("%s: SNI-II domains are disjoint from SNI-I in Table 3", wk.Name)
		}
	}
}

func TestHTMLAndTokenize(t *testing.T) {
	rng := sim.NewRand(3)
	d := Domain{Name: "casino-hub1.com", Category: CatGambling}
	html := HTMLFor(rng, d)
	if !strings.Contains(html, "<html>") || !strings.Contains(html, d.Name) {
		t.Fatal("HTML malformed")
	}
	toks := Tokenize(html)
	if len(toks) < 50 {
		t.Fatalf("tokens = %d", len(toks))
	}
	hits := 0
	kw := map[string]bool{}
	for _, k := range Keywords(CatGambling) {
		kw[k] = true
	}
	for _, tok := range toks {
		if kw[tok] {
			hits++
		}
		if strings.ContainsAny(tok, "<>") {
			t.Fatalf("tag leak in token %q", tok)
		}
	}
	if hits < 20 {
		t.Fatalf("category keywords in page = %d", hits)
	}
}

func TestTokenizeDropsStopwords(t *testing.T) {
	toks := Tokenize("<p>the casino and the jackpot</p>")
	for _, tok := range toks {
		if tok == "the" || tok == "and" {
			t.Fatalf("stopword leaked: %v", toks)
		}
	}
}

func TestLDARecoverCategories(t *testing.T) {
	// Generate labelled pages from 4 well-separated categories and verify
	// the full pipeline recovers the ground truth for most documents.
	rng := sim.NewRand(11)
	cats := []Category{CatGambling, CatInformativeMedia, CatCircumvention, CatPornography}
	var ds []Domain
	for i := 0; i < 120; i++ {
		c := cats[i%len(cats)]
		ds = append(ds, Domain{Name: string(nameFor(nil, rng, c, i)), Category: c})
	}
	pred := CategorizeDomains(rng, ds, 8, 60)
	correct := 0
	for i, d := range ds {
		if pred[i] == d.Category {
			correct++
		}
	}
	frac := float64(correct) / float64(len(ds))
	if frac < 0.7 {
		t.Fatalf("LDA pipeline accuracy = %.2f, want >= 0.7", frac)
	}
}

func TestLDADeterministic(t *testing.T) {
	rng1, rng2 := sim.NewRand(5), sim.NewRand(5)
	docs := [][]string{
		{"casino", "bets", "poker", "casino"},
		{"news", "journalist", "report"},
		{"casino", "jackpot", "slots"},
		{"media", "press", "editorial"},
	}
	l1, l2 := NewLDA(2), NewLDA(2)
	l1.Fit(docs, 30, rng1)
	l2.Fit(docs, 30, rng2)
	for i := range docs {
		if l1.DocTopic(i) != l2.DocTopic(i) {
			t.Fatal("LDA not deterministic under same seed")
		}
	}
}

func TestLDATopWords(t *testing.T) {
	rng := sim.NewRand(6)
	docs := [][]string{
		{"casino", "bets", "casino", "poker", "casino"},
		{"casino", "jackpot", "bets"},
		{"news", "press", "news", "media", "news"},
		{"journalist", "news", "press"},
	}
	l := NewLDA(2)
	l.Fit(docs, 100, rng)
	// The dominant topic of doc 0 should rank "casino" in its top words.
	top := l.TopWords(l.DocTopic(0), 3)
	found := false
	for _, w := range top {
		if w == "casino" {
			found = true
		}
	}
	if !found {
		t.Fatalf("top words of gambling topic = %v", top)
	}
}

func TestCategoryStrings(t *testing.T) {
	if CatInformativeMedia.String() != "Informative Media" {
		t.Fatal("category name wrong")
	}
	if len(Categories()) != 11 {
		t.Fatalf("categories = %d, want 11", len(Categories()))
	}
}

func TestLDAPerplexityImprovesWithFit(t *testing.T) {
	rng := sim.NewRand(23)
	var ds []Domain
	cats := []Category{CatGambling, CatInformativeMedia, CatCircumvention}
	for i := 0; i < 60; i++ {
		c := cats[i%len(cats)]
		ds = append(ds, Domain{Name: string(nameFor(nil, rng, c, i)), Category: c})
	}
	docs := make([][]string, len(ds))
	for i, d := range ds {
		docs[i] = Tokenize(HTMLFor(rng, d))
	}
	short := NewLDA(6)
	short.Fit(docs, 1, sim.NewRand(1))
	long := NewLDA(6)
	long.Fit(docs, 80, sim.NewRand(1))
	ps, pl := short.Perplexity(), long.Perplexity()
	if !(pl > 0 && ps > 0) {
		t.Fatalf("perplexities: short=%v long=%v", ps, pl)
	}
	if pl >= ps {
		t.Fatalf("fit did not improve perplexity: 1 iter = %.1f, 80 iters = %.1f", ps, pl)
	}
}
