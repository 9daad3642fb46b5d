// Package workload generates the testing inputs of §6: a Tranco-like top
// list augmented with Citizen-Lab-style test domains, a registry sample of
// domains added to Roskomnadzor's blocking registry since 2022-01-01,
// synthetic HTML pages for each domain, and an LDA topic model (collapsed
// Gibbs sampling, after Blei et al. [35] as used by Ramesh et al. [81]) that
// clusters the pages into the categories of Fig. 7.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"tspusim/internal/sim"
)

// Category labels follow Fig. 7.
type Category int

// Domain categories (Fig. 7).
const (
	CatCircumvention Category = iota
	CatProvocative
	CatTechnology
	CatPornography
	CatService
	CatStreaming
	CatPirating
	CatFinance
	CatGambling
	CatDrugs
	CatInformativeMedia
	CatErrorPage
	numCategories
)

var categoryNames = [...]string{
	"Circumvention", "Provocative", "Technology", "Pornography",
	"Service", "Streaming", "Pirating", "Finance", "Gambling",
	"Drugs", "Informative Media", "Error Page",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Categories returns all real categories (excluding Error Page).
func Categories() []Category {
	out := make([]Category, 0, numCategories-1)
	for c := Category(0); c < CatErrorPage; c++ {
		out = append(out, c)
	}
	return out
}

// keywords per category: both the generator vocabulary and the ground truth
// the topic model must recover.
var categoryKeywords = map[Category][]string{
	CatCircumvention:    {"vpn", "proxy", "tor", "bypass", "tunnel", "obfuscation", "bridge", "relay", "anonymity", "unblock"},
	CatProvocative:      {"opinion", "protest", "rights", "activism", "dissent", "controversy", "politics", "freedom", "petition", "corruption"},
	CatTechnology:       {"software", "developer", "cloud", "hardware", "startup", "opensource", "api", "mobile", "database", "encryption"},
	CatPornography:      {"adult", "explicit", "camgirl", "nsfw", "erotic", "mature", "xxx", "webcam", "fetish", "lust"},
	CatService:          {"delivery", "booking", "marketplace", "classifieds", "rental", "courier", "logistics", "subscription", "support", "account"},
	CatStreaming:        {"video", "stream", "episode", "movie", "series", "live", "broadcast", "playlist", "trailer", "subtitles"},
	CatPirating:         {"torrent", "magnet", "warez", "crack", "keygen", "rip", "seeders", "leech", "tracker", "repack"},
	CatFinance:          {"bank", "crypto", "exchange", "trading", "loan", "invest", "wallet", "forex", "broker", "payments"},
	CatGambling:         {"casino", "bets", "poker", "jackpot", "slots", "roulette", "odds", "bookmaker", "wager", "lottery"},
	CatDrugs:            {"pharmacy", "pills", "dosage", "stimulant", "prescription", "narcotic", "psychoactive", "dispensary", "synthesis", "supplement"},
	CatInformativeMedia: {"news", "journalist", "report", "editorial", "blog", "media", "headline", "coverage", "correspondent", "press"},
}

// Keywords returns the generator vocabulary of a category.
func Keywords(c Category) []string { return categoryKeywords[c] }

// Domain is one testing-input entry.
type Domain struct {
	Name     string
	Category Category
	// Rank is the Tranco-style popularity rank (0 = not ranked).
	Rank int
	// InRegistry marks registry membership; AddedAfterFeb24 marks the
	// out-registry-turned-registry wartime additions (Table 3's footnote).
	InRegistry      bool
	AddedAfterFeb24 bool
	// FromCLBL marks Citizen Lab Global Block List entries.
	FromCLBL bool
}

// WellKnown lists the concrete domains the paper names, with their blocking
// behaviors, so examples and tests exercise recognizable names. These are
// seeded into every generated Tranco list.
type WellKnown struct {
	Name     string
	Category Category
	SNI1     bool
	SNI2     bool
	SNI4     bool
	Throttle bool
}

// WellKnownDomains returns Table 3's named domains.
func WellKnownDomains() []WellKnown {
	return []WellKnown{
		{"facebook.com", CatInformativeMedia, true, false, false, false},
		{"web.facebook.com", CatInformativeMedia, true, false, true, false},
		{"twitter.com", CatInformativeMedia, true, false, true, true},
		{"t.co", CatInformativeMedia, true, false, true, false},
		{"twimg.com", CatInformativeMedia, true, false, true, false},
		{"instagram.com", CatInformativeMedia, true, false, false, false},
		{"cdninstagram.com", CatInformativeMedia, true, false, true, false},
		{"messenger.com", CatService, true, false, true, false},
		{"fbcdn.net", CatInformativeMedia, true, false, false, true},
		{"dw.com", CatInformativeMedia, true, false, false, false},
		{"meduza.io", CatInformativeMedia, true, false, false, false},
		{"bbc.com", CatInformativeMedia, true, false, false, false},
		{"theins.ru", CatInformativeMedia, true, false, false, false},
		{"infox.sg", CatInformativeMedia, true, false, false, false},
		{"tor.eff.org", CatCircumvention, true, false, false, false},
		{"googlesyndication.com", CatService, true, false, false, false},
		{"play.google.com", CatService, false, true, false, false},
		{"news.google.com", CatInformativeMedia, false, true, false, false},
		{"nordvpn.com", CatCircumvention, false, true, false, false},
		{"nordaccount.com", CatCircumvention, false, true, false, false},
		{"numbuster.ru", CatService, true, false, true, false},
	}
}

var tlds = []string{".com", ".ru", ".org", ".net", ".io", ".tv", ".me", ".su", ".info", ".biz"}

// nameFor appends a synthesized, plausible domain name,
// keyword-suffixSERIAL.tld, to b: a category keyword and a serial number. The
// three draws happen in this order; reordering them renames every generated
// domain.
func nameFor(b []byte, rng *sim.Rand, c Category, i int) []byte {
	kw := sim.Pick(rng, categoryKeywords[c])
	tld := sim.Pick(rng, tlds)
	suffix := suffixes[rng.Intn(len(suffixes))]
	b = append(b, kw...)
	b = append(b, '-')
	b = append(b, suffix...)
	b = strconv.AppendInt(b, int64(i), 10)
	return append(b, tld...)
}

// avgNameLen sizes the buffer a generated list's names are appended to; the
// default lists average 20 to 22 bytes a name.
const avgNameLen = 24

// setNames sets ds[i].Name to the i-th name appended to buf, which ends at
// ends[i]. Every name is a substring of one string, so a generated list costs
// one allocation for its names instead of one per name.
func setNames(ds []Domain, buf []byte, ends []int) {
	all := string(buf)
	start := 0
	for i, end := range ends {
		ds[i].Name = all[start:end]
		start = end
	}
}

var suffixes = []string{"hub", "zone", "portal", "club", "base", "center", "point", "world", "city", "lab"}

// TrancoOptions configures GenTranco.
type TrancoOptions struct {
	// N is the number of ranked domains (paper: 10,000 from Tranco plus
	// 1,325 CLBL extras for 11,325 total).
	N int
	// CLBL adds this many Citizen-Lab-style sensitive test domains.
	CLBL int
}

// GenTranco generates the Tranco-like ranked list, seeded with the paper's
// named domains at top ranks. Category mix for a general top list skews
// toward technology/service/streaming/media.
func GenTranco(rng *sim.Rand, opts TrancoOptions) []Domain {
	if opts.N == 0 {
		opts.N = 10000
	}
	if opts.CLBL == 0 {
		opts.CLBL = 1325
	}
	r := rng.Fork("tranco")
	wks := WellKnownDomains()
	out := make([]Domain, 0, max(opts.N, len(wks))+opts.CLBL)
	for i, wk := range wks {
		out = append(out, Domain{Name: wk.Name, Category: wk.Category, Rank: i + 1})
	}
	// General top-list category mix.
	mix := []Category{
		CatTechnology, CatTechnology, CatService, CatService, CatStreaming,
		CatInformativeMedia, CatInformativeMedia, CatFinance, CatPornography,
		CatProvocative,
	}
	generated := len(out)
	n := max(opts.N-generated, 0) + opts.CLBL
	names, ends := make([]byte, 0, n*avgNameLen), make([]int, 0, n)
	for i := len(out); i < opts.N; i++ {
		c := sim.Pick(r, mix)
		names = nameFor(names, r, c, i)
		ends = append(ends, len(names))
		out = append(out, Domain{Category: c, Rank: i + 1})
	}
	// CLBL: deliberately sensitive categories.
	clblMix := []Category{
		CatCircumvention, CatProvocative, CatPornography, CatInformativeMedia,
		CatGambling, CatDrugs, CatPirating,
	}
	for i := 0; i < opts.CLBL; i++ {
		c := sim.Pick(r, clblMix)
		names = nameFor(names, r, c, opts.N+i)
		ends = append(ends, len(names))
		out = append(out, Domain{Category: c, FromCLBL: true})
	}
	setNames(out[generated:], names, ends)
	return out
}

// RegistryOptions configures GenRegistry.
type RegistryOptions struct {
	// N is the sample size (paper: 10,000 domains added since 2022-01-01).
	N int
}

// afterFeb24Fraction is the share of the registry sample added after the
// invasion (wartime media blocks).
const afterFeb24Fraction = 0.12

// GenRegistry generates the registry sample. The category mix follows the
// paper's Fig. 7 finding: gambling, news/media, and streaming dominate.
func GenRegistry(rng *sim.Rand, opts RegistryOptions) []Domain {
	if opts.N == 0 {
		opts.N = 10000
	}
	r := rng.Fork("registry")
	// Weighted mix approximating Fig. 7's "All Sites" bars.
	mix := []Category{
		CatGambling, CatGambling, CatGambling, CatGambling,
		CatInformativeMedia, CatInformativeMedia, CatInformativeMedia,
		CatStreaming, CatStreaming,
		CatDrugs, CatDrugs,
		CatFinance, CatPirating, CatPornography, CatProvocative,
		CatService, CatCircumvention,
	}
	out := make([]Domain, 0, opts.N)
	names, ends := make([]byte, 0, opts.N*avgNameLen), make([]int, 0, opts.N)
	for i := 0; i < opts.N; i++ {
		c := sim.Pick(r, mix)
		names = nameFor(names, r, c, 100000+i)
		ends = append(ends, len(names))
		out = append(out, Domain{
			Category:        c,
			InRegistry:      true,
			AddedAfterFeb24: r.Bool(afterFeb24Fraction),
		})
	}
	setNames(out, names, ends)
	return out
}

// Names extracts domain names.
func Names(ds []Domain) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// HTMLFor renders a synthetic page for a domain: a title, navigation, and
// body text drawn from its category vocabulary. The LDA pipeline consumes
// these exactly as the paper consumed fetched HTML.
func HTMLFor(rng *sim.Rand, d Domain) string {
	r := rng.Fork("html/" + d.Name)
	kws := categoryKeywords[d.Category]
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s - %s</title></head><body>", d.Name, kws[0])
	fmt.Fprintf(&b, "<h1>%s</h1>", d.Name)
	for p := 0; p < 3; p++ {
		b.WriteString("<p>")
		for w := 0; w < 40; w++ {
			if r.Bool(0.6) {
				b.WriteString(sim.Pick(r, kws))
			} else {
				b.WriteString(sim.Pick(r, fillerWords))
			}
			b.WriteByte(' ')
		}
		b.WriteString("</p>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

var fillerWords = []string{
	"the", "and", "for", "with", "this", "that", "from", "here", "more",
	"page", "site", "home", "about", "contact", "terms", "privacy",
}

// Tokenize extracts lowercase word tokens from HTML, dropping tags and
// filler — the preprocessing stage of the clustering pipeline.
func Tokenize(html string) []string {
	var tokens []string
	inTag := false
	var cur strings.Builder
	flush := func() {
		if cur.Len() >= 3 {
			w := strings.ToLower(cur.String())
			if !stopwords[w] {
				tokens = append(tokens, w)
			}
		}
		cur.Reset()
	}
	for _, r := range html {
		switch {
		case r == '<':
			flush()
			inTag = true
		case r == '>':
			inTag = false
		case inTag:
		case (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

var stopwords = map[string]bool{
	"the": true, "and": true, "for": true, "with": true, "this": true,
	"that": true, "from": true, "here": true, "more": true, "page": true,
	"site": true, "home": true, "about": true, "contact": true,
	"terms": true, "privacy": true, "html": true, "body": true,
	"head": true, "title": true,
}
