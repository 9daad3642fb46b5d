package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1", "Vantage", "SNI-I", "QUIC")
	tb.AddRow("rostelecom", 0.084, "0.02%")
	tb.AddRow("obit", 0.14, "0.00%")
	s := tb.String()
	if !strings.Contains(s, "Table 1") || !strings.Contains(s, "rostelecom") {
		t.Fatalf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	if tb.NumRows() != 2 {
		t.Fatal("NumRows wrong")
	}
	// Columns aligned: header and rows share the first column width.
	if !strings.HasPrefix(lines[3], "rostelecom") {
		t.Fatalf("alignment broken:\n%s", s)
	}
}

func TestHist(t *testing.T) {
	h := NewHist("hops")
	for i := 0; i < 7; i++ {
		h.Add(1)
	}
	h.AddN(2, 3)
	h.Add(5)
	if h.Total() != 11 || h.Count(1) != 7 {
		t.Fatalf("total=%d count1=%d", h.Total(), h.Count(1))
	}
	got := h.FracAtOrBelow(2)
	if got < 0.90 || got > 0.92 {
		t.Fatalf("FracAtOrBelow(2) = %v", got)
	}
	s := h.String()
	if !strings.Contains(s, "#") || !strings.Contains(s, "hops") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestContingency(t *testing.T) {
	c := &Contingency{Title: "IP vs Echo", RowName: "IP", ColName: "Echo"}
	for i := 0; i < 673; i++ {
		c.Add(false, false)
	}
	for i := 0; i < 12; i++ {
		c.Add(false, true)
	}
	for i := 0; i < 44; i++ {
		c.Add(true, false)
	}
	for i := 0; i < 405; i++ {
		c.Add(true, true)
	}
	if c.Total() != 1134 {
		t.Fatalf("total = %d", c.Total())
	}
	h := c.Hamming()
	if h < 0.049 || h > 0.050 {
		t.Fatalf("hamming = %v, want ~0.0494 (Table 5)", h)
	}
	if !strings.Contains(c.String(), "Hamming") {
		t.Fatal("render missing hamming")
	}
}

func TestEmptyHistAndContingency(t *testing.T) {
	h := NewHist("empty")
	if h.FracAtOrBelow(5) != 0 {
		t.Fatal("empty hist frac")
	}
	c := &Contingency{}
	if c.Hamming() != 0 {
		t.Fatal("empty contingency hamming")
	}
}

func statMap(stats []Stat) map[string]float64 {
	m := map[string]float64{}
	for _, s := range stats {
		m[s.Key] = s.Value
	}
	return m
}

// A Doc renders its blocks in order and emits their typed values as stats;
// string cells and numbers written into a format literal never become stats.
func TestDocStringAndStats(t *testing.T) {
	tb := NewTable("Fig. 9 (200 endpoints)", "Port", "Endpoints", "Rate", "Paper")
	tb.AddRow(443, 17, Numf("%.1f%%", 100.0/3), "25.31%")
	tb.AddRow(80, 24, Numf("%.1f%%", 12.5), "")
	d := new(Doc).
		Add(tb).
		Textf("total: %d/%d endpoints (%.2f%%; paper: 25.31%%)\n", 41, 188, 21.8).
		Textf("%s: blocked=%v\n", "rostelecom", true).
		Text("paper: 6,871 links\n")
	want := tb.String() +
		"total: 41/188 endpoints (21.80%; paper: 25.31%)\n" +
		"rostelecom: blocked=true\n" +
		"paper: 6,871 links\n"
	if d.String() != want {
		t.Fatalf("Doc.String:\n%s\nwant:\n%s", d, want)
	}
	if !strings.Contains(d.String(), "33.3%") {
		t.Fatalf("Num cell lost its format:\n%s", d)
	}
	got := statMap(d.Stats())
	wantStats := map[string]float64{
		"443/Endpoints": 17, "443/Rate": 100.0 / 3,
		"80/Endpoints": 24, "80/Rate": 12.5,
		"total[0]": 41, "total[1]": 188, "total[2]": 21.8,
		"rostelecom: blocked": 1,
	}
	if len(got) != len(wantStats) || len(d.Stats()) != len(wantStats) {
		t.Fatalf("stats = %v, want %v", d.Stats(), wantStats)
	}
	for k, v := range wantStats {
		if got[k] != v {
			t.Errorf("stat %q = %v, want %v (all: %v)", k, got[k], v, d.Stats())
		}
	}
}

// Sections prefix keys so same-shaped blocks stay distinct; LabelCols and
// Keyed cells control how rows are named.
func TestDocSectionsAndRowLabels(t *testing.T) {
	per := func(n int) *Doc {
		tb := NewTable("", "Verdict", "Count")
		tb.AddRow("ok", n)
		return new(Doc).Add(tb)
	}
	d := new(Doc).Section("rostelecom", per(3)).Section("obit", per(5))
	if got := statMap(d.Stats()); got["rostelecom/ok/Count"] != 3 || got["obit/ok/Count"] != 5 {
		t.Fatalf("section stats = %v", d.Stats())
	}

	rounds := NewTable("", "Censor", "Round", "Cands", "Survived")
	rounds.LabelCols = 2
	rounds.AddRow("tspu", 1, 24, Mark(true))
	rounds.AddRow("tspu", 2, 19, Mark(false))
	if !strings.Contains(rounds.String(), "tspu    1      24     x") {
		t.Fatalf("Mark render:\n%s", rounds)
	}
	want := []Stat{{Key: "tspu/1/Cands", Value: 24}, {Key: "tspu/1/Survived", Value: 1},
		{Key: "tspu/2/Cands", Value: 19}, {Key: "tspu/2/Survived", Value: 0}}
	if got := rounds.Stats(); len(got) != len(want) {
		t.Fatalf("LabelCols stats = %v", got)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("stat %d = %v, want %v", i, got[i], want[i])
			}
		}
	}

	bounds := NewTable("", "Bound", "Peak")
	bounds.AddRow(Keyed{Key: "bound[1]", Text: "458400"}, 114689)
	if !strings.Contains(bounds.String(), "458400") || bounds.Stats()[0].Key != "bound[1]/Peak" {
		t.Fatalf("Keyed row: %v\n%s", bounds.Stats(), bounds)
	}
}

// Histograms emit one stat per bucket; contingency matrices their cells and
// Hamming distance.
func TestHistAndContingencyStats(t *testing.T) {
	h := NewHist("hops")
	h.AddN(2, 3)
	h.Add(1)
	if got := h.Stats(); len(got) != 2 || got[0] != (Stat{Key: "1", Value: 1}) || got[1] != (Stat{Key: "2", Value: 3}) {
		t.Fatalf("hist stats = %v", got)
	}
	c := &Contingency{RowName: "IP", ColName: "Echo", NN: 6, NB: 1, BN: 1, BB: 2}
	got := statMap(c.Stats())
	if got["IP (N)/Echo (N)"] != 6 || got["IP (B)/Echo (B)"] != 2 || got["Hamming distance"] != 0.2 || len(got) != 5 {
		t.Fatalf("contingency stats = %v", c.Stats())
	}
}
