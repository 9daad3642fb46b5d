// Package report is the typed result every experiment returns: a Doc of
// ordered blocks — aligned text tables, histograms, contingency matrices,
// and formatted prose lines — the forms the paper's tables and figures take.
// The same typed values render the plain-text artifact (Doc.String) and feed
// multi-seed aggregation (Doc.Stats), so no number is ever parsed back out
// of rendered text. It is deliberately dependency-free so every experiment's
// output is plain text reproducible in CI logs.
package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Stat is one labelled numeric observation.
type Stat struct {
	Key   string
	Value float64
}

// Block is one part of a Doc: it renders itself and reports its numeric
// observations, keyed relative to the block.
type Block interface {
	String() string
	Stats() []Stat
}

// Doc is an ordered list of blocks. The zero value is an empty Doc.
type Doc struct {
	parts []part
}

type part struct {
	section string // stat key prefix; "" for none
	block   Block
}

// Add appends blocks.
func (d *Doc) Add(blocks ...Block) *Doc {
	for _, b := range blocks {
		d.Section("", b)
	}
	return d
}

// Section appends b with its stat keys prefixed by name + "/", so
// same-shaped blocks (one per vantage, one per survey) keep unique keys.
func (d *Doc) Section(name string, b Block) *Doc {
	d.parts = append(d.parts, part{section: name, block: b})
	return d
}

// Textf appends prose rendered as fmt.Sprintf(format, args...). Its stats
// come from the typed arguments (see Stats).
func (d *Doc) Textf(format string, args ...any) *Doc {
	return d.Add(&prose{format: format, args: args})
}

// Text appends verbatim text that carries no stats.
func (d *Doc) Text(s string) *Doc { return d.Textf("%s", s) }

// String renders every block in order.
func (d *Doc) String() string {
	var b strings.Builder
	for _, p := range d.parts {
		b.WriteString(p.block.String())
	}
	return b.String()
}

// Stats returns every block's stats in order, section-prefixed. Keys are
// unique within a Doc, so replicas of one experiment aggregate key by key.
func (d *Doc) Stats() []Stat {
	var out []Stat
	for _, p := range d.parts {
		for _, s := range p.block.Stats() {
			if p.section != "" {
				s.Key = p.section + "/" + s.Key
			}
			out = append(out, s)
		}
	}
	return out
}

// Num is a number that prints with its own format, for table cells whose
// text is not the default rendering (percentages, units).
type Num struct {
	V   float64
	Fmt string
}

// Numf returns v printed with format.
func Numf(format string, v float64) Num { return Num{V: v, Fmt: format} }

func (n Num) String() string { return fmt.Sprintf(n.Fmt, n.V) }

// Mark is a boolean table cell printed "x" or "-".
type Mark bool

func (m Mark) String() string {
	if m {
		return "x"
	}
	return "-"
}

// Keyed is a row-label cell printed as Text whose rows are keyed as Key:
// for labels that are themselves seed-dependent numbers, such as a
// provisioning bound scaled to the population.
type Keyed struct {
	Key, Text string
}

func (k Keyed) String() string { return k.Text }

// value returns a typed cell or argument's numeric value. Ints, float64s,
// Num, and booleans and Mark (as 1 or 0) are values; strings and every other
// type — durations, enums, identifiers, other integer widths — are text.
func value(a any) (float64, bool) {
	switch v := a.(type) {
	case int:
		return float64(v), true
	case float64:
		return v, true
	case Num:
		return v.V, true
	case Mark:
		return value(bool(v))
	case bool:
		if v {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// prose is a formatted text fragment that keeps its typed arguments.
type prose struct {
	format string
	args   []any
}

func (p *prose) String() string { return fmt.Sprintf(p.format, p.args...) }

// Stats keys each numeric argument by the prose label: the format literal
// before the first numeric verb, with the string arguments before it
// substituted, whitespace collapsed and edge punctuation trimmed. With more
// than one numeric argument each key carries its position, label[i].
// Numbers written inside the literal are reference constants, never stats.
func (p *prose) Stats() []Stat {
	var label string
	var vals []float64
	n := 0 // arguments consumed
	for i := 0; i < len(p.format); i++ {
		if p.format[i] != '%' {
			continue
		}
		j := i + 1 + strings.IndexFunc(p.format[i+1:], func(r rune) bool { return !strings.ContainsRune("+-# 0123456789.", r) })
		if p.format[j] != '%' && n < len(p.args) {
			if v, ok := value(p.args[n]); ok {
				if vals == nil {
					label = fmt.Sprintf(p.format[:i], p.args[:n]...)
				}
				vals = append(vals, v)
			}
			n++
		}
		i = j
	}
	key := strings.Trim(strings.Join(strings.Fields(label), " "), " :=([<>-")
	out := make([]Stat, len(vals))
	for i, v := range vals {
		out[i] = Stat{Key: key, Value: v}
		if len(vals) > 1 {
			out[i].Key = fmt.Sprintf("%s[%d]", key, i)
		}
	}
	return out
}

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	// LabelCols is how many leading cells name a row in stat keys; 0 means 1.
	LabelCols int
	rows      [][]string // rendered cells
	cells     [][]any    // typed cells
}

// NewTable creates a table with headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of typed cells; float64 prints with %.4g, anything
// else with %v (Num, Mark and Keyed carry their own rendering).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
	t.cells = append(t.cells, append([]any(nil), cells...))
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Stats returns every numeric cell outside the label columns, keyed
// "<row label>/<column header>". String cells are never stats.
func (t *Table) Stats() []Stat {
	n := max(t.LabelCols, 1)
	var out []Stat
	for ri, r := range t.cells {
		label := append([]string(nil), t.rows[ri][:min(n, len(r))]...)
		for i := range label {
			if k, ok := r[i].(Keyed); ok {
				label[i] = k.Key
			}
		}
		for i := n; i < len(r) && i < len(t.Headers); i++ {
			if v, ok := value(r[i]); ok {
				out = append(out, Stat{Key: strings.Join(label, "/") + "/" + t.Headers[i], Value: v})
			}
		}
	}
	return out
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Hist is an integer-bucket histogram rendered with bars.
type Hist struct {
	Title  string
	counts map[int]int
	total  int
}

// NewHist creates an empty histogram.
func NewHist(title string) *Hist {
	return &Hist{Title: title, counts: make(map[int]int)}
}

// Add increments bucket b.
func (h *Hist) Add(b int) {
	h.counts[b]++
	h.total++
}

// AddN increments bucket b by n.
func (h *Hist) AddN(b, n int) {
	h.counts[b] += n
	h.total += n
}

// Count returns the count in bucket b.
func (h *Hist) Count(b int) int { return h.counts[b] }

// Total returns the number of samples.
func (h *Hist) Total() int { return h.total }

// FracAtOrBelow returns the fraction of samples in buckets <= b.
func (h *Hist) FracAtOrBelow(b int) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for k, c := range h.counts {
		if k <= b {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

func (h *Hist) buckets() []int {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Stats returns each bucket's count keyed by the bucket value.
func (h *Hist) Stats() []Stat {
	var out []Stat
	for _, k := range h.buckets() {
		out = append(out, Stat{Key: strconv.Itoa(k), Value: float64(h.counts[k])})
	}
	return out
}

// String renders the histogram with proportional bars.
func (h *Hist) String() string {
	maxC := 1
	for _, c := range h.counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", h.Title)
	}
	for _, k := range h.buckets() {
		c := h.counts[k]
		bar := strings.Repeat("#", 1+c*40/maxC)
		fmt.Fprintf(&b, "%4d | %-41s %d (%.1f%%)\n", k, bar, c, 100*float64(c)/float64(h.total))
	}
	return b.String()
}

// Contingency is a 2x2 contingency matrix with Hamming distance, matching
// Table 5's presentation.
type Contingency struct {
	Title            string
	RowName, ColName string
	// NN, NB, BN, BB: counts by (row, col) where N=negative, B=positive.
	NN, NB, BN, BB int
}

// Add records one observation.
func (c *Contingency) Add(row, col bool) {
	switch {
	case !row && !col:
		c.NN++
	case !row && col:
		c.NB++
	case row && !col:
		c.BN++
	default:
		c.BB++
	}
}

// Total returns the number of observations.
func (c *Contingency) Total() int { return c.NN + c.NB + c.BN + c.BB }

// Hamming returns the fraction of disagreeing observations, the metric
// Table 5 reports.
func (c *Contingency) Hamming() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.NB+c.BN) / float64(t)
}

// doc lays the matrix out as a table plus its Hamming line.
func (c *Contingency) doc() *Doc {
	t := NewTable(c.Title, "", c.ColName+" (N)", c.ColName+" (B)")
	t.AddRow(c.RowName+" (N)", c.NN, c.NB)
	t.AddRow(c.RowName+" (B)", c.BN, c.BB)
	return new(Doc).Add(t).Textf("Hamming distance: %.4f\n", c.Hamming())
}

// Stats returns the four cells and the Hamming distance.
func (c *Contingency) Stats() []Stat { return c.doc().Stats() }

// String renders the matrix.
func (c *Contingency) String() string { return c.doc().String() }
