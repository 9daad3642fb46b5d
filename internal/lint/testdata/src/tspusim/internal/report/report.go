// Package report is a fixture stub of the real tspusim/internal/report: the
// maporder analyzer recognizes its order-sensitive entry points by package
// path suffix and method name, so the fixture only needs matching shapes.
package report

type Table struct{ rows [][]string }

func NewTable(title string, headers ...string) *Table { return &Table{} }

// AddRow keeps row order — feeding it from a map range is a violation.
func (t *Table) AddRow(cells ...any) { t.rows = append(t.rows, nil) }

type Hist struct{ counts map[int]int }

func NewHist(title string) *Hist { return &Hist{counts: map[int]int{}} }

// Add is a commutative counter — legal from a map range.
func (h *Hist) Add(b int) { h.counts[b]++ }

type Doc struct{ parts []string }

// Textf appends in order — feeding it from a map range is a violation.
func (d *Doc) Textf(format string, args ...any) *Doc { d.parts = append(d.parts, format); return d }
