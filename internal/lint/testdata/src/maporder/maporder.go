// Package maporder seeds every ordered-sink shape the analyzer must flag —
// and every provably order-insensitive shape it must not.
package maporder

import (
	"fmt"
	"sort"
	"strings"

	"tspusim/internal/report"
)

// appendNoSort leaks map order into a slice that is never sorted.
func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order is random but the loop body appends to a slice`
		keys = append(keys, k)
	}
	return keys
}

// appendThenSort is the canonical legal pattern: collect, then sort.
func appendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// builderWrite renders directly from iteration order.
func builderWrite(m map[string]int) string {
	var b strings.Builder
	for k, v := range m { // want `map iteration order is random but the loop body writes via fmt\.Fprintf`
		fmt.Fprintf(&b, "%s=%d\n", k, v)
		b.WriteString(k)
	}
	return b.String()
}

// stringConcat is ordered concatenation, the += form of the same bug.
func stringConcat(m map[string]int) string {
	out := ""
	for k := range m { // want `map iteration order is random but the loop body concatenates onto a string`
		out += k
	}
	return out
}

// tableRows feeds the report layer, whose row order is presentation order.
func tableRows(m map[string]float64) *report.Table {
	t := report.NewTable("fixture", "key", "value")
	for k, v := range m { // want `map iteration order is random but the loop body adds ordered rows to a report table`
		t.AddRow(k, v)
	}
	return t
}

// docLines feeds a report Doc, whose part order is presentation order.
func docLines(m map[string]int) *report.Doc {
	d := new(report.Doc)
	for k, v := range m { // want `map iteration order is random but the loop body adds ordered parts to a report Doc`
		d.Textf("%s: %d\n", k, v)
	}
	return d
}

// reductions commute: sums, min/max, counters, and map-to-map writes need no
// directive and no sort.
func reductions(m map[string]int) (int, int, map[int]int, *report.Hist) {
	sum, max := 0, 0
	counts := map[int]int{}
	h := report.NewHist("fixture")
	for _, v := range m {
		sum += v
		if v > max {
			max = v
		}
		counts[v]++
		h.Add(v)
	}
	return sum, max, counts, h
}

// sliceRange is not a map: slices iterate in index order.
func sliceRange(xs []string) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteString(x)
	}
	return b.String()
}

// sortedElsewhere: sorting a different slice does not excuse the loop.
func sortedElsewhere(m map[string]int, other []string) []string {
	var keys []string
	for k := range m { // want `map iteration order is random but the loop body appends to a slice`
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}

// allowed demonstrates an inline justification (suppression is applied by
// the driver, not the analyzer, so this fixture line still wants a
// diagnostic here; the driver-level test proves it is then dropped).
func allowed(m map[string]int) []string {
	var keys []string
	//tspuvet:allow maporder: probe order is shuffled downstream by the caller
	for k := range m { // want `map iteration order is random but the loop body appends to a slice`
		keys = append(keys, k)
	}
	return keys
}
