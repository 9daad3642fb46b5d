// Circumvention demo: run the §8 evasion strategies against the TSPU's
// blocking behaviors, first across a single symmetric device (ER-Telecom to
// the US), then through a path with an upstream-only device (OBIT to Paris)
// where server-side tricks partially fail. Each cell is one
// circumvent.Trial: the strategy's genes (or ClientHello builder) against
// one target Probe, judged on whether the blocked connection stays usable.
package main

import (
	"fmt"

	"tspusim"
	"tspusim/internal/circumvent"
	"tspusim/internal/topo"
)

func main() {
	lab := tspusim.NewLab(tspusim.Options{Seed: 8, Endpoints: 50, ASes: 5, TrancoN: 100, RegistryN: 100})

	fmt.Print(circumvent.Render(
		"Strategies vs one symmetric TSPU (ER-Telecom -> US measurement machine)",
		circumvent.Matrix(lab, topo.ERTelecom, lab.US1)))

	fmt.Println()
	fmt.Print(circumvent.Render(
		"Strategies through an upstream-only TSPU (OBIT -> Paris): note SNI-II",
		circumvent.Matrix(lab, topo.OBIT, lab.Paris)))

	fmt.Println("\nNotes:")
	for _, s := range circumvent.Strategies() {
		fmt.Printf("  %-24s %s\n", s.Name, s.Notes)
	}
}
