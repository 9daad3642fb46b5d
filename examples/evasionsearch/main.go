// Evasion search demo: run the Geneva-style genetic search against the TSPU
// model and watch it rediscover the paper's §8 strategies — segmentation,
// fragmentation, padding and record-prepending — while learning that
// TTL-limited junk insertion no longer works.
package main

import (
	"fmt"

	"tspusim"
	"tspusim/internal/circumvent"
	"tspusim/internal/evolve"
)

func main() {
	lab := tspusim.NewLab(tspusim.Options{Seed: 13, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})

	results := evolve.Search(lab, lab.US1, evolve.SearchOptions{Population: 16, Generations: 8})
	fmt.Print(evolve.Render(results))

	// Show the simplest winner: one gene that evades every §8 target.
	targets := len(circumvent.Targets())
	for _, d := range results {
		if d.Fitness == targets && d.Genome.Complexity() == 1 {
			fmt.Printf("\nsimplest full evasion: %s\n", d.Genome)
			fmt.Println("matches a §8 strategy the paper documented by hand —")
			fmt.Println("the search found it with no knowledge of the device internals.")
			break
		}
	}

	// And the negative result: junk insertion alone never wins.
	junkFailures := 0
	for _, d := range results {
		g := d.Genome
		if g.JunkTTL > 0 && g.SegmentSize == 0 && g.FragmentPayload == 0 &&
			g.PadBeforeSNI == 0 && !g.PrependRecord && d.Fitness == 0 {
			junkFailures++
		}
	}
	if junkFailures > 0 {
		fmt.Printf("\njunk-only candidates evaluated and defeated: %d (the paper: \"mitigated\")\n", junkFailures)
	}
}
