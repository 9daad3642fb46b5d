// Package evolve is a Geneva-style automated evasion search (Bock et al.,
// CCS 2019 — cited by the paper as [38]) run against the TSPU model: a small
// genetic search over circumvent.Genome packet manipulations, each candidate
// scored by circumvent.Trial against the §8 targets, that rediscovers,
// without being told about them, the §8 strategies that work —
// segmentation, fragmentation, padding-before-SNI, record-prepending — and
// learns that TTL-limited junk no longer helps. Because the device model is
// the paper's executable spec, anything the search finds here is a strategy
// the paper's observations imply should work against the real device.
package evolve

import (
	"fmt"
	"sort"

	"tspusim/internal/circumvent"
	"tspusim/internal/hostnet"
	"tspusim/internal/measure"
	"tspusim/internal/report"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
)

// Random draws a genome with a bias toward few active genes.
func Random(r *sim.Rand) circumvent.Genome {
	var g circumvent.Genome
	if r.Bool(0.4) {
		g.SegmentSize = 16 * r.IntRange(1, 16) // 16..256
	}
	if r.Bool(0.3) {
		g.FragmentPayload = 8 * r.IntRange(2, 16) // 16..128
	}
	if r.Bool(0.3) {
		g.PadBeforeSNI = 50 * r.IntRange(1, 14) // 50..700
	}
	if r.Bool(0.25) {
		g.PrependRecord = true
	}
	if r.Bool(0.25) {
		g.JunkTTL = r.IntRange(1, 5)
	}
	if r.Bool(0.2) {
		g.ServerWindow = 50 * r.IntRange(1, 6) // 50..300
	}
	if r.Bool(0.15) {
		g.ServerSplit = true
	}
	if r.Bool(0.1) {
		g.ServerDelaySec = []int{30, 61, 70}[r.Intn(3)]
	}
	return g
}

// Mutate flips or perturbs one gene.
func Mutate(g circumvent.Genome, r *sim.Rand) circumvent.Genome {
	switch r.Intn(8) {
	case 0:
		if g.SegmentSize == 0 {
			g.SegmentSize = 16 * r.IntRange(1, 16)
		} else if r.Bool(0.5) {
			g.SegmentSize = 0
		} else {
			g.SegmentSize = 16 * r.IntRange(1, 16)
		}
	case 1:
		if g.FragmentPayload == 0 {
			g.FragmentPayload = 8 * r.IntRange(2, 16)
		} else {
			g.FragmentPayload = 0
		}
	case 2:
		if g.PadBeforeSNI == 0 {
			g.PadBeforeSNI = 50 * r.IntRange(1, 14)
		} else {
			g.PadBeforeSNI = 0
		}
	case 3:
		g.PrependRecord = !g.PrependRecord
	case 4:
		if g.JunkTTL == 0 {
			g.JunkTTL = r.IntRange(1, 5)
		} else {
			g.JunkTTL = 0
		}
	case 5:
		if g.ServerWindow == 0 {
			g.ServerWindow = 50 * r.IntRange(1, 6)
		} else {
			g.ServerWindow = 0
		}
	case 6:
		g.ServerSplit = !g.ServerSplit
	default:
		if g.ServerDelaySec == 0 {
			g.ServerDelaySec = []int{30, 61, 70}[r.Intn(3)]
		} else {
			g.ServerDelaySec = 0
		}
	}
	return g
}

// Discovered is one search result.
type Discovered struct {
	Genome  circumvent.Genome
	Fitness int // targets evaded (0..len(Targets))
}

// SearchOptions tune the genetic search.
type SearchOptions struct {
	Population  int // default 14
	Generations int // default 6
}

// sortDiscovered orders candidates by fitness (descending), then simplicity,
// keeping discovery order among ties.
func sortDiscovered(ds []Discovered) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Fitness != ds[j].Fitness {
			return ds[i].Fitness > ds[j].Fitness
		}
		return ds[i].Genome.Complexity() < ds[j].Genome.Complexity()
	})
}

// Search runs the genetic search from the ER-Telecom vantage against the lab
// and returns all evaluated candidates sorted by fitness (descending), then
// simplicity. Full-fitness winners are ddmin-shrunk to one-minimal genomes
// before reporting, so the top of the list names the necessary mechanisms,
// not whatever junk genes a random draw happened to carry along.
func Search(lab *topo.Lab, server *hostnet.Stack, opts SearchOptions) []Discovered {
	r := lab.Rand.Fork("evolve")
	path := measure.Path{Sim: lab.Sim, Local: lab.Vantages[topo.ERTelecom].Stack, Remote: server}
	targets := circumvent.Targets()

	fitness := func(g circumvent.Genome) int {
		if g.IsNoop() {
			return 0
		}
		n := 0
		for _, t := range targets {
			if circumvent.Trial(path, circumvent.Strategy{Genome: g}, t).Evaded {
				n++
			}
		}
		return n
	}

	all := SearchBatch(r, opts, func(gs []circumvent.Genome) []int {
		// The lab is shared mutable state, so candidates — duplicates
		// included — are evaluated strictly in slice order, preserving the
		// exact evaluation sequence of the pre-batch search.
		fits := make([]int, len(gs))
		for i, g := range gs {
			fits[i] = fitness(g)
		}
		return fits
	})

	// Shrink after the search so the extra evaluations never perturb the
	// evaluation sequence the search itself saw. A memo keeps the repeated
	// sub-genome probes cheap: shrunk winners funnel through the same small
	// set of single-gene forms.
	memo := map[circumvent.Genome]int{}
	memoFit := func(g circumvent.Genome) int {
		if f, ok := memo[g]; ok {
			return f
		}
		f := fitness(g)
		memo[g] = f
		return f
	}
	out := make([]Discovered, 0, len(all))
	seen := map[string]bool{}
	for _, d := range all {
		if d.Fitness == len(targets) {
			d.Genome = Shrink(d.Genome, func(g circumvent.Genome) bool { return memoFit(g) == len(targets) })
		}
		if !seen[d.Genome.String()] {
			seen[d.Genome.String()] = true
			out = append(out, d)
		}
	}
	sortDiscovered(out)
	return out
}

// Render summarizes a search against the §8 targets.
// The ranked genome list carries no stats: a rank is not a stable key.
func Render(results []Discovered) *report.Doc {
	targets := len(circumvent.Targets())
	full, tried := 0, len(results)
	for _, d := range results {
		if d.Fitness == targets {
			full++
		}
	}
	doc := new(report.Doc).
		Text("== Geneva-style evasion search against the TSPU model ==\n").
		Textf("candidates evaluated: %d, ", tried).
		Textf("full evasions found: %d\n", full)
	top := results
	if len(top) > 8 {
		top = top[:8]
	}
	for _, d := range top {
		doc.Text(fmt.Sprintf("  fitness %d/%d  %s\n", d.Fitness, targets, d.Genome))
	}
	return doc
}
