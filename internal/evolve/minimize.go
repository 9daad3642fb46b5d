package evolve

import (
	"tspusim/internal/circumvent"
	"tspusim/internal/sim"
)

// Shrink is one-minimal ddmin over the gene space: it repeatedly clears any
// single gene whose removal keeps the predicate true, until no single
// removal survives. Gene order is fixed, so the result is a pure function of
// (g, keep). The all-zero genome is never offered to keep — an empty
// strategy is no strategy, even if the predicate would vacuously accept it.
func Shrink(g circumvent.Genome, keep func(circumvent.Genome) bool) circumvent.Genome {
	for changed := true; changed; {
		changed = false
		for i := 0; i < circumvent.NumGenes; i++ {
			c := g.Without(i)
			if c == g || c.IsNoop() {
				continue
			}
			if keep(c) {
				g = c
				changed = true
			}
		}
	}
	return g
}

// BatchFitness evaluates one generation of candidates, in order, and returns
// a fitness per candidate. Candidates may repeat; callers that evaluate
// against shared mutable state (one Lab) must evaluate every element in
// slice order, while pure evaluators (fresh testbed per genome) are free to
// fan the batch out across workers as long as results land in order.
type BatchFitness func(gs []circumvent.Genome) []int

// SearchBatch is the generic genetic loop behind Search: generation-batched
// evaluation against any fitness function, so the same elite/mutate schedule
// can run against a Lab's TSPU fleet or an arbitrary censor.Censor testbed.
// All randomness comes from r; children of a generation are drawn from the
// sorted elite before any of them is evaluated, so the rand stream never
// depends on fitness results within a generation — which is what lets the
// batch fan out across fleet workers without changing the search.
func SearchBatch(r *sim.Rand, opts SearchOptions, fitness BatchFitness) []Discovered {
	if opts.Population == 0 {
		opts.Population = 14
	}
	if opts.Generations == 0 {
		opts.Generations = 6
	}

	seen := map[string]bool{}
	var all []Discovered
	evalBatch := func(gs []circumvent.Genome) []Discovered {
		fits := fitness(gs)
		ds := make([]Discovered, len(gs))
		for i, g := range gs {
			ds[i] = Discovered{Genome: g, Fitness: fits[i]}
			if !seen[g.String()] {
				seen[g.String()] = true
				all = append(all, ds[i])
			}
		}
		return ds
	}

	gen0 := make([]circumvent.Genome, 0, opts.Population)
	for i := 0; i < opts.Population; i++ {
		gen0 = append(gen0, Random(r))
	}
	pop := evalBatch(gen0)
	for gen := 1; gen < opts.Generations; gen++ {
		sortDiscovered(pop)
		elite := pop[:len(pop)/2]
		children := make([]circumvent.Genome, 0, opts.Population-len(elite))
		for len(elite)+len(children) < opts.Population {
			parent := elite[r.Intn(len(elite))].Genome
			children = append(children, Mutate(parent, r))
		}
		next := append([]Discovered{}, elite...)
		pop = append(next, evalBatch(children)...)
	}

	sortDiscovered(all)
	return all
}
