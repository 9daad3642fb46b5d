package armsrace

import (
	"fmt"

	"tspusim/internal/censor"
	"tspusim/internal/circumvent"
	"tspusim/internal/fleet"
	"tspusim/internal/measure"
	"tspusim/internal/netem"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// runTrial evaluates one genome against one family under one posture on a
// fresh testbed: the applied countermeasures configure the censor and put
// their watchers in front of it, and circumvent.Trial runs the probe through
// it. The probe is explicit because the portability matrix replays a
// strategy on its *own* plane against every family, not on the column
// family's plane. A non-nil capt taps the censor link for golden traces.
func runTrial(fam Family, probe circumvent.Probe, applied []Countermeasure, g circumvent.Genome, capt *netem.Capture) circumvent.Verdict {
	var pre []func(s *sim.Sim) netem.Middlebox
	for _, cm := range applied {
		if cm.Watcher != nil {
			mk := cm.Watcher
			pre = append(pre, func(s *sim.Sim) netem.Middlebox { return mk() })
		}
	}
	tune := func(c *tspu.Config) {
		for _, cm := range applied {
			if cm.Reconfig != nil {
				cm.Reconfig(c)
			}
		}
	}
	t := topo.BuildCensorTestbedBare(func(s *sim.Sim) censor.Censor {
		return fam.Build(s, tune)
	}, pre...)
	if capt != nil {
		t.Link.Tap(capt)
	}
	return circumvent.Trial(measure.TestbedPath(t), circumvent.Strategy{Genome: g}, probe)
}

// evalCtx evaluates genomes for one (family, posture, round), fanning each
// generation out across fleet workers. Trials are pure functions of
// (family, posture, genome) — every one builds a fresh testbed — so results
// only need to land in plan order for the whole race to be byte-identical at
// any worker count.
type evalCtx struct {
	fam     Family
	applied []Countermeasure
	workers int
	label   string
	cache   map[circumvent.Genome]circumvent.Verdict
}

func newEvalCtx(fam Family, applied []Countermeasure, workers int, label string) *evalCtx {
	return &evalCtx{fam: fam, applied: applied, workers: workers, label: label,
		cache: make(map[circumvent.Genome]circumvent.Verdict)}
}

// evalAll runs every uncached, non-noop genome as one fleet batch.
//
//tspuvet:impure the fleet runner reads wall time for worker metrics; verdict bytes are seed-pure
func (ec *evalCtx) evalAll(gs []circumvent.Genome) {
	var uniq []circumvent.Genome
	batched := make(map[circumvent.Genome]bool)
	for _, g := range gs {
		if g.IsNoop() || batched[g] {
			continue
		}
		if _, done := ec.cache[g]; done {
			continue
		}
		batched[g] = true
		uniq = append(uniq, g)
	}
	if len(uniq) == 0 {
		return
	}
	// Each job writes its verdict into its own slot. The runner has no
	// timeout, so every job has returned before Run does.
	verdicts := make([]circumvent.Verdict, len(uniq))
	jobs := fleet.Plan(CorpusSeed, []string{ec.label}, 1, len(uniq))
	rep := fleet.NewRunner(fleet.Config{Workers: ec.workers}).Run(jobs, func(job fleet.Job) (string, []fleet.Stat, error) {
		verdicts[job.Shard] = runTrial(ec.fam, ec.fam.Probe, ec.applied, uniq[job.Shard], nil)
		return "", nil, nil
	})
	for i, res := range rep.Results {
		if res.Err != nil {
			panic(fmt.Sprintf("armsrace: trial %s genome %q: %v", ec.label, uniq[i], res.Err))
		}
		ec.cache[uniq[i]] = verdicts[i]
	}
}

// verdict returns one genome's verdict, evaluating on miss.
func (ec *evalCtx) verdict(g circumvent.Genome) circumvent.Verdict {
	if g.IsNoop() {
		return circumvent.Verdict{} // the noop baseline is evaluated explicitly, never here
	}
	ec.evalAll([]circumvent.Genome{g})
	return ec.cache[g]
}

// batch is the evolve.BatchFitness adapter: 1 if the genome evades this
// family under this posture, else 0.
func (ec *evalCtx) batch(gs []circumvent.Genome) []int {
	ec.evalAll(gs)
	fits := make([]int, len(gs))
	for i, g := range gs {
		if !g.IsNoop() && ec.cache[g].Evaded {
			fits[i] = 1
		}
	}
	return fits
}
