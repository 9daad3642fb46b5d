package tspusim

// Fleet glue: fan the experiment registry out across (experiment, seed,
// shard) jobs. Each job builds a private lab from a derived seed, so the
// single-threaded Sim stays untouched and parallelism lives strictly at
// whole-simulation granularity — which is what keeps determinism trivial:
// the aggregate report is byte-identical for any worker count.

import (
	"fmt"
	"sync"

	"tspusim/internal/fleet"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
)

// jobSims recycles Sims across fleet jobs: each job Gets an idle Sim, Resets
// it, and builds its lab on top, so the event freelist grown by one job
// serves the next. A job that panics simply never returns its Sim — the pool
// hands the next caller a fresh one.
var jobSims = sync.Pool{New: func() any { return sim.New() }}

// JobRunner returns the fleet RunFunc that builds a per-job lab from base
// options (with the job's derived seed, and the endpoint population split
// across shards) and executes the job's experiment on it.
func JobRunner(base Options) fleet.RunFunc {
	return func(job fleet.Job) (string, []fleet.Stat, error) {
		e, ok := Find(job.Exp)
		if !ok {
			return "", nil, fmt.Errorf("tspusim: unknown experiment %q", job.Exp)
		}
		s := jobSims.Get().(*sim.Sim)
		s.Reset()
		doc := e.Run(topo.BuildOn(s, jobOptions(base, job)))
		out, stats := e.Header()+"\n"+doc.String(), doc.Stats()
		jobSims.Put(s)
		return out, stats, nil
	}
}

// jobOptions derives a job's lab options from base: the job's seed, and the
// (defaulted) endpoint population split across the job's shards.
func jobOptions(base Options, job fleet.Job) Options {
	opts := base
	opts.Defaults()
	opts.Seed = job.Seed
	if job.Shards > 1 {
		opts.Endpoints /= job.Shards
		if opts.Endpoints < 1 {
			opts.Endpoints = 1
		}
	}
	return opts
}

// RunFleet plans and executes ids × seeds × shards jobs over the worker pool
// configured by cfg. base.Seed is the root seed every job seed is derived
// from; the returned report's RenderAggregate is identical for any
// cfg.Workers value.
//
//tspuvet:impure fleet orchestration reads wall time for worker metrics; aggregate report bytes are seed-pure
func RunFleet(base Options, ids []string, seeds, shards int, cfg fleet.Config) *fleet.Report {
	jobs := fleet.Plan(base.Seed, ids, seeds, shards)
	return fleet.NewRunner(cfg).Run(jobs, JobRunner(base))
}
