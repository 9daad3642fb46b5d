// Package fleet fans independent (experiment, seed, shard) simulations out
// across a goroutine worker pool and merges their results into aggregate
// statistics.
//
// Parallelism lives strictly at whole-simulation granularity: each job builds
// its own single-threaded deterministic lab, so the fleet never synchronizes
// inside a simulation and determinism reduces to handing every job the same
// seed regardless of scheduling. Job seeds come from sim.StreamSeed, a pure
// function of (root seed, job label), which makes a sequential run and a
// 16-worker run byte-identical in their aggregate reports.
//
// A panicking job is captured as that job's error — with its stack preserved
// for diagnostics — and never kills the fleet. A timed-out attempt is retried
// once after a 100 ms pause; every other failure is final, because in a
// deterministic simulation it would only repeat.
package fleet

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"tspusim/internal/report"
	"tspusim/internal/sim"
)

// Job is one unit of fleet work: a single experiment run against a lab built
// from a derived seed, optionally on one shard of the endpoint population.
type Job struct {
	Index     int    // position in plan order; reports iterate in this order
	Exp       string // experiment ID
	SeedIndex int    // 0..seeds-1, the logical replica number
	Shard     int    // 0..Shards-1
	Shards    int    // total shards, so runners can split populations
	Seed      uint64 // derived lab seed: sim.StreamSeed(root, Label())
}

// Label names the job for seed derivation, logs, and reports.
func (j Job) Label() string { return jobLabel(j.Exp, j.SeedIndex, j.Shard) }

func jobLabel(exp string, seedIndex, shard int) string {
	return fmt.Sprintf("%s/seed=%d/shard=%d", exp, seedIndex, shard)
}

// Plan derives the deterministic job list for ids × seeds × shards. Every
// job's seed is a pure function of (root, job label), so the plan is
// identical no matter how it is later scheduled.
func Plan(root uint64, ids []string, seeds, shards int) []Job {
	if seeds < 1 {
		seeds = 1
	}
	if shards < 1 {
		shards = 1
	}
	jobs := make([]Job, 0, len(ids)*seeds*shards)
	for _, id := range ids {
		for s := 0; s < seeds; s++ {
			for sh := 0; sh < shards; sh++ {
				label := jobLabel(id, s, sh)
				jobs = append(jobs, Job{
					Index:     len(jobs),
					Exp:       id,
					SeedIndex: s,
					Shard:     sh,
					Shards:    shards,
					Seed:      sim.StreamSeed(root, label),
				})
			}
		}
	}
	return jobs
}

// Stat is one labelled numeric observation from a single job: a report
// Doc's typed stats, in emission order.
type Stat = report.Stat

// RunFunc executes one job and returns its rendered output plus ordered
// summary statistics for cross-seed aggregation.
type RunFunc func(Job) (output string, stats []Stat, err error)

// JobResult is the outcome of one job, including retry and timing metadata.
// Wall and Attempts are diagnostics and never enter aggregate reports (they
// vary run to run; the aggregate must not).
type JobResult struct {
	Job      Job
	Output   string
	Stats    []Stat
	Err      error
	Attempts int
	Wall     time.Duration
}

// Failed reports whether the job ended in error after all retries.
func (r *JobResult) Failed() bool { return r.Err != nil }

// PanicError reports a job that panicked. Error deliberately excludes the
// stack — goroutine IDs differ run to run and aggregate reports must be
// byte-stable — but Stack preserves it for diagnostics.
type PanicError struct {
	Label string
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// timeoutError reports an attempt that outlived Config.Timeout, the one
// failure the runner retries.
type timeoutError struct {
	label string
	limit time.Duration
}

func (e *timeoutError) Error() string {
	return fmt.Sprintf("fleet: job %s exceeded timeout %v", e.label, e.limit)
}

const (
	// retries is how many extra attempts a timed-out job gets.
	retries = 1
	// retryBackoff is the pause before a retry.
	retryBackoff = 100 * time.Millisecond
)

// Config tunes a Runner. The zero value is a sequential runner with no
// timeout.
type Config struct {
	// Workers is the goroutine pool size; values below 1 run sequentially.
	Workers int
	// Timeout caps one attempt's wall time; 0 disables. A timed-out attempt
	// is retried once (its goroutine is abandoned, never joined — acceptable
	// because jobs share no mutable state).
	Timeout time.Duration
	// OnUpdate, if set, receives a progress snapshot after every job
	// transition. It is called from worker goroutines and must be
	// goroutine-safe.
	OnUpdate func(Snapshot)
}

// Runner executes planned jobs across a worker pool.
type Runner struct {
	cfg Config
	m   metrics
}

// NewRunner builds a Runner from cfg.
func NewRunner(cfg Config) *Runner {
	r := &Runner{cfg: cfg}
	r.m.onUpdate = cfg.OnUpdate
	return r
}

// Run executes every job and returns the completed report. Results land in
// plan order regardless of which worker finished when, so everything derived
// from them is schedule-independent.
func (r *Runner) Run(jobs []Job, fn RunFunc) *Report {
	workers := r.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	r.m.begin(len(jobs))

	results := make([]JobResult, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runJob(jobs[i], fn)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	return &Report{Results: results, Metrics: r.m.snapshot()}
}

// runJob drives one job through its attempt/retry loop.
func (r *Runner) runJob(job Job, fn RunFunc) JobResult {
	r.m.jobStarted()
	res := JobResult{Job: job}
	start := time.Now() //tspuvet:allow walltime: per-job wall time is diagnostic metadata, excluded from aggregate reports
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		out, stats, err := r.attempt(job, fn)
		if err == nil {
			res.Output, res.Stats, res.Err = out, stats, nil
			break
		}
		res.Err = err
		if _, timedOut := err.(*timeoutError); !timedOut || attempt >= retries {
			break
		}
		r.m.jobRetried()
		time.Sleep(retryBackoff) //tspuvet:allow walltime: retry backoff paces real goroutines, not simulation events
	}
	res.Wall = time.Since(start) //tspuvet:allow walltime: diagnostic only; RenderAggregate never includes Wall
	r.m.jobDone(res.Wall, res.Failed())
	return res
}

// attempt runs fn once with panic isolation and the configured timeout. The
// job runs on its own goroutine so a panic unwinds there and a timeout can
// abandon it without killing the fleet.
func (r *Runner) attempt(job Job, fn RunFunc) (string, []Stat, error) {
	type outcome struct {
		out   string
		stats []Stat
		err   error
	}
	// Buffered so an abandoned (timed-out) attempt can still complete its
	// send and exit instead of leaking blocked forever.
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: &PanicError{
					Label: job.Label(),
					Value: p,
					Stack: string(debug.Stack()),
				}}
			}
		}()
		out, stats, err := fn(job)
		ch <- outcome{out: out, stats: stats, err: err}
	}()

	if r.cfg.Timeout <= 0 {
		oc := <-ch
		return oc.out, oc.stats, oc.err
	}
	timer := time.NewTimer(r.cfg.Timeout) //tspuvet:allow walltime: the per-attempt timeout bounds real wall time of a wedged job
	defer timer.Stop()
	select {
	case oc := <-ch:
		return oc.out, oc.stats, oc.err
	case <-timer.C:
		return "", nil, &timeoutError{label: job.Label(), limit: r.cfg.Timeout}
	}
}
