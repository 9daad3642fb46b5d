package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tspusim/internal/fleet"
	"tspusim/internal/measure"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// table1-fleet regenerates Table 1 the way the fleet does, as replicas over
// derived seeds: each round plans jobsPerRound jobs with fleet.Plan and runs
// them on a fleet.Runner with fleetWorkers workers. Each job builds a fresh
// default-scale lab from its seed and measures Table 1 on it with
// trialsPerCell trials per cell. The op is one trial. Every round of a seed
// runs the same plan, so rounds are equal work and must render the same
// aggregate.
//
// Jobs are small replicas (1,500 trials, about 40 ms) rather than the table1
// experiment's 30,000 trials, because a job is the finest segment the
// benchmark can time from outside (see fastest): a half-second job never
// finds an uncontended stretch on a busy host. Each job's thread is pinned to
// the next CPU, and the round has an odd number of jobs, so every job's
// repetitions alternate CPUs.
const (
	fleetWorkers  = 1
	jobsPerRound  = 7
	trialsPerCell = 100
	labBuilds     = 30 // fresh labs timed for setup_s
	// heapJobs labs are averaged for live_heap_mb. A lab's live heap varies
	// by up to 20% with its derived seed, so the 7 labs of a round gave a
	// spread of 9% over workload seeds.
	heapJobs = 28
)

var trialsPerJob = int64(len(measure.Vantages) * len(measure.ReliabilityTypes) * trialsPerCell)

func runTable1Fleet(a args) (*outcome, error) {
	base := topo.Options{Seed: a.seed}
	out := newOutcome()
	rot := newCPURotation()
	setup := newSetupProbe(a.budget(), labBuilds, func() { topo.BuildOn(sim.New(), base) })

	var want [sha256.Size]byte
	rounds := 0
	var jobWalls, speedups []float64
	fast := &fastest{}
	cellTag := fmt.Sprintf("(%d trials/cell)", trialsPerCell)
	round := func(tr *tracer) int64 {
		rep := runTable1(base, jobsPerRound, tr, rot)
		sum := sha256.Sum256([]byte(rep.RenderAggregate()))
		if rounds == 0 {
			want = sum
		}
		out.check(sum == want, "round %d rendered a different aggregate than round 0 of seed %d", rounds, a.seed)
		rounds++
		for _, r := range rep.Results {
			out.attempted += trialsPerJob
			if r.Failed() {
				out.failed += trialsPerJob
				out.check(false, "job %s failed: %v", r.Job.Label(), r.Err)
				continue
			}
			// The op count assumes the trial count; the rendered table
			// states it.
			out.check(strings.Contains(r.Output, cellTag), "job %s output lacks %q", r.Job.Label(), cellTag)
			jobWalls = append(jobWalls, r.Wall.Seconds())
			fast.observe(r.Job.Index, r.Wall)
		}
		speedups = append(speedups, rep.Metrics.Speedup())
		return int64(len(rep.Results)) * trialsPerJob
	}

	round(nil) // warm-up: fills the Sim pool and the ClientHello memo
	jobWalls, speedups, fast = nil, nil, &fastest{}
	p := runPhase(a.budget(), 3, func() int64 { return round(nil) }, setup)
	// A collection that runs mid-job also marks everything the job allocated
	// while it ran, and this workload allocates fast, so the phase's own
	// collections overstate the live heap by a varying amount. The heap of
	// record is taken where a job's state peaks, by forced collections, and
	// averaged over heapJobs jobs: their labs differ by up to 20% with the
	// seed, and one job's lab is all a Workers-1 fleet holds at a time.
	p.liveMax = peakLive(base, rot)
	out.endToEndValues(setup.seconds(), p, fast)
	if !a.trace {
		return out, nil
	}

	// The fleet metrics come from the untraced phase: they describe
	// scheduling, which the timing wrappers would distort.
	walls, spd := jobWalls, speedups
	tr := newTracer()
	tp := runPhase(a.budget(), 3, func() int64 { return round(tr) }, nil)

	trials := float64(tp.ops)
	job := tr.span("fleet.job", "")
	build := tr.span("topo.BuildOn", "fleet.job")
	exp := tr.span("measure.Reliability", "fleet.job")
	handle := tr.span("tspu.Device.Handle", "measure.Reliability")
	tailP, tail := tailPercentile(walls)
	v := out.values
	v["topo.build_ms"] = build.perCall() / 1e6
	v["fleet.job_s_p50"] = median(walls)
	v["fleet.job_s_tail"] = tail
	v["fleet.speedup"] = median(spd)
	v["measure.trial_us"] = float64(exp.total) / trials / 1e3
	v["tspu.handle_ns"] = handle.perCall()
	v["tspu.handles_per_trial"] = float64(tr.counters["tspu.handled"]) / trials
	v["sim.events_per_trial"] = float64(tr.counters["sim.events"]) / trials

	l := &ledger{workload: "table1-fleet", op: "trial", traced: tp.cpuPerOp(), untraced: p.cpuPerOp()}
	l.add("topo.BuildOn", build.perCall(), float64(build.calls)/trials)
	l.add("tspu.Device.Handle", handle.perCall(), float64(handle.calls)/trials)
	l.add("fleet.job outside build and run", float64(job.self())/float64(job.calls), float64(job.calls)/trials)
	l.add("go GC, background workers", float64(tp.gcBackground)/trials, 1)
	out.runtimeValues(tp, l)

	tr.write(os.Stderr)
	l.write(os.Stderr)
	fmt.Fprintf(os.Stderr, "residual = hostnet + netem + sim dispatch + measure logic inside measure.Reliability (self %.2f ns/trial), fleet runner, GC assists outside spans\n",
		float64(exp.self())/trials)
	fmt.Fprintf(os.Stderr, "fleet.job_s_tail is p%.0f of %d untraced jobs\n", 100*tailP, len(walls))
	return out, nil
}

// runTable1 plans and runs one round of jobs. With tr set, every job's spans
// merge into tr and a timing wrapper times each Device.Handle.
func runTable1(base topo.Options, jobs int, tr *tracer, rot *cpuRotation) *fleet.Report {
	plan := fleet.Plan(base.Seed, []string{"table1"}, jobs, 1)
	return fleet.NewRunner(fleet.Config{Workers: fleetWorkers}).Run(plan, table1Job(base, tr, rot, nil))
}

// peakLive runs heapJobs more jobs, untimed, collecting the heap at the end of
// each job's measurement while its lab is still live, and returns the mean
// of those live heaps.
func peakLive(base topo.Options, rot *cpuRotation) uint64 {
	var sum uint64
	atPeak := func() {
		runtime.GC()
		sum += readRuntime().live
	}
	plan := fleet.Plan(base.Seed, []string{"table1"}, heapJobs, 1)
	fleet.NewRunner(fleet.Config{Workers: fleetWorkers}).Run(plan, table1Job(base, nil, rot, atPeak))
	return sum / uint64(len(plan))
}

// labSims recycles Sims across jobs, as tspusim.JobRunner does.
var labSims = sync.Pool{New: func() any { return sim.New() }}

// table1Job is the fleet RunFunc: a lab built on a pooled Sim from the job's
// derived seed, and measure.Reliability on it, returning the rendered table
// and one stat per cell as the table1 experiment does. atPeak, if set, runs
// after the measurement while the lab is still live. Jobs run one at a time
// (fleetWorkers is 1), so they share rot safely.
func table1Job(base topo.Options, tr *tracer, rot *cpuRotation, atPeak func()) fleet.RunFunc {
	return func(job fleet.Job) (string, []fleet.Stat, error) {
		// Each attempt runs on its own goroutine: pin its thread, and
		// unpin it before the runtime reuses it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer rot.release()
		rot.step()
		opts := base
		opts.Seed = job.Seed
		local := newTracer()
		jobSp := local.span("fleet.job", "")
		buildSp := local.span("topo.BuildOn", "fleet.job")
		runSp := local.span("measure.Reliability", "fleet.job")
		cpu0, wall0 := threadCPU(), time.Now()

		s := labSims.Get().(*sim.Sim)
		s.Reset()
		t := time.Now()
		lab := topo.BuildOn(s, opts)
		buildSp.add(time.Since(t), jobSp)
		if tr != nil {
			if err := timeDevices(lab, local.span("tspu.Device.Handle", "measure.Reliability"), runSp); err != nil {
				return "", nil, err
			}
		}
		t = time.Now()
		res := measure.Reliability(lab, trialsPerCell)
		runSp.add(time.Since(t), jobSp)
		if atPeak != nil {
			atPeak()
			runtime.KeepAlive(lab)
		}
		var stats []fleet.Stat
		for _, v := range measure.Vantages {
			for i, typ := range measure.ReliabilityTypes {
				stats = append(stats, fleet.Stat{Key: v + "/" + measure.ReliabilityCols[i] + " fail%", Value: 100 * res.Failures[v][typ]})
			}
		}
		local.count("sim.events", int64(s.Processed()))
		for _, d := range lab.Devices {
			local.count("tspu.handled", int64(d.Stats().Handled))
		}
		labSims.Put(s)

		if tr != nil {
			wall := time.Since(wall0)
			jobSp.add(wall, nil)
			if wall > 0 {
				local.scale(float64(threadCPU()-cpu0) / float64(wall))
			}
			tr.merge(local)
		}
		return res.Render(), stats, nil
	}
}

// timedDevices counts timing wrappers installed, so a test can show the
// untraced path installs none.
var timedDevices atomic.Int64

// timedDevice stands in for a TSPU device in a link chain and records every
// Handle call as a span. Only traced runs install it.
type timedDevice struct {
	*tspu.Device
	sp, parent *span
}

func (d *timedDevice) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	t := time.Now()
	act := d.Device.Handle(pipe, pkt, dir)
	d.sp.add(time.Since(t), d.parent)
	return act
}

// timeDevices swaps a timedDevice in for every TSPU device in lab's link
// chains. Link.Middleboxes returns the live chain, so writing its elements
// rewires the link.
func timeDevices(lab *topo.Lab, sp, parent *span) error {
	for _, l := range lab.Net.Links() {
		chain := l.Middleboxes()
		for i, mb := range chain {
			d, ok := mb.(*tspu.Device)
			if !ok {
				continue
			}
			td := &timedDevice{Device: d, sp: sp, parent: parent}
			chain[i] = td
			if l.Middleboxes()[i] != netem.Middlebox(td) {
				return fmt.Errorf("link chains are copies; cannot time device %s", d.Name())
			}
			timedDevices.Add(1)
		}
	}
	return nil
}
