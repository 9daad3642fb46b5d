package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Clocks. Process CPU times each phase's mean CPU per op, which the
// attribution ledger uses; thread CPU scales the traced runs' wall-clock
// spans. End-to-end throughput and set-up time come from the fastest
// repetition on the wall clock instead (see fastest and setupProbe).

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does not
// name.
const rusageThread = 1

// processCPU returns the CPU time the whole process has used so far: user +
// system, every thread, so GC workers and fleet workers count.
func processCPU() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// threadCPU returns the CPU time of the calling OS thread. Callers pin their
// goroutine with runtime.LockOSThread first.
func threadCPU() time.Duration { return rusage(rusageThread) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		// RUSAGE_SELF and RUSAGE_THREAD cannot fail on Linux.
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupProbe times fresh builds of a workload's starting state, spread evenly
// over the untraced phase between its chunks, and keeps the least wall time
// one build took: the same fastest-repetition estimate ops_per_cpu_s uses
// (see fastest). On a shared host one vCPU can run 1.5x slower than the
// other for seconds at a time, and a whole build (6-25 ms) is too long to
// find an uncontended stretch by chance: the fastest of builds bunched into
// a few seconds followed whatever the host did in those seconds (the spread
// over seeds was 21-32%). Builds spread over the whole phase, and over every
// CPU, give the build's own cost. Each timed build runs from a collected heap
// with the collector paused, so it runs on the calling thread alone, and how
// much collection it would trigger depends on where the pacer stood, not on
// the build.
type setupProbe struct {
	build func()
	every time.Duration
	last  time.Time
	n     int
	best  time.Duration
}

// newSetupProbe builds the state once untimed, so the heap has grown to hold
// it, and plans n timed builds over a phase of length budget.
func newSetupProbe(budget time.Duration, n int, build func()) *setupProbe {
	build()
	return &setupProbe{build: build, every: budget / time.Duration(n), last: time.Now(), best: math.MaxInt64}
}

// due reports whether the next timed build is due.
func (s *setupProbe) due() bool { return time.Since(s.last) >= s.every }

// run times one build and returns the GC CPU its forced collection cost,
// which the phase leaves out of its own accounting.
func (s *setupProbe) run() time.Duration {
	// Pausing the collector first waits for a cycle in progress, so that
	// cycle's CPU stays with the phase.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r0 := readRuntime()
	runtime.GC()
	t := time.Now()
	s.build()
	s.best = min(s.best, time.Since(t))
	s.n++
	s.last = time.Now()
	return secs(readRuntime().gcCPU - r0.gcCPU)
}

// seconds is the fastest timed build.
func (s *setupProbe) seconds() float64 { return s.best.Seconds() }

// gcMetrics are read from runtime/metrics around a phase.
var gcMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/gc/heap/live:bytes",
}

type rtSample struct {
	gcCPU, gcAssist float64 // seconds
	live            uint64  // bytes marked live by the last completed GC
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{gcCPU: s[0].Value.Float64(), gcAssist: s[1].Value.Float64(), live: s[2].Value.Uint64()}
}

// phase is one measured stretch of a workload, cut into chunks of equal work.
type phase struct {
	chunks int
	ops    int64
	cpu    time.Duration // process CPU across every chunk
	// liveMax is the largest live heap the GC marked during the phase,
	// including a forced collection at its end.
	liveMax uint64
	// gcCPU is all GC CPU; gcBackground leaves out assists, which run
	// inside the caller's own spans.
	gcCPU, gcBackground time.Duration
	// allocBytes and allocs are exact heap allocation counts (ReadMemStats
	// stops the world and flushes every per-P cache).
	allocBytes, allocs uint64
}

// runPhase calls chunk until budget wall time has passed and at least
// minChunks chunks ran, moving the calling thread to the next CPU before
// each. Every chunk is one repetition of the same work and returns the ops
// it completed. If setup is set, its timed builds run between chunks as they
// fall due, at least one in all; their time and their collections' CPU are
// left out of the phase. Traced phases pass nil, so their allocation counts
// are the workload's alone.
func runPhase(budget time.Duration, minChunks int, chunk func() int64, setup *setupProbe) phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r0 := readRuntime()
	p := phase{liveMax: r0.live}
	var setupGC time.Duration
	rot := newCPURotation()
	start := time.Now()
	for p.chunks < minChunks || time.Since(start) < budget {
		rot.step()
		c0 := processCPU()
		n := chunk()
		dc := processCPU() - c0
		p.chunks++
		p.ops += n
		p.cpu += dc
		if live := readRuntime().live; live > p.liveMax {
			p.liveMax = live
		}
		if setup != nil && setup.due() {
			setupGC += setup.run()
		}
	}
	if setup != nil && setup.n == 0 {
		setupGC += setup.run()
	}
	rot.release()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r1 := readRuntime()
	if r1.live > p.liveMax {
		p.liveMax = r1.live
	}
	p.gcCPU = max(0, secs(r1.gcCPU-r0.gcCPU)-setupGC)
	p.gcBackground = max(0, secs((r1.gcCPU-r1.gcAssist)-(r0.gcCPU-r0.gcAssist))-setupGC)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.allocs = m1.Mallocs - m0.Mallocs
	return p
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// opsPerCPU is the phase's end-to-end throughput: the ops of one chunk over
// the CPU time one chunk costs, taken as its fastest-segment time (see
// fastest) plus the CPU the GC's background workers spent per chunk.
func (p phase) opsPerCPU(f *fastest) float64 {
	perChunk := f.total() + p.gcBackground/time.Duration(p.chunks)
	return float64(p.ops) / float64(p.chunks) / perChunk.Seconds()
}

// fastest keeps, for each segment of a repeated unit of identical work, the
// least wall time any repetition of that segment took. On a shared host
// contention only ever adds time: the guest cannot see a stolen CPU, so even
// its CPU clocks run on while the host runs another tenant. The sum of the
// per-segment minima is the unit's cost on an otherwise idle CPU, and short
// segments make it likely that every segment has some uncontended
// repetition.
type fastest struct{ min []time.Duration }

func (f *fastest) observe(seg int, d time.Duration) {
	for len(f.min) <= seg {
		f.min = append(f.min, math.MaxInt64)
	}
	if d < f.min[seg] {
		f.min[seg] = d
	}
}

func (f *fastest) total() time.Duration {
	var sum time.Duration
	for _, d := range f.min {
		sum += d
	}
	return sum
}

// cpuPerOp is the phase's mean process CPU per op, in nanoseconds.
func (p phase) cpuPerOp() float64 { return float64(p.cpu) / float64(p.ops) }

// Order statistics.

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median matches Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, the definition the benchmark's steadiness rule uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPercentile returns the highest percentile of xs that has at least ten
// samples beyond it (the median when there are fewer than twenty), and that
// percentile's nearest-rank value.
func tailPercentile(xs []float64) (p, v float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	p = 0.5
	if n >= 20 {
		p = 1 - 10/float64(n)
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return p, s[rank-1]
}
