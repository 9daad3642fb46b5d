// Command perfbench is the repository's benchmark. It drives three workloads
// through the simulator's public packages, checks each workload's output, and
// prints end-to-end metrics (an untraced run) or per-layer metrics with an
// attribution table (a traced run):
//
//	bash perfbench/run.sh --workload line-rate --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload flood --seed 1 --seconds 10 --repeat 5
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Check results, span tables and the
// attribution table go to standard error. The exit code is 0 when every
// output check passed, 1 when one failed, and 2 on a usage or set-up error.
// With --repeat N the command instead runs the workload N times, with seeds
// seed..seed+N-1, and reports each end-to-end metric's median, quartiles and
// quartile spread against the bound BENCHMARK.json gives it.
//
// README.md in this directory records each workload's op, seeds and
// rationale, which layer metric should move which end-to-end metric, and the
// workload each optimisation should leave unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports; every workload reports
// all three.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "op/cpu-s"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A workload whose path does
// not cross a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"topo.build_ms", "ms"},
	{"fleet.job_s_p50", "s"},
	{"fleet.job_s_tail", "s"},
	{"fleet.speedup", "x"},
	{"measure.trial_us", "us"},
	{"tspu.handle_ns", "ns"},
	{"tspu.handles_per_trial", "count"},
	{"sim.events_per_trial", "count"},
	{"packet.parse_ns", "ns"},
	{"engine.process_ns_per_pkt", "ns"},
	{"sim.advance_ns_per_pkt", "ns"},
	{"sim.events_per_kpkt", "count"},
	{"packet.flowkey_ns", "ns"},
	{"tlsx.extract_sni_ns", "ns"},
	{"tspu.match_ns", "ns"},
	{"tspu.slowpath_share", "ratio"},
	{"tspu.triggers_per_kpkt", "count"},
	{"engine.drop_share", "ratio"},
	{"tspu.conntrack_flows", "count"},
	{"engine.process_ns_per_flow", "ns"},
	{"sim.advance_ns_per_flow", "ns"},
	{"tspu.conntrack_peak", "count"},
	{"tspu.bytes_per_flow", "B"},
	{"tspu.pressure_evictions_per_kflow", "count"},
	{"tspu.timeout_evictions_per_kflow", "count"},
	{"tspu.pool_reuse_share", "ratio"},
	{"go.gc_cpu_share", "ratio"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"residual_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// args are one run's settings.
type args struct {
	seed    uint64
	seconds int
	trace   bool
}

// budget is the wall time of each measured phase. A traced run splits its
// time between an untraced phase, which the tracing overhead is measured
// against, and the traced phase.
func (a args) budget() time.Duration {
	d := time.Duration(a.seconds) * time.Second
	if a.trace {
		return d / 2
	}
	return d
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output check.
	problems []string
	values   map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) check(ok bool, format string, a ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, a...))
	}
}

// endToEndValues fills the three end-to-end metrics from the untraced phase
// and the fastest segment times its chunks recorded.
func (o *outcome) endToEndValues(setup float64, p phase, f *fastest) {
	o.values["setup_s"] = setup
	o.values["ops_per_cpu_s"] = p.opsPerCPU(f)
	o.values["live_heap_mb"] = float64(p.liveMax) / 1e6
}

// runtimeValues fills the go.* and attribution metrics of a traced phase.
func (o *outcome) runtimeValues(p phase, l *ledger) {
	o.values["go.gc_cpu_share"] = p.gcCPU.Seconds() / p.cpu.Seconds()
	o.values["go.alloc_bytes_per_op"] = float64(p.allocBytes) / float64(p.ops)
	o.values["go.allocs_per_op"] = float64(p.allocs) / float64(p.ops)
	o.values["residual_share"] = l.residualShare()
	o.values["trace.overhead_share"] = l.overheadShare()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) result(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: o.values[d.name], Unit: d.unit}
	}
	return r
}

// workloads maps each workload name to its run function. A returned error
// means the workload could not be set up; output checks that fail are
// reported in the outcome instead.
var workloads = map[string]func(args) (*outcome, error){
	"table1-fleet": runTable1Fleet,
	"line-rate":    runLineRate,
	"flood":        runFlood,
}

func main() {
	// The main goroutine keeps one OS thread: the CPU rotation pins that
	// thread, and the traced runs read its CPU clock.
	runtime.LockOSThread()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1-fleet, line-rate or flood")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "wall-clock seconds to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times with consecutive seeds and report steadiness")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0 or 1\n", names)
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*name, *seed, *seconds, *repeat, stdout, stderr)
	}
	out, err := w(args{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n", *name, p)
	}
	res := out.result(*trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
