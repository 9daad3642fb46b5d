package main

import (
	"bytes"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"tspusim/internal/packet"
	"tspusim/internal/topo"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the metric names and units the
// program emits and to the definition's naming rules.
func TestBenchmarkJSON(t *testing.T) {
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var names []string
	for _, w := range cfg.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}

	compare := func(kind string, got []configMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if i < len(want) && (m.Name != want[i].name || m.Unit != want[i].unit) {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program emits %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present=%v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	compare("end_to_end", cfg.EndToEnd, endToEnd, true)
	compare("per_layer", cfg.PerLayer, perLayer, false)

	// setup_s carries the largest bound, so work moved into set-up shows.
	var setup float64
	for _, m := range cfg.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range cfg.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v", m.Name, *m.Bound, setup)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) and median to statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5}, // the exclusive method extrapolates
		{[]float64{10.5, 9.75, 11, 10, 12.25, 9.5, 10.25}, 9.75, 10.25, 11},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	// 40 samples: p75 is the highest percentile with ten samples beyond it.
	if p, v := tailPercentile(xs); p != 0.75 || v != 30 {
		t.Errorf("tailPercentile(1..40) = p%v %v, want p0.75 30", p, v)
	}
	// Fewer than twenty samples cannot support more than the median.
	if p, v := tailPercentile(xs[30:]); p != 0.5 || v != 5 {
		t.Errorf("tailPercentile(1..10) = p%v %v, want p0.5 5", p, v)
	}
}

// TestCorpusDeterministic checks that the line-rate corpus is a function of
// the seed alone, parses back packet by packet, and has the mix the workload
// documents.
func TestCorpusDeterministic(t *testing.T) {
	bl := genBlocklist(1)
	a, err := genCorpus(1, bl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genCorpus(1, genBlocklist(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.wire, b.wire) || !slices.Equal(a.ends, b.ends) || !slices.Equal(a.dirs, b.dirs) {
		t.Fatal("two corpora generated from seed 1 differ")
	}
	c, err := genCorpus(2, genBlocklist(2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.wire, c.wire) {
		t.Fatal("seeds 1 and 2 generated the same corpus")
	}
	var p packet.Packet
	for i := 0; i < a.len(); i++ {
		if err := packet.ParseInto(&p, a.packet(i)); err != nil {
			t.Fatalf("packet %d does not parse: %v", i, err)
		}
	}
	if share := float64(a.hellos) / float64(a.len()); share < 0.08 || share > 0.12 {
		t.Errorf("ClientHello share %.3f, want about 10%%", share)
	}
	if a.quic == 0 || a.frags == 0 {
		t.Errorf("corpus has %d QUIC long headers and %d fragments, want some of each", a.quic, a.frags)
	}
}

// TestUntracedInstallsNoTimingMiddlebox checks that only the traced table1
// path swaps timing wrappers into link chains, that the wrappers see every
// Device.Handle call, and that timing changes no result.
func TestUntracedInstallsNoTimingMiddlebox(t *testing.T) {
	base := topo.Options{Seed: 7, Endpoints: 200, ASes: 12, EchoServers: 50, TrancoN: 200, RegistryN: 200}
	before := timedDevices.Load()
	untraced := runTable1(base, 1, nil, newCPURotation())
	if n := timedDevices.Load() - before; n != 0 {
		t.Fatalf("untraced round installed %d timing wrappers", n)
	}
	tr := newTracer()
	traced := runTable1(base, 1, tr, newCPURotation())
	if timedDevices.Load() == before {
		t.Fatal("traced round installed no timing wrappers")
	}
	if len(untraced.Failed()) > 0 || len(traced.Failed()) > 0 {
		t.Fatalf("failed jobs: untraced %v, traced %v", untraced.Failed(), traced.Failed())
	}
	if untraced.RenderAggregate() != traced.RenderAggregate() {
		t.Fatal("the traced round rendered a different aggregate")
	}
	calls := tr.span("tspu.Device.Handle", "measure.Reliability").calls
	if handled := tr.counters["tspu.handled"]; calls == 0 || calls != handled {
		t.Fatalf("timing wrappers saw %d Handle calls, the devices counted %d", calls, handled)
	}
}
