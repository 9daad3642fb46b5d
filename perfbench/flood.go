package main

import (
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"time"

	"tspusim/internal/engine"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/tspu"
)

// flood is the exhaustscale flood driven directly through tspu, engine and
// sim: unique host-pair SYNs, no ClientHellos, against a flow table bounded
// below the high phase's plateau, with auto-sweep on. The offered rate runs
// in periods, a high phase then a low phase, so one period exercises
// inserts, pool reuse, FIFO pressure eviction and timeout-wheel expiry. The
// op is one offered flow.
//
// Every period after the warm-up is equal work, which takes three
// alignments: the period divides the device's 512-slot, 1-s timeout wheel
// (slot buffers keep the capacity of the busiest second they ever held, so a
// misaligned period grows the heap for hundreds of periods); the sweep
// interval divides the period; and every batch step divides the sweep
// interval, so lanes sweep at the same instants each period.
const (
	floodCap      = 1 << 16 // SetMaxFlows; the high phase's plateau is 60 s x 8192 = 492k flows
	floodHighRate = 8192    // flows per virtual second: a 512-flow batch every 62.5 ms
	floodHigh     = 20 * time.Second
	floodLowRate  = 512 // a batch every second
	floodLow      = 108 * time.Second
	floodSweep    = 32 * time.Second
	// floodProbe is how long into the low phase its victim is probed.
	floodProbe = 4 * time.Second
	// floodWarmPeriods fill the table and the pool and take the wheel once
	// round its ring (4 x 128 s = 512 s) before timing starts.
	floodWarmPeriods = 4
)

var (
	floodVictimSrc = netip.AddrFrom4([4]byte{10, 200, 0, 2})
	floodVictimDst = netip.AddrFrom4([4]byte{203, 0, 113, 10})
	floodDst       = netip.AddrFrom4([4]byte{198, 18, 0, 1})
)

// flood is the workload's running state.
type flood struct {
	s     *sim.Sim
	dev   *tspu.Device
	e     *engine.Engine
	batch []*packet.Packet
	next  uint32 // source address counter of the next flood flow
	// periods counts periods run; victims use fresh ports every period.
	periods int
	peak    int // largest flow table seen at a batch boundary
	hello   []byte
	sp      *floodSpans
	// fast records every batch and every victim packet of a period as a
	// segment; seg is the next segment's index within the period.
	fast *fastest
	seg  int
}

// floodSpans are the traced run's spans; nil when untraced.
type floodSpans struct{ period, push, process, advance, victims *span }

// buildFloodDevice is the workload's set-up: the device with the blocklist,
// its flow-table bound and auto-sweep, and the engine.
func buildFloodDevice(s *sim.Sim, seed uint64, bl *blocklist) (*tspu.Device, *engine.Engine) {
	d := newDevice(s, "flood", seed, bl, nil)
	d.SetMaxFlows(floodCap)
	d.EnableAutoSweep(floodSweep)
	return d, newEngine(s, d, nil)
}

func newFlood(seed uint64, bl *blocklist) *flood {
	f := &flood{s: sim.New(), batch: make([]*packet.Packet, batchSize), fast: &fastest{}}
	f.dev, f.e = buildFloodDevice(f.s, seed, bl)
	// The flood reuses its packet structs; only the source address changes.
	for i := range f.batch {
		f.batch[i] = packet.NewTCP(floodVictimSrc, floodDst, 30000, 80, packet.FlagSYN, 1, 0, nil)
	}
	// The last registry name is SNI-I only (see genBlocklist), so the
	// victim's trigger installs an SNI-I hold.
	f.hello = (&tlsx.ClientHelloSpec{ServerName: bl.sni1[len(bl.sni1)-1]}).Build()
	return f
}

// offer floods rate new flows per virtual second for dur, one batch per
// clock step, and returns the flows offered.
func (f *flood) offer(rate int, dur time.Duration) int64 {
	sp := f.sp
	start := f.s.Now()
	total := rate * int(dur/time.Second)
	step := time.Duration(float64(batchSize) / float64(rate) * float64(time.Second))
	var t time.Time
	for n, b := 0, 0; n < total; b++ {
		m := min(batchSize, total-n)
		seg := time.Now()
		if sp != nil {
			t = seg
		}
		for j := 0; j < m; j++ {
			a := f.next
			f.next = (f.next + 1) & (1<<24 - 1)
			f.batch[j].IP.Src = netip.AddrFrom4([4]byte{10, byte(a >> 16), byte(a >> 8), byte(a)})
			f.e.Push(f.batch[j], netem.AtoB)
		}
		if sp != nil {
			t = sp.push.lap(t, sp.period)
		}
		f.e.Process()
		if sp != nil {
			t = sp.process.lap(t, sp.period)
		}
		n += m
		deadline := start + time.Duration(b+1)*step
		if n == total {
			deadline = start + dur
		}
		// RunUntil, not Engine.Advance: the flood schedules no events, so
		// the clock must be moved explicitly for timeouts to churn.
		f.s.RunUntil(deadline)
		if sp != nil {
			sp.advance.lap(t, sp.period)
		}
		if sz := f.dev.ConntrackSize(); sz > f.peak {
			f.peak = sz
		}
		f.fast.observe(f.seg, time.Since(seg))
		f.seg++
	}
	return int64(total)
}

func (f *flood) push(p *packet.Packet, dir netem.Direction) {
	seg := time.Now()
	f.e.Push(p, dir)
	f.e.Process()
	f.fast.observe(f.seg, time.Since(seg))
	f.seg++
}

// install opens a victim flow and triggers an SNI-I hold on it.
func (f *flood) install(port uint16) {
	f.push(packet.NewTCP(floodVictimSrc, floodVictimDst, port, 443, packet.FlagSYN, 1, 0, nil), netem.AtoB)
	f.push(packet.NewTCP(floodVictimDst, floodVictimSrc, 443, port, packet.FlagsSYNACK, 1, 2, nil), netem.BtoA)
	f.push(packet.NewTCP(floodVictimSrc, floodVictimDst, port, 443, packet.FlagsPSHACK, 2, 2, f.hello), netem.AtoB)
}

// holds probes the victim flow with a downstream data packet, which an SNI-I
// hold rewrites to RST/ACK. The probe passes either way.
func (f *flood) holds(port uint16) bool {
	p := packet.NewTCP(floodVictimDst, floodVictimSrc, 443, port, packet.FlagsPSHACK, 100, 3, []byte("probe"))
	f.push(p, netem.BtoA)
	return p.TCP.Flags == packet.FlagsRSTACK
}

// period runs one high phase and one low phase. A victim hold is installed
// as each phase starts and probed where the bound decides its fate: the
// high phase offers floodHighRate x floodHigh = 164k flows, over twice the
// bound, so FIFO pressure must evict its victim; the low phase's victim
// sees only floodLowRate x floodProbe = 2k newer flows, under one shard's
// share of the bound (8k), so its hold must survive. It returns the flows offered
// and every victim outcome that contradicts the bound.
func (f *flood) period() (int64, []string) {
	var bad []string
	// Ports are fresh each period: a probe of an evicted victim opens a
	// remote-originated entry that must not meet next period's handshake.
	highPort := uint16(20000 + 2*(f.periods%20000))
	lowPort := highPort + 1
	f.periods++
	f.seg = 0
	expect := func(port uint16, want bool, when string) {
		var t time.Time
		if f.sp != nil {
			t = time.Now()
		}
		if got := f.holds(port); got != want {
			bad = append(bad, fmt.Sprintf("period %d: victim hold present=%v %s, want %v", f.periods, got, when, want))
		}
		if f.sp != nil {
			f.sp.victims.lap(t, f.sp.period)
		}
	}
	f.install(highPort)
	expect(highPort, true, "after install")
	n := f.offer(floodHighRate, floodHigh)
	expect(highPort, false, "after the high phase")
	f.install(lowPort)
	expect(lowPort, true, "after install")
	n += f.offer(floodLowRate, floodProbe)
	expect(lowPort, true, fmt.Sprintf("%v into the low phase", floodProbe))
	n += f.offer(floodLowRate, floodLow-floodProbe)
	return n, bad
}

func runFlood(a args) (*outcome, error) {
	bl := genBlocklist(a.seed)
	out := newOutcome()
	setup := newSetupProbe(a.budget(), deviceBuilds, func() { buildFloodDevice(sim.New(), a.seed, bl) })

	f := newFlood(a.seed, bl)
	runtime.GC()
	emptyLive := readRuntime().live
	chunk := func() int64 {
		n, bad := f.period()
		out.attempted += n
		if len(bad) > 0 {
			out.failed += n
			out.problems = append(out.problems, bad...)
		}
		return n
	}
	for i := 0; i < floodWarmPeriods; i++ {
		chunk()
	}
	f.fast = &fastest{}
	p := runPhase(a.budget(), 3, chunk, setup)
	out.endToEndValues(setup.seconds(), p, f.fast)

	if a.trace {
		traceFlood(a, f, p, chunk, emptyLive, out)
	}

	// Everything ages out: the table must drain, and the pool must never
	// have held more entries than the table's peak (plus one momentary
	// overshoot per shard while an insert evicts).
	f.s.RunUntil(f.s.Now() + 600*time.Second)
	f.dev.Sweep()
	out.check(f.dev.ConntrackSize() == 0, "%d flow-table entries outlived every timeout", f.dev.ConntrackSize())
	allocs, _, _ := f.dev.ConntrackPoolStats()
	out.check(allocs <= uint64(f.peak+engineShards), "pool allocated %d entries for a peak of %d concurrent flows", allocs, f.peak)
	return out, nil
}

// traceFlood runs the traced phase and fills the flood's per-layer metrics.
func traceFlood(a args, f *flood, p phase, chunk func() int64, emptyLive uint64, out *outcome) {
	tr := newTracer()
	f.sp = &floodSpans{
		period:  tr.span("flood.period", ""),
		push:    tr.span("engine.Push", "flood.period"),
		process: tr.span("engine.Process", "flood.period"),
		advance: tr.span("sim.RunUntil", "flood.period"),
		victims: tr.span("victim probes", "flood.period"),
	}
	pe0, te0 := f.dev.PressureEvictions(), f.dev.ConntrackEvictions()
	allocs0, reuses0, _ := f.dev.ConntrackPoolStats()
	f.peak = 0
	cpu0, wall0 := threadCPU(), time.Now()
	tp := runPhase(a.budget(), 3, func() int64 {
		t := time.Now()
		n := chunk()
		f.sp.period.add(time.Since(t), nil)
		return n
	}, nil)
	tr.scale(float64(threadCPU()-cpu0) / float64(time.Since(wall0)))
	pe1, te1 := f.dev.PressureEvictions(), f.dev.ConntrackEvictions()
	allocs1, reuses1, _ := f.dev.ConntrackPoolStats()
	f.sp = nil

	// Flow-table memory per flow at the plateau: one more high phase fills
	// the table to its bound.
	out.attempted += f.offer(floodHighRate, floodHigh)
	runtime.GC()
	plateauLive, table := readRuntime().live, f.dev.ConntrackSize()

	flows := float64(tp.ops)
	perFlow := func(s *span) float64 { return float64(s.total) / flows }
	v := out.values
	v["engine.process_ns_per_flow"] = perFlow(tr.span("engine.Process", "flood.period"))
	v["sim.advance_ns_per_flow"] = perFlow(tr.span("sim.RunUntil", "flood.period"))
	v["tspu.conntrack_peak"] = float64(f.peak)
	v["tspu.bytes_per_flow"] = float64(plateauLive-emptyLive) / float64(table)
	v["tspu.pressure_evictions_per_kflow"] = 1000 * float64(pe1-pe0) / flows
	v["tspu.timeout_evictions_per_kflow"] = 1000 * float64(te1-te0) / flows
	allocs, reuses := float64(allocs1-allocs0), float64(reuses1-reuses0)
	v["tspu.pool_reuse_share"] = reuses / (allocs + reuses)

	l := &ledger{workload: "flood", op: "offered flow", traced: tp.cpuPerOp(), untraced: p.cpuPerOp()}
	for _, name := range []string{"engine.Push", "engine.Process", "sim.RunUntil", "victim probes"} {
		l.add(name, perFlow(tr.span(name, "flood.period")), 1)
	}
	l.add("go GC, background workers", float64(tp.gcBackground)/flows, 1)
	out.runtimeValues(tp, l)

	tr.write(os.Stderr)
	l.write(os.Stderr)
	fmt.Fprintf(os.Stderr, "engine.Process includes the timeout wheel and FIFO compaction: auto-sweep runs them inside HandleSharded\n")
	fmt.Fprintf(os.Stderr, "tspu.bytes_per_flow: live heap %d B at a %d-flow plateau, %d B before the flood\n", plateauLive, table, emptyLive)
}
