package measure

import (
	"fmt"
	"net/netip"
	"time"

	"tspusim/internal/engine"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
)

// State exhaustion at scale (§5.3.3, §7, §8). The topo.Lab version of this
// experiment (StateExhaustion) floods a device with a few thousand flows
// through full host stacks; this one drives the batch engine directly, so the
// flood reaches the scale the paper's provisioning argument is actually
// about: millions of concurrent flows with timeout churn, against a sharded
// flow table. The questions it answers are the same — does a residual-
// censorship hold survive a flood at a given provisioning level — plus the
// ones only visible at scale: does the table hold peak concurrency without
// leaking, does steady-state churn run on recycled entries, and does every
// byte of state drain once the flood ages out.

const (
	// exhaustDuration is the flood length in virtual time. It must stay
	// below the SNI-I hold lifetime (75 s) so the survival probe measures
	// eviction pressure, not the hold's own clock; and above the SYN-sent
	// timeout (60 s) so the tail of the flood churns through expired entries.
	exhaustDuration = 70 * time.Second
	// exhaustShards and exhaustBatch shape the engine: shards per device and
	// packets per batch.
	exhaustShards = 8
	exhaustBatch  = 512
)

// ExhaustScaleConfig sizes the flood. The defaults in DefaultExhaustScale
// reach ~2M concurrent flows; tests shrink Rate to run in milliseconds.
type ExhaustScaleConfig struct {
	// Seed feeds the device's per-flow randomness.
	Seed uint64
	// Rate is the offered load in new flows per virtual second.
	Rate int
	// Bounds are the flow-table provisioning levels to test (0 = unlimited).
	Bounds []int
}

// DefaultExhaustScale is the paper-scale run: 35k flows/s for 70 virtual
// seconds is 2.45M flows offered with a ~2.1M-flow concurrency plateau once
// the 60 s SYN timeout starts reclaiming the flood's tail.
func DefaultExhaustScale() ExhaustScaleConfig {
	return ExhaustScaleConfig{
		Seed:   1,
		Rate:   35000,
		Bounds: []int{0, 1 << 22, 1 << 18, 1 << 14},
	}
}

// ExhaustScaleRow is one provisioning level's outcome.
type ExhaustScaleRow struct {
	MaxFlows int // 0 = unlimited
	// Offered counts flood flows pushed through the engine.
	Offered int
	// PeakTable is the largest concurrent flow-table population observed.
	PeakTable int
	// Survived reports whether the victim's SNI-I hold still rewrote a
	// downstream probe to RST/ACK after the flood.
	Survived bool
	// PressureEvictions counts entries evicted to make room (capacity FIFO);
	// TimeoutEvictions counts entries reclaimed by the timeout wheel and lazy
	// expiry — the churn path.
	PressureEvictions int
	TimeoutEvictions  int
	// PoolAllocs and PoolReuses are the entry-pool counters: allocations
	// track peak concurrency, and everything past the plateau must be served
	// by reuse.
	PoolAllocs int
	PoolReuses int
	// Leaked is the table population after the flood fully aged out and a
	// final sweep ran; nonzero means state outlived every timeout.
	Leaked int
}

// ExhaustScaleResult is the full provisioning table.
type ExhaustScaleResult struct {
	Config ExhaustScaleConfig
	Rows   []ExhaustScaleRow
}

// victim five-tuple, outside the flood's address space.
var (
	exhaustVictimSrc = netip.AddrFrom4([4]byte{10, 200, 0, 2})
	exhaustVictimDst = netip.AddrFrom4([4]byte{203, 0, 113, 10})
	exhaustFloodDst  = netip.AddrFrom4([4]byte{198, 18, 0, 1})
)

// StateExhaustionAtScale runs the flood once per provisioning bound, each
// against a fresh device and engine so rows are independent.
func StateExhaustionAtScale(cfg ExhaustScaleConfig) *ExhaustScaleResult {
	res := &ExhaustScaleResult{Config: cfg}
	for _, bound := range cfg.Bounds {
		res.Rows = append(res.Rows, exhaustScaleRow(cfg, bound))
	}
	return res
}

func exhaustScaleRow(cfg ExhaustScaleConfig, bound int) ExhaustScaleRow {
	s := sim.New()
	dev := tspu.NewDevice(tspu.Config{
		Name:        "exhaust",
		Sim:         s,
		LocalDir:    netem.AtoB,
		Shards:      exhaustShards,
		PerFlowRand: true,
		FlowSeed:    cfg.Seed,
	})
	ctl := tspu.NewController(nil)
	ctl.Register(dev)
	ctl.Update(func(p *tspu.Policy) { p.SNI1Domains.Add(DomainSNI1) })
	dev.SetMaxFlows(bound)
	dev.EnableAutoSweep(time.Second)
	e := engine.New(engine.Config{Sim: s, Devices: []*tspu.Device{dev}, BatchSize: exhaustBatch})

	// Install the victim hold: handshake, then a triggering ClientHello. No
	// FailureRates are configured, so the trigger fires deterministically.
	vSport := uint16(40001)
	push := func(p *packet.Packet, dir netem.Direction) netem.Action {
		e.Push(p, dir)
		return e.Process()[0].Verdict
	}
	push(packet.NewTCP(exhaustVictimSrc, exhaustVictimDst, vSport, 443, packet.FlagSYN, 1, 0, nil), netem.AtoB)
	push(packet.NewTCP(exhaustVictimDst, exhaustVictimSrc, 443, vSport, packet.FlagsSYNACK, 1, 2, nil), netem.BtoA)
	push(packet.NewTCP(exhaustVictimSrc, exhaustVictimDst, vSport, 443, packet.FlagsPSHACK, 2, 2, CH(DomainSNI1)), netem.AtoB)
	if !exhaustProbe(e, vSport) {
		// The hold must be in place before the flood for the row to mean
		// anything; with no failure rates this cannot happen.
		panic("exhaustscale: SNI-I hold not installed on the victim flow")
	}

	// Flood: unique host pairs at cfg.Rate flows per virtual second, the
	// clock advancing per batch so the SYN-sent timeout churns the tail. The
	// batch's packet structs are reused — only the source address changes —
	// so the experiment measures the device's allocation behavior, not the
	// load generator's.
	row := ExhaustScaleRow{MaxFlows: bound}
	batch := make([]*packet.Packet, exhaustBatch)
	for i := range batch {
		batch[i] = packet.NewTCP(exhaustVictimSrc, exhaustFloodDst, 30000, 80, packet.FlagSYN, 1, 0, nil)
	}
	start := s.Now()
	step := time.Duration(float64(exhaustBatch) / float64(cfg.Rate) * float64(time.Second))
	total := cfg.Rate * int(exhaustDuration/time.Second)
	for n := 0; n < total; {
		m := len(batch)
		if total-n < m {
			m = total - n
		}
		for j := 0; j < m; j++ {
			f := n + j
			batch[j].IP.Src = netip.AddrFrom4([4]byte{10, byte(f >> 16), byte(f >> 8), byte(f)})
			e.Push(batch[j], netem.AtoB)
		}
		e.Process()
		n += m
		// RunUntil, not engine.Advance: the flood schedules no events, so the
		// clock must be moved explicitly for timeouts to churn the tail.
		s.RunUntil(start + time.Duration(n/exhaustBatch)*step)
		if sz := dev.ConntrackSize(); sz > row.PeakTable {
			row.PeakTable = sz
		}
	}
	row.Offered = total

	// Probe the hold, then age everything out and sweep: the table must
	// return to empty (the victim's own entry included) or state leaked.
	row.Survived = exhaustProbe(e, vSport)
	s.RunUntil(s.Now() + 600*time.Second)
	dev.Sweep()
	row.Leaked = dev.ConntrackSize()
	row.PressureEvictions = dev.PressureEvictions()
	row.TimeoutEvictions = dev.ConntrackEvictions()
	allocs, reuses, _ := dev.ConntrackPoolStats()
	row.PoolAllocs = int(allocs)
	row.PoolReuses = int(reuses)
	return row
}

// exhaustProbe sends a downstream data packet on the victim flow and reports
// whether the device rewrote it to RST/ACK — the SNI-I hold's signature. The
// probe packet passes either way, so probing does not perturb the flow.
func exhaustProbe(e *engine.Engine, sport uint16) bool {
	p := packet.NewTCP(exhaustVictimDst, exhaustVictimSrc, 443, sport, packet.FlagsPSHACK, 100, 3, []byte("probe"))
	e.Push(p, netem.BtoA)
	e.Process()
	return p.TCP.Flags == packet.FlagsRSTACK
}

// Render prints the provisioning table.
func (r *ExhaustScaleResult) Render() *report.Doc {
	t := report.NewTable(
		fmt.Sprintf("State exhaustion at scale (§8): SNI-I hold vs %d flows/s x %v flood",
			r.Config.Rate, exhaustDuration),
		"Flow-table bound", "Offered", "Peak table", "Hold survived",
		"Pressure evict", "Timeout evict", "Pool allocs", "Pool reuses", "Leaked")
	for i, row := range r.Rows {
		var bound any = "unlimited"
		if row.MaxFlows > 0 {
			// Bounds scale with the offered load, so rows key by position.
			bound = report.Keyed{Key: fmt.Sprintf("bound[%d]", i), Text: fmt.Sprint(row.MaxFlows)}
		}
		t.AddRow(bound, row.Offered, row.PeakTable, row.Survived,
			row.PressureEvictions, row.TimeoutEvictions, row.PoolAllocs, row.PoolReuses, row.Leaked)
	}
	return new(report.Doc).Add(t).Text(
		"paper: provisioning is the evasion surface — a bounded table sheds the\n" +
			"oldest state under flood, and the residual-censorship hold goes with it;\n" +
			"at adequate provisioning the hold rides out millions of attacker flows.\n")
}
