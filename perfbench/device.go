package main

import (
	"net/netip"
	"time"

	"tspusim/internal/engine"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
	"tspusim/internal/workload"
)

// Shared set-up of the two engine workloads: one TSPU device with a
// registry-scale blocklist installed through the controller, behind an
// engine with Workers 1 and 8 shards.
const (
	registryDomains = 100000
	engineShards    = 8
	batchSize       = 512
	deviceBuilds    = 30 // device + blocklist + engine builds timed for setup_s
)

// blocklist is the policy the engine workloads install, generated from the
// workload seed. Generating it is input preparation, outside setup_s.
type blocklist struct {
	sni1, sni2, sni4 []string
	ips              []netip.Addr
	// registry is the whole registry sample; tranco is the ranked test
	// list, mostly names the policy does not hold, so SNI matching both
	// hits and misses.
	registry, tranco []string
}

// registryBlockedFraction is the share of the registry sample the TSPU
// enforces: Fig. 6's 9,655 of 10,000, the value topo's lab policy uses.
const registryBlockedFraction = 0.9655

// genBlocklist splits the policy as topo's lab does: SNI-I, SNI-II and SNI-IV
// hold Table 3's named domains by their observed behaviours, and SNI-I also
// holds the enforced share of the registry sample. The registry names come
// last in sni1.
func genBlocklist(seed uint64) *blocklist {
	r := sim.NewRand(sim.StreamSeed(seed, "perfbench/blocklist"))
	reg := workload.GenRegistry(r, workload.RegistryOptions{N: registryDomains})
	bl := &blocklist{
		registry: workload.Names(reg),
		tranco:   workload.Names(workload.GenTranco(r, workload.TrancoOptions{})),
	}
	for _, wk := range workload.WellKnownDomains() {
		if wk.SNI1 {
			bl.sni1 = append(bl.sni1, wk.Name)
		}
		if wk.SNI2 {
			bl.sni2 = append(bl.sni2, wk.Name)
		}
		if wk.SNI4 {
			bl.sni4 = append(bl.sni4, wk.Name)
		}
	}
	bl.sni1 = append(bl.sni1, workload.Names(sim.Sample(r, reg, int(registryBlockedFraction*registryDomains)))...)
	// Seven blocked IPs, as in the paper: a Tor entry node and six others.
	bl.ips = append(bl.ips, netip.AddrFrom4([4]byte{198, 51, 100, 7}))
	for i := byte(1); i <= 6; i++ {
		bl.ips = append(bl.ips, netip.AddrFrom4([4]byte{192, 0, 2, 10 * i}))
	}
	return bl
}

// lineRateFailures are per-connection trigger miss rates: the ER-Telecom row
// topo calibrates against Table 1 (§5.2.1), the one vantage whose path holds
// a single device, as the line-rate workload's does. PerFlowRand keeps every
// roll independent of batching.
var lineRateFailures = map[tspu.BlockType]float64{
	tspu.SNI1: 0.0, tspu.SNI2: 0.0176, tspu.SNI4: 0.0219, tspu.QUICBlock: 0.0093, tspu.IPBlock: 0.00045,
}

// newDevice builds a sharded, per-flow-random TSPU device and installs bl
// through a controller, the way the central control plane pushes policy.
func newDevice(s *sim.Sim, name string, seed uint64, bl *blocklist, failures map[tspu.BlockType]float64) *tspu.Device {
	d := tspu.NewDevice(tspu.Config{
		Name:         name,
		Sim:          s,
		LocalDir:     netem.AtoB,
		Shards:       engineShards,
		PerFlowRand:  true,
		FlowSeed:     seed,
		FailureRates: failures,
	})
	ctl := tspu.NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *tspu.Policy) {
		p.SNI1Domains.Add(bl.sni1...)
		p.SNI2Domains.Add(bl.sni2...)
		p.SNI4Domains.Add(bl.sni4...)
		for _, ip := range bl.ips {
			p.BlockedIPs[ip] = true
		}
	})
	return d
}

// newEngine puts a Workers-1 engine in front of dev. deliver, if set, is
// called for every packet that survives the chain.
func newEngine(s *sim.Sim, dev *tspu.Device, deliver func(*packet.Packet, netem.Direction)) *engine.Engine {
	return engine.New(engine.Config{Sim: s, Devices: []*tspu.Device{dev}, Workers: 1, BatchSize: batchSize, Deliver: deliver})
}

// stepClock drains the virtual clock's due work up to deadline through the
// engine and leaves the clock there (Advance alone stops at the last event).
func stepClock(e *engine.Engine, s *sim.Sim, deadline time.Duration) {
	e.Advance(deadline, 0)
	s.RunUntil(deadline)
}
