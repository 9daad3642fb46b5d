package topo

import (
	"net/netip"

	"tspusim/internal/hostnet"
	"tspusim/internal/httpx"
	"tspusim/internal/ispdpi"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
	"tspusim/internal/workload"
)

// Per-device trigger-miss rates chosen so the measured Table 1 lands near
// the paper's values. ER-Telecom's single device is markedly less reliable
// than the others — the paper traced the difference to Rostelecom and OBIT
// having two devices on path (§5.2.1).
var deviceFailureRates = map[string]map[tspu.BlockType]float64{
	Rostelecom: {
		tspu.SNI1: 0.00084, tspu.SNI2: 0.000025, tspu.SNI4: 0.0027,
		tspu.QUICBlock: 0.0002, tspu.IPBlock: 0.0,
	},
	ERTelecom: {
		tspu.SNI1: 0.0, tspu.SNI2: 0.0176, tspu.SNI4: 0.0219,
		tspu.QUICBlock: 0.0093, tspu.IPBlock: 0.00045,
	},
	OBIT: {
		tspu.SNI1: 0.0014, tspu.SNI2: 0.00005, tspu.SNI4: 0.0004,
		tspu.QUICBlock: 0.0, tspu.IPBlock: 0.0002,
	},
}

// Fractions of the recently-added registry sample each party enforces. The
// TSPU and the Rostelecom/OBIT resolver numbers are Fig. 6's (9,655, 1,302
// and 3,943 of 10,000); ER-Telecom's resolver count is not reported in the
// paper — we model it as the best-maintained of the three.
const (
	tspuRegistryFraction = 0.9655
	rtRegistryFraction   = 0.1302
	obitRegistryFraction = 0.3943
	ertRegistryFraction  = 0.87
)

func (l *Lab) buildWorkloadAndPolicy() {
	r := l.Rand.Fork("workload")
	l.Tranco = workload.GenTranco(r, workload.TrancoOptions{N: l.Opts.TrancoN, CLBL: l.Opts.TrancoN / 8})
	l.Registry = workload.GenRegistry(r, workload.RegistryOptions{N: l.Opts.RegistryN})

	// The dump is made on first use (RegistryDump); only its stream is
	// forked here, the one draw registry.FromWorkload takes from r.
	l.registryStream = r.Fork("registry-dump")

	// Mark a slice of Tranco as registry-listed (popular sites that ended up
	// in the registry) so ISP blocklists have Tranco coverage too.
	for i := range l.Tranco {
		if !l.Tranco[i].FromCLBL && r.Bool(0.03) {
			l.Tranco[i].InRegistry = true
		}
	}

	// TSPU enforcement: nearly the whole registry sample...
	registryBlocked := sim.Sample(r, l.Registry, int(tspuRegistryFraction*float64(len(l.Registry))))
	l.RegistryTSPUBlocked = len(registryBlocked)
	// ...plus out-registry Tranco targets: Google services, circumvention
	// tools, news, and pornography (§6.3).
	var trancoBlocked []string
	for _, d := range l.Tranco {
		inReg := d.InRegistry
		sensitive := d.Category == workload.CatCircumvention ||
			d.Category == workload.CatPornography ||
			d.Category == workload.CatInformativeMedia ||
			d.Category == workload.CatProvocative
		if inReg || (d.FromCLBL && sensitive && r.Bool(0.75)) || (!d.FromCLBL && sensitive && r.Bool(0.08)) {
			trancoBlocked = append(trancoBlocked, d.Name)
		}
	}

	l.Controller.Update(func(p *tspu.Policy) {
		for _, wk := range workload.WellKnownDomains() {
			if wk.SNI1 {
				p.SNI1Domains.Add(wk.Name)
			}
			if wk.SNI2 {
				p.SNI2Domains.Add(wk.Name)
			}
			if wk.SNI4 {
				p.SNI4Domains.Add(wk.Name)
			}
			if wk.Throttle {
				p.ThrottleDomains.Add(wk.Name)
			}
		}
		for _, d := range registryBlocked {
			p.SNI1Domains.Add(d.Name)
		}
		p.SNI1Domains.Add(trancoBlocked...)
		// The Tor entry node plus six more out-registry IPs (VPN providers
		// and Google services in the paper).
		p.BlockedIPs[l.TorAddr] = true
		for i := 0; i < 6; i++ {
			p.BlockedIPs[netip.AddrFrom4([4]byte{203, 0, 113, byte(200 + i)})] = true
		}
	})
}

// ispBlocklist is one ISP's stale blocklist: a fraction of the registry
// sample plus whatever Tranco registry-listed names the ISP tracked. Only
// experiments that resolve names read one (Fig. 6, propagation), so it is
// built on first use from a stream forked at build, which leaves every other
// stream's draws where they were. Building reads l.Registry and l.Tranco,
// which no code writes after buildWorkloadAndPolicy, so a late build sees the
// inputs the lab was built with.
type ispBlocklist struct {
	lab          *Lab
	registryFrac float64
	rng          *sim.Rand
	set          *tspu.DomainSet
}

// get returns the list, building it on the first call.
func (b *ispBlocklist) get() *tspu.DomainSet {
	if b.set == nil {
		l, r := b.lab, b.rng
		b.set = tspu.NewDomainSet()
		for _, d := range sim.Sample(r, l.Registry, int(b.registryFrac*float64(len(l.Registry)))) {
			b.set.Add(d.Name)
		}
		for _, d := range l.Tranco {
			if d.InRegistry && r.Bool(b.registryFrac) {
				b.set.Add(d.Name)
			}
		}
		b.rng = nil
	}
	return b.set
}

func (l *Lab) buildVantages() {
	core := l.Net.Node("ru-core")

	// --- ER-Telecom: vp - access - [TSPU] - agg - core (one device).
	l.buildVantage(vantageSpec{
		name:        ERTelecom,
		prefix:      netem.MustPrefix("10.2.0.0/16"),
		vpAddr:      packet.MustAddr("10.2.0.2"),
		resolver:    packet.MustAddr("10.2.0.53"),
		blockpage:   packet.MustAddr("192.0.2.2"),
		regFraction: ertRegistryFraction,
		core:        core,
		secondDev:   false,
	})

	// --- Rostelecom: vp - access - [TSPU sym] - agg = [TSPU up-only] = edge - core.
	l.buildVantage(vantageSpec{
		name:        Rostelecom,
		prefix:      netem.MustPrefix("10.1.0.0/16"),
		vpAddr:      packet.MustAddr("10.1.0.2"),
		resolver:    packet.MustAddr("10.1.0.53"),
		blockpage:   packet.MustAddr("192.0.2.1"),
		regFraction: rtRegistryFraction,
		core:        core,
		secondDev:   true,
	})

	// --- OBIT: vp - access - [TSPU sym] - agg, then two transit ISPs with
	// upstream-only devices: US-bound via "rostelecom-transit", Paris-bound
	// via "rascom-transit" (§7.1.1).
	l.buildOBIT(core)
}

type vantageSpec struct {
	name        string
	prefix      netip.Prefix
	vpAddr      netip.Addr
	resolver    netip.Addr
	blockpage   netip.Addr
	regFraction float64
	core        *netem.Node
	secondDev   bool
}

func (l *Lab) buildVantage(spec vantageSpec) {
	n := l.Net
	vp := n.AddHost(spec.name + "-vp")
	access := n.AddRouter(spec.name + "-access")
	agg := n.AddRouter(spec.name + "-agg")

	vpi := vp.AddIface(spec.vpAddr)
	accDown := access.AddIface(firstAddr(spec.prefix, 1))
	n.Connect(vpi, accDown, linkDelay)
	vp.AddDefaultRoute(vpi)

	symLink, accUp, aggDown := l.link(access, agg)
	sym := l.newDevice(spec.name+"-tspu-sym", netem.AtoB, deviceFailureRates[spec.name])
	symLink.Attach(sym)

	access.AddRoute(spec.prefix, accDown)
	access.AddDefaultRoute(accUp)

	devices := []*tspu.Device{sym}
	defer func() { l.Vantages[spec.name].SymLink = symLink }()

	if spec.secondDev {
		// Asymmetric pair agg = edge: upstream crosses the device link,
		// downstream returns over a clean parallel link.
		edge := n.AddRouter(spec.name + "-edge")
		upLink, aggUp, edgeDownA := l.link(agg, edge)
		_, aggDown2, edgeDownB := l.link(agg, edge)
		upOnly := l.newDevice(spec.name+"-tspu-uponly", netem.AtoB, deviceFailureRates[spec.name])
		upLink.Attach(upOnly)
		devices = append(devices, upOnly)

		agg.AddRoute(spec.prefix, aggDown)
		agg.AddDefaultRoute(aggUp)
		_ = aggDown2
		_, edgeUp, coreDown := l.link(edge, spec.core)
		edge.AddDefaultRoute(edgeUp)
		edge.AddRoute(spec.prefix, edgeDownB) // return path avoids the device
		_ = edgeDownA
		spec.core.AddRoute(spec.prefix, coreDown)
	} else {
		agg.AddRoute(spec.prefix, aggDown)
		_, aggUp, coreDown := l.link(agg, spec.core)
		agg.AddDefaultRoute(aggUp)
		spec.core.AddRoute(spec.prefix, coreDown)
	}

	l.finishVantage(spec, vp, access, devices)
}

func (l *Lab) buildOBIT(core *netem.Node) {
	n := l.Net
	spec := vantageSpec{
		name:        OBIT,
		prefix:      netem.MustPrefix("10.3.0.0/16"),
		vpAddr:      packet.MustAddr("10.3.0.2"),
		resolver:    packet.MustAddr("10.3.0.53"),
		blockpage:   packet.MustAddr("192.0.2.3"),
		regFraction: obitRegistryFraction,
	}
	vp := n.AddHost(spec.name + "-vp")
	access := n.AddRouter(spec.name + "-access")
	agg := n.AddRouter(spec.name + "-agg")

	vpi := vp.AddIface(spec.vpAddr)
	accDown := access.AddIface(firstAddr(spec.prefix, 1))
	n.Connect(vpi, accDown, linkDelay)
	vp.AddDefaultRoute(vpi)

	symLink, accUp, aggDown := l.link(access, agg)
	sym := l.newDevice("obit-tspu-sym", netem.AtoB, deviceFailureRates[OBIT])
	symLink.Attach(sym)
	defer func() { l.Vantages[OBIT].SymLink = symLink }()
	access.AddRoute(spec.prefix, accDown)
	access.AddDefaultRoute(accUp)
	agg.AddRoute(spec.prefix, aggDown)

	// Transit A ("rostelecom-transit"): default/US-bound. Upstream crosses
	// the device link; return to OBIT comes back over the clean parallel.
	rt := n.AddRouter("rostelecom-transit")
	rtUpLink, aggUpA, rtDownA := l.link(agg, rt)
	_, aggDownA, rtDownB := l.link(agg, rt)
	rtDev := l.newDevice("rt-transit-tspu-uponly", netem.AtoB, deviceFailureRates[OBIT])
	rtUpLink.Attach(rtDev)
	_ = aggDownA
	_ = rtDownA
	_, rtUp, coreDownA := l.link(rt, core)
	rt.AddDefaultRoute(rtUp)
	rt.AddRoute(spec.prefix, rtDownB)
	core.AddRoute(spec.prefix, coreDownA)

	// Transit B ("rascom-transit"): Paris-bound upstream only. Return
	// traffic from Paris reaches OBIT via transit A, so a plain device on
	// this link only ever sees upstream traffic.
	rascom := n.AddRouter("rascom-transit")
	rascomLink, aggUpB, _ := l.link(agg, rascom)
	rascomDev := l.newDevice("rascom-transit-tspu-uponly", netem.AtoB, deviceFailureRates[OBIT])
	rascomLink.Attach(rascomDev)
	_, rascomUp, _ := l.link(rascom, core)
	rascom.AddDefaultRoute(rascomUp)

	agg.AddDefaultRoute(aggUpA)
	agg.AddRoute(netem.MustPrefix("198.51.100.0/24"), aggUpB)

	l.finishVantage(spec, vp, access, []*tspu.Device{sym, rtDev, rascomDev})
}

// finishVantage installs the vantage's stack, resolver host, and blockpage
// host, and records the Vantage.
func (l *Lab) finishVantage(spec vantageSpec, vp *netem.Node, access *netem.Node, devices []*tspu.Device) {
	n := l.Net
	// Resolver host hangs off the access router.
	res := n.AddHost(spec.name + "-resolver")
	resi := res.AddIface(spec.resolver)
	accRes := access.AddIface(firstAddr(spec.prefix, 54))
	n.Connect(resi, accRes, linkDelay)
	res.AddDefaultRoute(resi)
	access.AddRoute(netip.PrefixFrom(spec.resolver, 32), accRes)

	// Blockpage host hangs off ru-core so every ISP can reach it.
	bp := n.AddHost(spec.name + "-blockpage")
	bpi := bp.AddIface(spec.blockpage)
	core := n.Node("ru-core")
	coreAddr, _ := l.transferPair()
	corei := core.AddIface(coreAddr)
	n.Connect(bpi, corei, linkDelay)
	bp.AddDefaultRoute(bpi)
	core.AddRoute(netip.PrefixFrom(spec.blockpage, 32), corei)

	bpStack := hostnet.NewStack(n, bp)
	httpx.Serve(bpStack, 80, func(req *httpx.Request) *httpx.Response {
		return &httpx.Response{
			Status: 200, Reason: "OK",
			Headers: map[string]string{"Server": spec.name + "-blockpage"},
			Body:    ispdpi.BlockpageHTML(spec.name, req.Host),
		}
	})

	stack := hostnet.NewStack(n, vp)
	resolverStack := hostnet.NewStack(n, res)
	v := &Vantage{
		Name:         spec.name,
		Stack:        stack,
		Devices:      devices,
		SymDeviceHop: 2,
		ResolverAddr: spec.resolver,
		Blockpage:    spec.blockpage,
		blocklist:    ispBlocklist{lab: l, registryFrac: spec.regFraction, rng: l.Rand.Fork("ispbl/" + spec.name)},
	}
	v.Resolver = ispdpi.NewBlockpageResolver(resolverStack, spec.name, spec.blockpage, v.ISPBlocklist, func(name string) []netip.Addr {
		return []netip.Addr{realAddrFor(name)}
	})
	l.Vantages[spec.name] = v
}

// realAddrFor deterministically maps a domain to an uncensored "real" IP in
// the US measurement network.
func realAddrFor(name string) netip.Addr {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return netip.AddrFrom4([4]byte{203, 0, 113, byte(20 + h%180)})
}

// firstAddr returns prefix base + offset in the last octet.
func firstAddr(p netip.Prefix, last byte) netip.Addr {
	a := p.Addr().As4()
	a[3] = last
	return netip.AddrFrom4(a)
}
