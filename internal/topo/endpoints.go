package topo

import (
	"fmt"
	"net/netip"

	"tspusim/internal/hostnet"
	"tspusim/internal/ispdpi"
	"tspusim/internal/netem"
	"tspusim/internal/sim"
)

// Per-kind endpoint port mixes. Port 7547 (TR-069, CPE management) dominates
// residential networks, which is the paper's explanation for why that port
// shows the most TSPU interference (Fig. 9).
var portMixes = map[ASKind][]uint16{
	ASResidential: {7547, 7547, 7547, 7547, 7547, 7547, 8080, 8080, 58000, 80, 443, 1723, 21},
	ASMixed:       {80, 80, 443, 443, 22, 8080, 7547, 7547, 3389, 445},
	ASDatacenter:  {80, 80, 80, 443, 443, 443, 22, 22, 3389, 445, 21, 58000},
}

// ScanPorts are the ten most popular RU ports of §7.2 in display order.
var ScanPorts = []uint16{21, 22, 80, 443, 445, 1723, 3389, 7547, 8080, 58000}

// deviceDepthDist is the Fig. 12 placement mix: hop distance of the TSPU
// link from the endpoint. ~70% within the first two hops.
var deviceDepthDist = []struct {
	depth  int
	weight float64
}{
	{1, 0.42}, {2, 0.29}, {3, 0.12}, {4, 0.07}, {5, 0.04},
	{6, 0.03}, {7, 0.015}, {8, 0.01}, {9, 0.005}, {10, 0.01},
}

func sampleDepth(r *sim.Rand) int {
	u := r.Float64()
	acc := 0.0
	for _, d := range deviceDepthDist {
		acc += d.weight
		if u < acc {
			return d.depth
		}
	}
	return 2
}

func (l *Lab) buildEndpoints() {
	r := l.Rand.Fork("endpoints")
	core := l.Net.Node("ru-core")
	l.Endpoints = make([]*Endpoint, 0, l.Opts.Endpoints)

	// Shared "censorship-as-a-service" transit providers (Fig. 11): a
	// symmetric device on the provider-core link serves several client ASes.
	// The provider is the A side of that link, so local→remote (provider to
	// core) is AtoB.
	var providers []*netem.Node
	var providerCoreIfs []*netem.Iface
	for i := 0; i < 3; i++ {
		p := l.Net.AddRouter(providerName(i))
		link, pUp, coreDown := l.link(p, core)
		dev := l.newDevice(providerName(i)+"-tspu", netem.AtoB, nil)
		link.Attach(dev)
		p.AddDefaultRoute(pUp)
		providers = append(providers, p)
		providerCoreIfs = append(providerCoreIfs, coreDown)
	}

	// Real AS populations are heavily skewed; draw Fibonacci-ish weights so
	// a few ASes hold many endpoints (the §7.3 "large AS" statistic needs a
	// size distribution to be meaningful).
	weights := make([]int, l.Opts.ASes)
	totalW := 0
	for i := range weights {
		weights[i] = []int{1, 1, 2, 3, 5, 8}[r.Intn(6)]
		totalW += weights[i]
	}
	made := 0
	popIdx := 0
	for i := 0; i < l.Opts.ASes && made < l.Opts.Endpoints; i++ {
		perAS := l.Opts.Endpoints * weights[i] / totalW
		if perAS < 1 {
			perAS = 1
		}
		kind := sampleKind(r, weights[i])
		// Large ASes split into independently-deployed POPs: the paper's
		// ">75% of large ASes contain endpoints behind TSPUs" coexists with
		// a 25% endpoint rate only if coverage inside an AS is partial.
		pops := 1
		if weights[i] >= 5 {
			pops = 3
		}
		for p := 0; p < pops && made < l.Opts.Endpoints; p++ {
			if popIdx >= maxPOPs {
				panic(fmt.Sprintf("topo: the lab needs more than %d endpoint POPs, the capacity of its endpoint block; lower Options.ASes", maxPOPs))
			}
			deploy := sampleDeploy(r, kind)
			as := &AS{
				Index:  popIdx,
				Number: 200000 + i,
				Kind:   kind,
				Deploy: deploy,
				Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(20 + popIdx/200), byte(popIdx % 200), 0}), 24),
			}
			popIdx++
			count := perAS / pops
			if count < 1 {
				count = 1
			}
			if made+count > l.Opts.Endpoints {
				count = l.Opts.Endpoints - made
			}
			l.buildAS(r, as, core, providers, count)
			if deploy == DeployUpstreamProvider {
				// The core must route the client AS via its provider.
				core.AddRoute(as.Prefix, providerCoreIfs[as.Index%len(providerCoreIfs)])
			}
			l.ASes = append(l.ASes, as)
			made += count
		}
	}
}

func providerName(i int) string {
	return []string{"provider-rostelecom", "provider-ttk", "provider-transtelecom"}[i]
}

// sampleKind draws an AS type; heavy (large) ASes skew residential — the
// nation-scale eyeball networks are exactly where Roskomnadzor mandated
// deployment, which is why §7.3 finds >75% of large ASes behind TSPUs.
func sampleKind(r *sim.Rand, weight int) ASKind {
	u := r.Float64()
	if weight >= 5 { // the top of the size distribution
		switch {
		case u < 0.75:
			return ASResidential
		case u < 0.92:
			return ASMixed
		default:
			return ASDatacenter
		}
	}
	switch {
	case u < 0.40:
		return ASResidential
	case u < 0.67:
		return ASMixed
	default:
		return ASDatacenter
	}
}

// sampleDeploy draws the TSPU presence for one AS (or one POP of a large
// AS — deployment is per-installation, which is how the paper's large ASes
// can contain both covered and uncovered endpoints).
func sampleDeploy(r *sim.Rand, k ASKind) DeploymentKind {
	u := r.Float64()
	switch k {
	case ASResidential:
		switch {
		case u < 0.30:
			return DeploySymmetric
		case u < 0.42:
			return DeployUpstreamOnly
		case u < 0.47:
			return DeployUpstreamProvider
		default:
			return DeployNone
		}
	case ASMixed:
		switch {
		case u < 0.12:
			return DeploySymmetric
		case u < 0.22:
			return DeployUpstreamOnly
		case u < 0.25:
			return DeployUpstreamProvider
		default:
			return DeployNone
		}
	default:
		if u < 0.02 {
			return DeploySymmetric
		}
		return DeployNone
	}
}

// buildAS wires one endpoint AS: core - [chain] - ASr - endpoints, with the
// device placed per the AS's deployment kind and depth.
func (l *Lab) buildAS(r *sim.Rand, as *AS, core *netem.Node, providers []*netem.Node, count int) {
	if count > maxPOPEndpoints {
		panic(fmt.Sprintf("topo: POP %s needs %d endpoint addresses, its /24 holds %d; lower Options.Endpoints or raise Options.ASes",
			as.Prefix, count, maxPOPEndpoints))
	}
	n := l.Net
	asr := n.AddRouter(asName(as, "r"))
	as.Router = asr

	parent := core
	if as.Deploy == DeployUpstreamProvider {
		parent = providers[as.Index%len(providers)]
	}

	// Chain of depth-2..depth routers between ASr and parent; the device
	// link is the one 'depth' hops from an endpoint (endpoint-ASr is hop 1).
	chainLen := 0
	if as.Deploy == DeploySymmetric || as.Deploy == DeployUpstreamOnly {
		if as.DeviceDepth == 0 {
			as.DeviceDepth = sampleDepth(r)
		}
		if as.DeviceDepth > 2 {
			chainLen = as.DeviceDepth - 2
		}
	}
	nodes := []*netem.Node{asr}
	for c := 0; c < chainLen; c++ {
		nodes = append(nodes, n.AddRouter(asName(as, "t"+itoa(c))))
	}
	nodes = append(nodes, parent)

	// Wire consecutive nodes; attach the device on the correct link.
	for j := 0; j+1 < len(nodes); j++ {
		lower, upper := nodes[j], nodes[j+1]
		linkDepth := j + 2 // endpoint->ASr is depth 1; ASr->next is 2...
		needDevice := (as.Deploy == DeploySymmetric || as.Deploy == DeployUpstreamOnly) &&
			as.DeviceDepth >= 2 && linkDepth == as.DeviceDepth
		if needDevice && as.Deploy == DeployUpstreamOnly {
			// Parallel pair: device on the upstream link, clean return.
			upLink, lowUp, _ := l.link(lower, upper)
			dev := l.newDevice(asName(as, "tspu-up"), netem.AtoB, nil)
			upLink.Attach(dev)
			as.Device = dev
			_, _, upDownIf := l.link(lower, upper)
			lower.AddDefaultRoute(lowUp)
			upper.AddRoute(as.Prefix, upDownIf)
		} else {
			link, lowUp, upDown := l.link(lower, upper)
			if needDevice {
				dev := l.newDevice(asName(as, "tspu-sym"), netem.AtoB, nil)
				link.Attach(dev)
				as.Device = dev
			}
			lower.AddDefaultRoute(lowUp)
			upper.AddRoute(as.Prefix, upDown)
		}
	}

	perEndpointDevice := as.Deploy == DeploySymmetric && as.DeviceDepth == 1

	// Endpoints hang off ASr on individual links. Only their records are
	// made here: each reserves its addresses and its place in Net.Links, and
	// Endpoint.Stack builds the host the first time a lookup at ASr resolves
	// into the POP's prefix.
	as.lab = l
	asr.AddLazyRoute(as.Prefix, as.buildEndpoint)
	base := as.Prefix.Addr().As4()
	records := make([]Endpoint, count)
	as.Endpoints = make([]*Endpoint, 0, count)
	for k := range records {
		ep := &records[k]
		*ep = Endpoint{
			Addr:     netip.AddrFrom4([4]byte{base[0], base[1], base[2], byte(10 + k)}),
			AS:       as,
			Port:     sim.Pick(r, portMixes[as.Kind]),
			index:    k,
			transfer: l.reserveTransfer(),
			linkPos:  n.ReserveLink(),
		}
		if perEndpointDevice {
			// Host is the A side of its access link; local→remote is
			// host→ASr = AtoB.
			ep.cpe = l.newDevice(asName(as, "tspu-cpe"+itoa(k)), netem.AtoB, nil)
			as.Device = ep.cpe
		}
		switch {
		case as.Deploy == DeploySymmetric, as.Deploy == DeployUpstreamProvider:
			ep.BehindTSPU = true
			ep.DeviceHops = as.DeviceDepth
			if as.Deploy == DeployUpstreamProvider {
				ep.DeviceHops = 3 // endpoint - ASr - provider - [device] core
			}
		case as.Deploy == DeployUpstreamOnly:
			ep.BehindUpstreamOnly = true
			ep.DeviceHops = as.DeviceDepth
		}
		as.Endpoints = append(as.Endpoints, ep)
		l.Endpoints = append(l.Endpoints, ep)
	}

	// Echo servers and Nmap labels are assigned lab-wide afterwards.
	l.assignEchoAndLabels(r, as)
}

// buildEndpoint is the AS router's lazy route: it builds the endpoint at
// dst, if dst is one and it is not built yet.
func (as *AS) buildEndpoint(dst netip.Addr) {
	if k := int(dst.As4()[3]) - 10; k >= 0 && k < len(as.Endpoints) {
		as.Endpoints[k].Stack()
	}
}

// Stack returns the endpoint's host stack, building the endpoint first if
// nothing has routed to it yet: the host and its interface, the AS router's
// interface, the access link (with the endpoint's own device, if it has
// one), the router's /32 route, the stack and its listeners. Building draws
// nothing from the lab's random streams and takes the addresses and link
// position reserved at lab build, so a lab is the same network whichever
// endpoints have been built, and in whatever order.
func (ep *Endpoint) Stack() *hostnet.Stack {
	if ep.stack != nil {
		return ep.stack
	}
	as, l := ep.AS, ep.AS.lab
	n := l.Net
	host := n.AddHost(asName(as, "e"+itoa(ep.index)))
	hi := host.AddIface(ep.Addr)
	ra, _ := transferAddrs(ep.transfer)
	ri := as.Router.AddIface(ra)
	link := n.ConnectAt(ep.linkPos, hi, ri, linkDelay)
	host.AddDefaultRoute(hi)
	as.Router.AddRoute(netip.PrefixFrom(ep.Addr, 32), ri)
	if ep.cpe != nil {
		link.Attach(ep.cpe)
	}
	ep.stack = hostnet.NewStack(n, host)
	ep.stack.Listen(ep.Port, hostnet.ListenOptions{})
	if ep.Echo {
		ep.stack.Listen(7, hostnet.ListenOptions{Echo: true})
	}
	return ep.stack
}

// assignEchoAndLabels marks some endpoints as echo servers with
// router/switch labels. Echo servers are embedded infrastructure, so they
// get router/switch labels more often.
func (l *Lab) assignEchoAndLabels(r *sim.Rand, as *AS) {
	for _, ep := range as.Endpoints {
		switch {
		case r.Bool(0.55):
			ep.NmapLabel = "router"
		case r.Bool(0.55):
			ep.NmapLabel = "switch"
		default:
			ep.NmapLabel = "host"
		}
	}
	// Echo share: favor upstream-only ASes so the Table 4 funnel has
	// positives to find (the paper found them concentrated in 15 ASes).
	p := float64(l.Opts.EchoServers) / float64(max(1, l.Opts.Endpoints))
	if as.Deploy == DeployUpstreamOnly {
		p *= 4
	}
	for _, ep := range as.Endpoints {
		ep.Echo = r.Bool(p)
	}
}

// USEndpoint is a host in the US control population for the fragment-limit
// fingerprint validation (§7.2's 0.708% finding).
type USEndpoint struct {
	Addr       netip.Addr
	Stack      *hostnet.Stack
	FragLimit  int // middlebox limit on path, 0 = none
	LooksLike  bool
	Middlebox  *ispdpi.FragLimitMiddlebox
	DeviceHops int
}

// maxUSEndpoints is the capacity of the US population's block, 200 hosts in
// each of 203.0.120.0/24 to 203.0.255.0/24.
const maxUSEndpoints = (256 - 120) * 200

// BuildUSPopulation attaches n US hosts behind us-router, a small fraction
// of which sit behind fragment-limiting middleboxes (one AS17306-like group
// with a 45-ish limit).
func (l *Lab) BuildUSPopulation(n int) []*USEndpoint {
	if n > maxUSEndpoints {
		panic(fmt.Sprintf("topo: BuildUSPopulation(%d) exceeds the %d addresses of its block", n, maxUSEndpoints))
	}
	r := l.Rand.Fork("us-endpoints")
	usr := l.Net.Node("us-router")
	var out []*USEndpoint
	for i := 0; i < n; i++ {
		host := l.Net.AddHost("us-e" + itoa(i))
		addr := netip.AddrFrom4([4]byte{203, 0, byte(120 + i/200), byte(10 + i%200)})
		hi := host.AddIface(addr)
		ra, _ := l.transferPair()
		ri := usr.AddIface(ra)
		link := l.Net.Connect(hi, ri, linkDelay)
		host.AddDefaultRoute(hi)
		usr.AddRoute(netip.PrefixFrom(addr, 32), ri)
		ep := &USEndpoint{Addr: addr, Stack: hostnet.NewStack(l.Net, host)}
		ep.Stack.Listen(7547, hostnet.ListenOptions{})
		switch {
		case r.Bool(0.00708):
			// The AS17306-like population: a middlebox with the same queue
			// limit as the TSPU.
			ep.FragLimit = 45
			ep.Middlebox = ispdpi.NewFragLimitMiddlebox("as17306", 45)
			link.Attach(ep.Middlebox)
		case r.Bool(0.02):
			ep.FragLimit = 24
			ep.Middlebox = ispdpi.NewFragLimitMiddlebox("cisco", 24)
			link.Attach(ep.Middlebox)
		}
		out = append(out, ep)
	}
	return out
}

func asName(as *AS, suffix string) string {
	// Index (not Number) keys node names: POPs of one ASN are distinct
	// routers.
	return "as" + itoa(as.Number) + "p" + itoa(as.Index) + "-" + suffix
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
