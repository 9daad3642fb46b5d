// Package topo builds the measurement environment of the paper as one
// simulated internet ("Lab"): three residential vantage ISPs matching §3's
// setup (Rostelecom and OBIT with a second, upstream-only TSPU on path,
// ER-Telecom with a single device), US and Paris measurement machines, a
// "Tor entry node" whose IP is out-registry blocked, per-ISP blockpage
// resolvers with stale blocklists, the centrally-controlled TSPU policy, and
// a synthetic endpoint population with the port mix and deployment depths of
// §7 for the remote-measurement experiments.
//
// Everything derives from one seed; building the same Lab twice yields the
// same network.
package topo

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"tspusim/internal/hostnet"
	"tspusim/internal/httpx"
	"tspusim/internal/ispdpi"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/registry"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
	"tspusim/internal/workload"
)

// Options scale the lab. Zero values get defaults scaled ~1/1000 from the
// paper's populations so the full experiment suite runs in seconds.
type Options struct {
	Seed uint64
	// Endpoints is the RU endpoint population for remote scans (paper:
	// 4,005,138).
	Endpoints int
	// ASes is the number of endpoint ASes (paper: 4,986).
	ASes int
	// EchoServers is the number of port-7 echo endpoints (paper: 1,404).
	EchoServers int
	// TrancoN and RegistryN size the §6 domain lists.
	TrancoN, RegistryN int
}

// linkDelay is the per-hop one-way delay of every lab link.
const linkDelay = time.Millisecond

// Defaults fills every zero-valued option with its laptop-scale default.
func (o *Options) Defaults() {
	if o.Endpoints == 0 {
		o.Endpoints = 2000
	}
	if o.ASes == 0 {
		o.ASes = 40
	}
	if o.EchoServers == 0 {
		o.EchoServers = 140
	}
	if o.TrancoN == 0 {
		o.TrancoN = 2000
	}
	if o.RegistryN == 0 {
		o.RegistryN = 2000
	}
}

// VantageName identifies the three in-country vantage ISPs.
const (
	Rostelecom = "rostelecom"
	ERTelecom  = "ertelecom"
	OBIT       = "obit"
)

// Vantage is one in-country residential vantage point (§3).
type Vantage struct {
	Name  string
	Stack *hostnet.Stack
	// Devices lists TSPU devices on this vantage's outbound path, nearest
	// first. Rostelecom and OBIT have more than one (§7.1.1).
	Devices []*tspu.Device
	// SymDeviceHop is the hop count from the vantage to the first
	// symmetric device's link (paper: within the first three hops).
	SymDeviceHop int
	// Resolver is the ISP's blockpage resolver.
	Resolver *ispdpi.BlockpageResolver
	// ResolverAddr is where the vantage's DNS queries go.
	ResolverAddr netip.Addr
	// Blockpage is this ISP's blockpage IP.
	Blockpage netip.Addr
	// SymLink is the link carrying the first symmetric device — tap it to
	// capture what the device sees and emits.
	SymLink *netem.Link

	blocklist ispBlocklist
}

// ISPBlocklist returns the ISP-maintained (stale) blocklist the vantage's
// resolver answers from. It is built on the first call, by this accessor or
// by the resolver's first lookup, from a stream forked at lab build, so it is
// the same list whenever it is first asked for.
func (v *Vantage) ISPBlocklist() *tspu.DomainSet { return v.blocklist.get() }

// ASKind is the network type of an endpoint AS.
type ASKind int

// AS kinds.
const (
	ASResidential ASKind = iota
	ASMixed
	ASDatacenter
)

func (k ASKind) String() string {
	switch k {
	case ASResidential:
		return "residential"
	case ASMixed:
		return "mixed"
	default:
		return "datacenter"
	}
}

// DeploymentKind describes TSPU presence on an AS's uplink.
type DeploymentKind int

// Deployment kinds.
const (
	DeployNone DeploymentKind = iota
	// DeploySymmetric sees both directions (detectable by frag scans).
	DeploySymmetric
	// DeployUpstreamOnly sees only RU→outside traffic (detectable by the
	// echo technique, invisible to frag scans).
	DeployUpstreamOnly
	// DeployUpstreamProvider means the AS has no device of its own and
	// relies on a symmetric device in its upstream transit ISP (Fig. 11's
	// "censorship-as-a-service").
	DeployUpstreamProvider
)

func (k DeploymentKind) String() string {
	switch k {
	case DeployNone:
		return "none"
	case DeploySymmetric:
		return "symmetric"
	case DeployUpstreamOnly:
		return "upstream-only"
	case DeployUpstreamProvider:
		return "upstream-provider"
	}
	return "?"
}

// AS is one endpoint autonomous system.
type AS struct {
	Index  int
	Number int // synthetic ASN
	Kind   ASKind
	Deploy DeploymentKind
	// DeviceDepth is the hop distance of the device link from endpoints
	// (1 = endpoint access link, 2 = AS uplink, 3+ = deeper in transit).
	DeviceDepth int
	Device      *tspu.Device
	Router      *netem.Node
	Prefix      netip.Prefix
	Endpoints   []*Endpoint
	// lab is the lab that builds the AS's endpoints on demand.
	lab *Lab
}

// Endpoint is one scannable RU endpoint. Its network objects are built on
// first use (Stack); until then it is a plain record.
type Endpoint struct {
	Addr netip.Addr
	AS   *AS
	Port uint16
	// Echo marks a port-7 echo server.
	Echo bool
	// NmapLabel is the OS-detection label ("router", "switch", or "host");
	// the ethics filter of §4 keeps only router/switch targets.
	NmapLabel string
	// BehindTSPU is ground truth: a device with downstream visibility is on
	// the inbound path.
	BehindTSPU bool
	// BehindUpstreamOnly is ground truth for upstream-only devices.
	BehindUpstreamOnly bool
	// DeviceHops is ground truth hops from the endpoint to the device link.
	DeviceHops int

	// What Stack needs to build the endpoint: its index in AS.Endpoints
	// (its host name), its router-side transfer /30, its access link's
	// position in Net.Links, and its own device, if it has one.
	index, transfer, linkPos int
	cpe                      *tspu.Device
	stack                    *hostnet.Stack
}

// Lab is the assembled measurement environment.
type Lab struct {
	Sim  *sim.Sim
	Net  *netem.Network
	Rand *sim.Rand
	Opts Options

	Controller *tspu.Controller
	Devices    []*tspu.Device

	// External machines (§3): two US measurement machines in one network, a
	// Paris measurement machine, and the blocked Tor entry node in the same
	// Paris data center.
	US1, US2, Paris, Tor *hostnet.Stack
	TorAddr              netip.Addr
	// WebFarm stands in for every "real" web server the synthetic domains
	// resolve to (203.0.113.0/24): a promiscuous host serving HTTP for any
	// destination address, so OONI-style fetch tests have an origin to hit.
	WebFarm *hostnet.Stack

	Vantages map[string]*Vantage
	ASes     []*AS
	// Endpoints is the scan population, deterministic order.
	Endpoints []*Endpoint

	// Tranco and Registry are the §6 testing input lists. Their elements
	// must not be modified: RegistryDump and Vantage.ISPBlocklist read them
	// on first use, and no code writes them after buildWorkloadAndPolicy
	// makes the lists.
	Tranco   []workload.Domain
	Registry []workload.Domain
	// RegistryTSPUBlocked is how many registry-sample domains the TSPU
	// enforces (paper: 9,655 of 10,000, scaled).
	RegistryTSPUBlocked int

	// addr allocation state
	nextTransfer int

	// registryStream is the stream RegistryDump draws from, forked at build
	// where the dump used to be made; registryDump caches the dump.
	registryStream *sim.Rand
	registryDump   []registry.Entry
}

// RegistryDump returns the z-i-format dump of the registry sample, the file
// format ISPs actually ingest (internal/registry). It is made on the first
// call, from a stream forked at build, so it is the same dump whenever it is
// first asked for.
func (l *Lab) RegistryDump() []registry.Entry {
	if l.registryStream != nil {
		l.registryDump = registry.FromStream(l.registryStream, l.Registry)
		l.registryStream = nil
	}
	return l.registryDump
}

// PaperScale returns the factor to multiply endpoint counts by when
// reporting at the paper's population size.
func (l *Lab) PaperScale() float64 { return 4005138.0 / float64(len(l.Endpoints)) }

// Limits of the address plan. Past any of them a byte of the plan would
// wrap and hand out an address twice, so BuildOn and BuildUSPopulation panic
// instead, naming the option to change.
const (
	// maxTransferLinks is the capacity of the transfer block 10.255.0.0/16,
	// one /30 per link.
	maxTransferLinks = 256 * 64
	// maxPOPEndpoints is the capacity of a POP's /24: hosts .10 to .255.
	maxPOPEndpoints = 256 - 10
	// maxPOPs is the number of POP /24s in 10.20.0.0 to 10.253.199.0, below
	// the transfer block.
	maxPOPs = (254 - 20) * 200
)

// transferPair takes the next /30 of the transfer block and returns its two
// host addresses.
func (l *Lab) transferPair() (netip.Addr, netip.Addr) { return transferAddrs(l.reserveTransfer()) }

// reserveTransfer takes the next /30 of the transfer block and returns its
// number, for transferAddrs.
func (l *Lab) reserveTransfer() int {
	i := l.nextTransfer
	if i >= maxTransferLinks {
		panic(fmt.Sprintf("topo: the lab needs more than %d links, the capacity of its transfer block; lower Options.Endpoints", maxTransferLinks))
	}
	l.nextTransfer++
	return i
}

// transferAddrs returns the two host addresses of transfer /30 number i.
func transferAddrs(i int) (netip.Addr, netip.Addr) {
	hi, lo := i/64, (i%64)*4
	a := netip.AddrFrom4([4]byte{10, 255, byte(hi), byte(lo + 1)})
	b := netip.AddrFrom4([4]byte{10, 255, byte(hi), byte(lo + 2)})
	return a, b
}

// link connects two nodes with a fresh transfer pair and returns the link
// plus both interfaces (a on 'from', b on 'to').
func (l *Lab) link(from, to *netem.Node) (*netem.Link, *netem.Iface, *netem.Iface) {
	fa, ta := l.transferPair()
	fi := from.AddIface(fa)
	ti := to.AddIface(ta)
	return l.Net.Connect(fi, ti, linkDelay), fi, ti
}

// Build assembles the lab on a fresh Sim.
func Build(opts Options) *Lab { return BuildOn(sim.New(), opts) }

// BuildOn assembles the lab on an existing Sim, which must be idle (fresh,
// or Reset after a previous run). Fleet workers reuse one Sim per job slot
// so the event freelist built up by one job serves the next instead of being
// reallocated per lab. BuildOn panics, naming the option to change, if the
// options outgrow the lab's IPv4 address plan: more links than its transfer
// block holds, more endpoints in one POP than its /24 holds, or more POPs
// than the endpoint block holds.
func BuildOn(s *sim.Sim, opts Options) *Lab {
	opts.Defaults()
	l := &Lab{
		Sim:      s,
		Rand:     sim.NewRand(opts.Seed),
		Opts:     opts,
		Vantages: make(map[string]*Vantage),
	}
	l.Net = netem.New(l.Sim)

	l.buildExternal()
	l.buildCore()
	l.buildWorkloadAndPolicy()
	l.buildVantages()
	l.buildEndpoints()
	return l
}

func (l *Lab) buildExternal() {
	n := l.Net
	l.Net.AddRouter("ext-hub")
	us := n.AddRouter("us-router")
	paris := n.AddRouter("paris-router")

	hub := n.Node("ext-hub")
	_, hubUS, usUp := l.link(hub, us)
	_, hubP, parisUp := l.link(hub, paris)

	us1 := n.AddHost("us-measure-1")
	us2 := n.AddHost("us-measure-2")
	pm := n.AddHost("paris-measure")
	tor := n.AddHost("tor-node")

	us1i := us1.AddIface(packet.MustAddr("203.0.113.10"))
	us2i := us2.AddIface(packet.MustAddr("203.0.113.11"))
	pmi := pm.AddIface(packet.MustAddr("198.51.100.10"))
	tori := tor.AddIface(packet.MustAddr("198.51.100.7"))
	usr1 := us.AddIface(packet.MustAddr("203.0.113.1"))
	usr2 := us.AddIface(packet.MustAddr("203.0.113.2"))
	pr1 := paris.AddIface(packet.MustAddr("198.51.100.1"))
	pr2 := paris.AddIface(packet.MustAddr("198.51.100.2"))

	n.Connect(us1i, usr1, linkDelay)
	n.Connect(us2i, usr2, linkDelay)
	n.Connect(pmi, pr1, linkDelay)
	n.Connect(tori, pr2, linkDelay)

	us1.AddDefaultRoute(us1i)
	us2.AddDefaultRoute(us2i)
	pm.AddDefaultRoute(pmi)
	tor.AddDefaultRoute(tori)

	us.AddRoute(netem.MustPrefix("203.0.113.10/32"), usr1)
	us.AddRoute(netem.MustPrefix("203.0.113.11/32"), usr2)
	us.AddDefaultRoute(usUp)

	// The web farm absorbs the rest of 203.0.113.0/24 (longest prefix keeps
	// the measurement machines' /32 routes ahead of it).
	farm := n.AddHost("web-farm")
	farmAddr, _ := l.transferPair()
	fi := farm.AddIface(farmAddr)
	usFarm := us.AddIface(packet.MustAddr("203.0.113.3"))
	n.Connect(fi, usFarm, linkDelay)
	farm.AddDefaultRoute(fi)
	farm.SetPromiscuous(true)
	us.AddRoute(netem.MustPrefix("203.0.113.0/24"), usFarm)
	l.WebFarm = hostnet.NewStack(n, farm)
	// TLS-ish service: any ClientHello gets a ServerHello-shaped reply, so
	// SNI tests against resolved addresses have a live origin.
	l.WebFarm.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, data []byte) {
			c.Send([]byte("SERVERHELLO-CERTIFICATE-DONE"))
		},
	})
	httpx.Serve(l.WebFarm, 80, func(req *httpx.Request) *httpx.Response {
		return &httpx.Response{
			Status: 200, Reason: "OK",
			Headers: map[string]string{"Server": "origin"},
			Body:    "<html><head><title>" + req.Host + "</title></head><body>content of " + req.Host + "</body></html>",
		}
	})
	paris.AddRoute(netem.MustPrefix("198.51.100.10/32"), pr1)
	paris.AddRoute(netem.MustPrefix("198.51.100.7/32"), pr2)
	paris.AddDefaultRoute(parisUp)

	hub.AddRoute(netem.MustPrefix("203.0.113.0/24"), hubUS)
	hub.AddRoute(netem.MustPrefix("198.51.100.0/24"), hubP)

	l.US1 = hostnet.NewStack(n, us1)
	l.US2 = hostnet.NewStack(n, us2)
	l.Paris = hostnet.NewStack(n, pm)
	l.Tor = hostnet.NewStack(n, tor)
	l.TorAddr = tori.Addr()
}

func (l *Lab) buildCore() {
	n := l.Net
	core := n.AddRouter("ru-core")
	border := n.AddRouter("ru-border")
	_, coreUp, borderDown := l.link(core, border)
	_, borderUp, hubRU := l.link(border, n.Node("ext-hub"))

	core.AddDefaultRoute(coreUp)
	border.AddDefaultRoute(borderUp)
	border.AddRoute(netem.MustPrefix("10.0.0.0/8"), borderDown)
	n.Node("ext-hub").AddRoute(netem.MustPrefix("10.0.0.0/8"), hubRU)
	n.Node("ext-hub").AddRoute(netem.MustPrefix("192.0.2.0/24"), hubRU)
	border.AddRoute(netem.MustPrefix("192.0.2.0/24"), borderDown)

	l.Controller = tspu.NewController(nil)
}

// newDevice creates, registers, and records a TSPU device. Each lane sweeps
// its expired conntrack entries every 30 s of virtual time, so a lab that
// runs trial after trial holds only the flows still inside their timeouts.
func (l *Lab) newDevice(name string, localDir netem.Direction, rates map[tspu.BlockType]float64) *tspu.Device {
	d := tspu.NewDevice(tspu.Config{
		Name:         name,
		Sim:          l.Sim,
		Rand:         l.Rand.Fork("device/" + name),
		LocalDir:     localDir,
		FailureRates: rates,
	})
	d.EnableAutoSweep(0)
	l.Controller.Register(d)
	l.Devices = append(l.Devices, d)
	return d
}

// TopologyDOT renders the lab's node/link graph as Graphviz DOT: routers as
// boxes, hosts as ellipses, TSPU-bearing links in red — a Fig. 1-style
// overview of the measurement setup. includeEndpoints builds every endpoint
// not yet built, whose links Net.Links lists in build order.
func (l *Lab) TopologyDOT(includeEndpoints bool) string {
	if includeEndpoints {
		for _, ep := range l.Endpoints {
			ep.Stack()
		}
	}
	var b strings.Builder
	b.WriteString("graph tspusim {\n  layout=neato;\n  overlap=false;\n")
	skip := func(name string) bool {
		if includeEndpoints {
			return false
		}
		// Endpoint hosts and their per-AS routers dominate the graph;
		// collapse them unless asked.
		return strings.Contains(name, "-e") && strings.Contains(name, "as")
	}
	seen := map[string]bool{}
	for _, link := range l.Net.Links() {
		a, z := link.A().Node(), link.B().Node()
		if skip(a.Name()) || skip(z.Name()) {
			continue
		}
		for _, nd := range []*netem.Node{a, z} {
			if !seen[nd.Name()] {
				seen[nd.Name()] = true
				shape := "ellipse"
				if nd.IsRouter() {
					shape = "box"
				}
				fmt.Fprintf(&b, "  %q [shape=%s];\n", nd.Name(), shape)
			}
		}
		attr := ""
		for _, mb := range link.Middleboxes() {
			if strings.Contains(mb.Name(), "tspu") {
				attr = ` [color=red penwidth=2 label="TSPU"]`
			}
		}
		fmt.Fprintf(&b, "  %q -- %q%s;\n", a.Name(), z.Name(), attr)
	}
	b.WriteString("}\n")
	return b.String()
}
