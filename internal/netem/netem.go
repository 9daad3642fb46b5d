// Package netem is a deterministic packet-level network emulator: hosts and
// routers connected by links, longest-prefix-match routing (which makes the
// asymmetric Russian routes of §7.1.1 directly expressible), TTL decrement
// with ICMP Time Exceeded generation (enabling traceroute and TTL-limited
// trigger probes), in-path middlebox chains on links, and packet capture.
//
// Middleboxes follow the XDP verdict model: for every packet crossing their
// link they return Pass or Drop, and may inject packets of their own. The
// TSPU device (internal/tspu), the ISP DPIs, and the comparator fragment
// middleboxes all attach through this one interface, and Chain is the one
// executor that walks them, for links and the batch engine alike.
package netem

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// MustPrefix parses a CIDR prefix, panicking on error. For topology literals
// and tests.
func MustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// Network owns the nodes and links of one emulated internet.
type Network struct {
	Sim   *sim.Sim
	nodes map[string]*Node
	links []*Link
	// nextLinkPos is the position in Links' build order that the next
	// ReserveLink hands out.
	nextLinkPos int
	// retention is the pooldebug retention check's state (pooldebug.go);
	// empty in the normal build.
	retention retention
	// freeDeliveries recycles pending-delivery records (struct + bound
	// closure); every in-flight hop otherwise allocates a fresh closure, the
	// single largest allocation site in whole-lab profiles. The network is
	// single-goroutine (one Sim), so a plain slice is safe.
	freeDeliveries []*delivery
	// freePackets recycles packets at the end of their life (release), for
	// NewPacket to hand to the next origination with their headers and
	// buffers. Packets were the bulk of what a Table 1 trial allocated.
	freePackets []*packet.Packet
	// embed is the scratch buffer Time Exceeded messages marshal the
	// expired packet into.
	embed []byte
}

// NewPacket returns an empty packet (packet.Packet.Reset) for one
// origination: the caller fills it, typically with a Set method, and hands
// it to Node.SendOwned. It comes from the network's free list when that
// holds one, so it may carry spare headers and buffers from an earlier life.
func (n *Network) NewPacket() *packet.Packet {
	k := len(n.freePackets)
	if k == 0 {
		return new(packet.Packet)
	}
	p := n.freePackets[k-1]
	n.freePackets = n.freePackets[:k-1]
	p.Reset()
	return p
}

// free puts a dead packet on the free list. Release points call release,
// which the pooldebug build routes through the retention check first.
func (n *Network) free(pkt *packet.Packet) { n.freePackets = append(n.freePackets, pkt) }

// delivery is one scheduled far-end delivery. run is the closure handed to
// Sim.After, bound once when the record is first allocated and reused for
// every subsequent hop the record serves.
type delivery struct {
	net  *Network
	link *Link
	pkt  *packet.Packet
	dir  Direction
	dst  *Iface
	run  func()
}

func (n *Network) newDelivery() *delivery {
	if k := len(n.freeDeliveries); k > 0 {
		d := n.freeDeliveries[k-1]
		n.freeDeliveries = n.freeDeliveries[:k-1]
		return d
	}
	d := &delivery{net: n}
	d.run = d.fire
	return d
}

// fire delivers the packet and returns the record to the pool. The fields
// are copied out and cleared before delivery runs, because delivery can
// re-enter transmit and hand the same record to the next hop.
func (d *delivery) fire() {
	l, pkt, dir, dst := d.link, d.pkt, d.dir, d.dst
	d.link, d.pkt, d.dst = nil, nil, nil
	d.net.freeDeliveries = append(d.net.freeDeliveries, d)
	for _, t := range l.taps {
		t.record(l, pkt, dir, false)
	}
	dst.node.deliver(dst, d.net.handoff(pkt))
}

// New creates an empty network driven by s.
func New(s *sim.Sim) *Network {
	return &Network{Sim: s, nodes: make(map[string]*Node)}
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Links returns every link in build order: the order of Connect calls, with
// a link made by ConnectAt at the position its ReserveLink call held.
func (n *Network) Links() []*Link { return n.links }

// AddHost adds an end host. Hosts deliver packets addressed to them to their
// handler and refuse to forward anything else.
func (n *Network) AddHost(name string) *Node {
	return n.addNode(name, false)
}

// AddRouter adds a router, which forwards packets per its routing table,
// decrements TTL, and emits ICMP Time Exceeded when TTL reaches zero.
func (n *Network) AddRouter(name string) *Node {
	return n.addNode(name, true)
}

func (n *Network) addNode(name string, router bool) *Node {
	if _, dup := n.nodes[name]; dup {
		panic("netem: duplicate node name " + name)
	}
	node := &Node{net: n, name: name, router: router}
	n.nodes[name] = node
	return node
}

// Handler consumes packets locally delivered to a host.
type Handler func(pkt *packet.Packet)

// Node is a host or router.
type Node struct {
	net    *Network
	name   string
	router bool
	ifaces []*Iface
	// addrs indexes the interface addresses of nodes with more than
	// addrScanMax interfaces; smaller nodes leave it nil and scan ifaces.
	addrs   map[uint32]struct{}
	routes  routeTable
	handler Handler
	// promiscuous hosts accept packets for any destination address — used
	// for "web farm" hosts that stand in for an entire prefix of servers.
	promiscuous bool
	// DropLocal counts locally-addressed packets discarded because the host
	// had no handler; useful in tests.
	DropLocal int
}

// Name returns the node name.
func (nd *Node) Name() string { return nd.name }

// IsRouter reports whether the node forwards packets.
func (nd *Node) IsRouter() bool { return nd.router }

// SetHandler installs the local delivery handler (hosts and router control
// planes).
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

// SetPromiscuous makes a host accept packets addressed to any destination,
// standing in for every server in the prefix routed to it.
func (nd *Node) SetPromiscuous(on bool) { nd.promiscuous = on }

// AddIface creates an interface with the given IPv4 address.
func (nd *Node) AddIface(addr netip.Addr) *Iface {
	if !addr.Is4() {
		panic("netem: interface address " + addr.String() + " is not IPv4")
	}
	ifc := &Iface{node: nd, addr: addr, index: len(nd.ifaces)}
	nd.ifaces = append(nd.ifaces, ifc)
	nd.indexAddr(addr)
	return ifc
}

// Addr returns the address of the node's first interface. Panics if the node
// has no interfaces.
func (nd *Node) Addr() netip.Addr {
	if len(nd.ifaces) == 0 {
		panic("netem: node " + nd.name + " has no interfaces")
	}
	return nd.ifaces[0].addr
}

// HasAddr reports whether a packet addressed to a is local to this node.
func (nd *Node) HasAddr(a netip.Addr) bool {
	if nd.addrs != nil {
		if !a.Is4() {
			return false
		}
		_, ok := nd.addrs[addr4(a)]
		return ok
	}
	for _, ifc := range nd.ifaces {
		if ifc.addr == a {
			return true
		}
	}
	return false
}

// AddRoute installs an IPv4 prefix route out the given interface. Longest
// prefix wins; ties go to the most recently added route. Host bits of the
// prefix address are ignored, as in netip.Prefix.Contains.
func (nd *Node) AddRoute(prefix netip.Prefix, out *Iface) {
	if out.node != nd {
		panic("netem: route out of foreign interface")
	}
	if !prefix.IsValid() || !prefix.Addr().Is4() {
		panic("netem: route prefix " + prefix.String() + " is not IPv4")
	}
	nd.routes.add(prefix, out)
}

// AddDefaultRoute installs 0.0.0.0/0 out the given interface.
func (nd *Node) AddDefaultRoute(out *Iface) {
	nd.AddRoute(netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0), out)
}

// AddLazyRoute makes prefix, an IPv4 prefix, a range whose routes are built
// on demand: a lookup for an address in prefix that finds no route longer
// than prefix first calls build(dst), which may add routes, and then looks
// again. A lab uses it to build an endpoint host the first time something
// routes to it. build runs on every such lookup, so it must be cheap when
// there is nothing left to build, and it must draw from no seeded stream, or
// building on demand would change what a seed produces. Nodes without a lazy
// route pay nothing for the hook.
func (nd *Node) AddLazyRoute(prefix netip.Prefix, build func(dst netip.Addr)) {
	nd.routes.addLazy(prefix, build)
}

// Lookup returns the output interface for dst, or nil if unroutable.
func (nd *Node) Lookup(dst netip.Addr) *Iface { return nd.routes.lookup(dst) }

// Route is one entry of a node's routing table.
type Route struct {
	Prefix netip.Prefix
	Out    *Iface
}

// Routes returns the node's routing table, longest prefix first and in
// address order within a length, the default route last. It is for
// inspection (dumps, digests), not for the packet path.
func (nd *Node) Routes() []Route { return nd.routes.list() }

// Send originates a packet from this node: it is routed out the node's
// table without TTL decrement (the IP stack of the sender sets TTL). The
// network carries a copy, taken from its free list, so the caller keeps pkt.
func (nd *Node) Send(pkt *packet.Packet) {
	if out := nd.egress(pkt); out != nil {
		c := nd.net.NewPacket()
		pkt.CloneInto(c)
		out.link.transmit(out, c)
	}
}

// SendOwned is Send without the copy, for a packet built for this one send
// (NewPacket): the network takes pkt, rewrites it in flight (TTL, middlebox
// edits) and recycles it at the end of its life, so the caller must not use
// pkt, or any byte slice it holds, afterwards.
func (nd *Node) SendOwned(pkt *packet.Packet) {
	if out := nd.egress(pkt); out != nil {
		out.link.transmit(out, pkt)
	} else {
		nd.net.release(pkt)
	}
}

// egress returns the linked interface pkt leaves by, or nil if it is
// unroutable and silently dropped, like a missing default route.
func (nd *Node) egress(pkt *packet.Packet) *Iface {
	out := nd.Lookup(pkt.IP.Dst)
	if out == nil || out.link == nil {
		return nil
	}
	return out
}

// deliver handles a packet arriving at the node. Every path but forwarding
// ends the packet's life, so it goes back to the free list: a handler may
// not keep it past its return (the retention contract on Middlebox).
func (nd *Node) deliver(in *Iface, pkt *packet.Packet) {
	if nd.HasAddr(pkt.IP.Dst) || (nd.promiscuous && !nd.router) {
		if nd.handler != nil {
			nd.handler(pkt)
		} else {
			nd.DropLocal++
		}
		nd.net.release(pkt)
		return
	}
	if !nd.router {
		nd.net.release(pkt) // hosts do not forward
		return
	}
	if pkt.IP.TTL <= 1 {
		nd.sendTimeExceeded(in, pkt)
		nd.net.release(pkt)
		return
	}
	out := nd.Lookup(pkt.IP.Dst)
	if out == nil || out.link == nil {
		nd.net.release(pkt)
		return
	}
	// Forward in place, per the Middlebox retention contract (link.go):
	// nothing upstream holds the pointer, and cloning per hop dominated
	// whole-lab allocation profiles.
	pkt.IP.TTL--
	out.link.transmit(out, pkt)
}

// sendTimeExceeded emits ICMP Time Exceeded to the packet source, embedding
// the offending IP header + 8 bytes as real routers do, so traceroute can
// correlate probes.
func (nd *Node) sendTimeExceeded(in *Iface, orig *packet.Packet) {
	if orig.IP.Protocol == packet.ProtoICMP && orig.ICMP != nil &&
		(orig.ICMP.Type == packet.ICMPTimeExceed || orig.ICMP.Type == packet.ICMPUnreachable) {
		return // never ICMP about ICMP errors
	}
	n := nd.net
	embed, err := orig.MarshalAppend(n.embed[:0])
	if err != nil {
		return
	}
	n.embed = embed
	if len(embed) > 28 {
		embed = embed[:28]
	}
	reply := n.NewPacket()
	reply.SetICMP(in.addr, orig.IP.Src, packet.ICMPTimeExceed, 0, 0, embed)
	nd.SendOwned(reply)
}

// Iface is a network interface: one address, at most one link.
type Iface struct {
	node  *Node
	addr  netip.Addr
	link  *Link
	index int
}

// Addr returns the interface address.
func (i *Iface) Addr() netip.Addr { return i.addr }

// Node returns the owning node.
func (i *Iface) Node() *Node { return i.node }

func (i *Iface) String() string {
	return fmt.Sprintf("%s[%d]=%s", i.node.name, i.index, i.addr)
}

// Connect joins two interfaces with a link of the given one-way delay.
func (n *Network) Connect(a, b *Iface, delay time.Duration) *Link {
	return n.ConnectAt(n.ReserveLink(), a, b, delay)
}

// ReserveLink holds the next position in Links for a link that ConnectAt
// makes later. A topology that builds some links only when traffic first
// needs them reserves their positions up front, so Links lists them where
// building everything at once would have.
func (n *Network) ReserveLink() int {
	n.nextLinkPos++
	return n.nextLinkPos - 1
}

// ConnectAt is Connect for a link whose position in Links was reserved
// with ReserveLink.
func (n *Network) ConnectAt(pos int, a, b *Iface, delay time.Duration) *Link {
	if a.link != nil || b.link != nil {
		panic("netem: interface already linked")
	}
	l := &Link{net: n, a: a, b: b, delay: delay, pos: pos}
	l.chain = Chain{sim: n.Sim, sink: (*linkSink)(l)}
	a.link = l
	b.link = l
	i := sort.Search(len(n.links), func(i int) bool { return n.links[i].pos > pos })
	n.links = append(n.links, nil)
	copy(n.links[i+1:], n.links[i:])
	n.links[i] = l
	return l
}
