// Package hostnet provides endpoint network stacks for netem hosts: a
// demultiplexer for inbound packets, a deliberately small TCP implementation
// (enough for three-way, split, and simultaneous-open handshakes, data
// segmentation by the peer's advertised window, and RST observation — no
// retransmission, which measurement code must observe rather than mask), UDP
// send/receive, automatic ICMP echo replies, and application servers (echo,
// TLS-ish sink) used throughout the experiments.
package hostnet

import (
	"net/netip"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
)

// Stack binds protocol handling to a netem host node. Create at most one per
// node: it installs itself as the node's handler.
type Stack struct {
	node *netem.Node
	net  *netem.Network

	// The demultiplexing maps are created on first write: most hosts of a
	// lab never receive a connection, a datagram or a fragment, and a nil
	// map reads as empty.
	conns map[packet.FlowKey4]*TCPConn
	// listen0 is the first port's listener and listeners holds the others:
	// most hosts listen on one port and never need the map.
	listen0   *Listener
	listeners map[uint16]*Listener
	udp       map[uint16]UDPHandler
	icmpEcho  bool
	onICMP    func(*packet.Packet)
	taps      []func(*packet.Packet)

	// reasm holds inbound fragment queues with Linux's limit. The limit is
	// what the paper's remote fingerprint reads (§7.2): Linux buffers 64
	// fragments per packet, Cisco boxes 24, Juniper 250, the TSPU 45. It is
	// nil until the first fragment arrives.
	reasm *packet.Reassembler

	// rawBinds receive all TCP packets to a port with no stack processing —
	// no auto-RST, no connection handling. Measurement scripts use them to
	// observe raw packet sequences (§5.3's methodology needs full control of
	// every flag sent and silence otherwise).
	rawBinds map[uint16]func(*packet.Packet)

	nextPort uint16
	nextIPID uint16
}

// linuxFragLimit is the Linux host's fragment-queue limit.
const linuxFragLimit = 64

// UDPHandler consumes inbound UDP packets for a bound port.
type UDPHandler func(pkt *packet.Packet)

// NewStack installs a stack on node. ICMP echo replies are enabled by
// default, as on any real host.
func NewStack(n *netem.Network, node *netem.Node) *Stack {
	st := &Stack{
		node:     node,
		net:      n,
		icmpEcho: true,
		nextPort: 33000,
		nextIPID: 1,
	}
	node.SetHandler(st.handle)
	return st
}

// Node returns the underlying netem node.
func (st *Stack) Node() *netem.Node { return st.node }

// Addr returns the host's primary address.
func (st *Stack) Addr() netip.Addr { return st.node.Addr() }

// SetICMPEcho enables or disables automatic echo replies.
func (st *Stack) SetICMPEcho(on bool) { st.icmpEcho = on }

// OnICMP installs a hook for all inbound ICMP (after echo auto-reply).
func (st *Stack) OnICMP(fn func(*packet.Packet)) { st.onICMP = fn }

// Tap registers a function that sees every inbound packet before handling.
func (st *Stack) Tap(fn func(*packet.Packet)) { st.taps = append(st.taps, fn) }

// ClearTaps removes all taps. Experiments that install taps in loops must
// clear them to avoid unbounded callback chains.
func (st *Stack) ClearTaps() { st.taps = nil }

// RawBind claims a TCP port for raw observation: inbound packets to it are
// handed to fn verbatim and nothing else happens (no RST, no state). It
// shadows any listener on the port until RawUnbind.
func (st *Stack) RawBind(port uint16, fn func(*packet.Packet)) {
	if st.rawBinds == nil {
		st.rawBinds = make(map[uint16]func(*packet.Packet))
	}
	st.rawBinds[port] = fn
}

// RawUnbind releases a raw-bound port.
func (st *Stack) RawUnbind(port uint16) { delete(st.rawBinds, port) }

// EphemeralPort returns a fresh source port; wraps far above well-known
// space. The paper's methodology requires "a fresh source port for each
// test to prevent residual censorship affecting results" (§3).
func (st *Stack) EphemeralPort() uint16 {
	p := st.nextPort
	st.nextPort++
	if st.nextPort < 33000 {
		st.nextPort = 33000
	}
	return p
}

// NextIPID returns a fresh IP identification value for fragmentation.
func (st *Stack) NextIPID() uint16 {
	id := st.nextIPID
	st.nextIPID++
	if st.nextIPID == 0 {
		st.nextIPID = 1
	}
	return id
}

// Send transmits a pre-built packet from this host. If the packet's source
// address is unset, the host's address is filled in. The network carries a
// copy, so the caller keeps pkt.
func (st *Stack) Send(pkt *packet.Packet) {
	if !pkt.IP.Src.IsValid() {
		pkt.IP.Src = st.Addr()
	}
	st.node.Send(pkt)
}

// NewPacket returns an empty packet from the network's free list, for a
// send built for SendOwned (netem.Network.NewPacket).
func (st *Stack) NewPacket() *packet.Packet { return st.net.NewPacket() }

// SendOwned is Send without the copy, for a packet built for this one send
// whose byte slices the caller does not share: the network takes pkt,
// rewrites it in flight and recycles it (netem.Node.SendOwned).
func (st *Stack) SendOwned(pkt *packet.Packet) {
	if !pkt.IP.Src.IsValid() {
		pkt.IP.Src = st.Addr()
	}
	st.node.SendOwned(pkt)
}

// SendTCP builds and sends a raw TCP packet. The payload is copied, so the
// caller keeps it.
func (st *Stack) SendTCP(dst netip.Addr, sport, dport uint16, flags packet.TCPFlags, seq, ack uint32, payload []byte) {
	p := st.NewPacket()
	p.SetTCP(st.Addr(), dst, sport, dport, flags, seq, ack, payload)
	p.IP.ID = st.NextIPID()
	st.node.SendOwned(p)
}

// SendUDP builds and sends a UDP packet. The payload is copied, so the
// caller keeps it.
func (st *Stack) SendUDP(dst netip.Addr, sport, dport uint16, payload []byte) {
	p := st.NewPacket()
	p.SetUDP(st.Addr(), dst, sport, dport, payload)
	p.IP.ID = st.NextIPID()
	st.node.SendOwned(p)
}

// Ping sends an ICMP echo request.
func (st *Stack) Ping(dst netip.Addr, id, seq uint16) {
	p := st.NewPacket()
	p.SetICMP(st.Addr(), dst, packet.ICMPEchoRequest, id, seq, nil)
	p.IP.ID = st.NextIPID()
	st.node.SendOwned(p)
}

// BindUDP installs a handler for a UDP port.
func (st *Stack) BindUDP(port uint16, h UDPHandler) {
	if st.udp == nil {
		st.udp = make(map[uint16]UDPHandler)
	}
	st.udp[port] = h
}

// handle is the node-level inbound entry point: taps see raw arrivals
// (fragments included), then fragments are reassembled before protocol
// dispatch.
func (st *Stack) handle(pkt *packet.Packet) {
	for _, tap := range st.taps {
		tap(pkt)
	}
	if pkt.IsFragment() {
		if st.reasm == nil {
			st.reasm = &packet.Reassembler{Limit: linuxFragLimit}
		}
		if whole, _ := st.reasm.Add(pkt, st.after); whole != nil {
			st.dispatch(whole)
		}
		return
	}
	st.dispatch(pkt)
}

// after schedules fn on the network's simulator.
func (st *Stack) after(d time.Duration, fn func()) { st.net.Sim.After(d, fn) }

// dispatch demultiplexes a whole (unfragmented or reassembled) packet.
func (st *Stack) dispatch(pkt *packet.Packet) {
	switch {
	case pkt.ICMP != nil:
		if pkt.ICMP.Type == packet.ICMPEchoRequest && st.icmpEcho {
			reply := st.NewPacket()
			reply.SetICMP(pkt.IP.Dst, pkt.IP.Src, packet.ICMPEchoReply, pkt.ICMP.ID, pkt.ICMP.Seq, nil)
			st.node.SendOwned(reply)
		}
		if st.onICMP != nil {
			st.onICMP(pkt)
		}
	case pkt.UDP != nil:
		if h, ok := st.udp[pkt.UDP.DstPort]; ok {
			h(pkt)
		}
	case pkt.TCP != nil:
		st.handleTCP(pkt)
	}
}

func (st *Stack) handleTCP(pkt *packet.Packet) {
	if fn, ok := st.rawBinds[pkt.TCP.DstPort]; ok {
		fn(pkt)
		return
	}
	key := packet.FlowKey4Of(pkt)
	if c, ok := st.conns[key]; ok {
		// A fresh bare SYN on a listener-spawned connection is a new
		// connection attempt from a reused 4-tuple (e.g. Quack probing
		// repeatedly from client port 443): recycle the old conn.
		if c.listener != nil && pkt.TCP.Flags == packet.FlagSYN &&
			(c.State == StateEstablished || c.State == StateReset) {
			delete(st.conns, key)
			c.listener.accept(pkt)
			return
		}
		c.receive(pkt)
		return
	}
	if l := st.listener(pkt.TCP.DstPort); l != nil {
		l.accept(pkt)
		return
	}
	// Closed port: a real stack RSTs non-RST segments. Keep it, servers in
	// the paper's scans are detected by their SYN/ACK vs RST behavior.
	if !pkt.TCP.Flags.Has(packet.FlagRST) {
		st.SendTCP(pkt.IP.Src, pkt.TCP.DstPort, pkt.TCP.SrcPort,
			packet.FlagsRSTACK, 0, pkt.TCP.Seq+1, nil)
	}
}

func (st *Stack) now() time.Duration { return st.net.Sim.Now() }
