package hostnet

import (
	"net/netip"
	"time"

	"tspusim/internal/packet"
)

// TCPState is the endpoint connection state (simplified RFC 793 set).
type TCPState int

// Connection states.
const (
	StateClosed TCPState = iota
	StateSynSent
	StateSynReceived
	StateEstablished
	StateReset
	// StateFinWait: we sent FIN, awaiting the peer's.
	StateFinWait
	// StateCloseWait: peer sent FIN, we have not closed yet.
	StateCloseWait
)

func (s TCPState) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateSynSent:
		return "SYN-SENT"
	case StateSynReceived:
		return "SYN-RECEIVED"
	case StateEstablished:
		return "ESTABLISHED"
	case StateReset:
		return "RESET"
	case StateFinWait:
		return "FIN-WAIT"
	case StateCloseWait:
		return "CLOSE-WAIT"
	}
	return "?"
}

// dialISN is the initial sequence number of every active open.
const dialISN = 1000

// DialOptions configure an active open.
type DialOptions struct {
	// SrcPort pins the source port; 0 picks an ephemeral one.
	SrcPort uint16
	// MSS caps segment size (default 1400).
	MSS int
	// TTL overrides the IP TTL (default 64).
	TTL uint8
}

// ListenOptions configure a passive listener.
type ListenOptions struct {
	// SplitHandshake makes the server answer SYN with a bare SYN (no ACK),
	// the §8 server-side strategy; the unmodified client then completes a
	// split handshake.
	SplitHandshake bool
	// Window is the advertised receive window (default 65535). The brdgrd
	// strategy announces a small value here so the client segments its
	// ClientHello.
	Window uint16
	// OnConnect fires when the connection is established.
	OnConnect func(c *TCPConn)
	// OnData fires for every data segment received.
	OnData func(c *TCPConn, data []byte)
	// Echo makes the server echo every data segment back (port-7 service).
	Echo bool
	// ResponseDelay delays the server's handshake reply, used by the
	// timeout-wait circumvention strategy.
	ResponseDelay int // in milliseconds of virtual time
}

// Arrival is what an endpoint keeps of one TCP packet it received. The
// network recycles the packet itself once the handler returns (the
// retention contract on netem.Middlebox), so transcripts hold these values.
type Arrival struct {
	Flags packet.TCPFlags
	// Len is the payload length in bytes.
	Len int
}

// ArrivalOf records pkt, a TCP packet.
func ArrivalOf(pkt *packet.Packet) Arrival {
	return Arrival{Flags: pkt.TCP.Flags, Len: len(pkt.TCP.Payload)}
}

// TCPConn is one endpoint of a mini-TCP connection.
type TCPConn struct {
	stack *Stack
	// Local and remote identifiers.
	LocalAddr  netip.Addr
	RemoteAddr netip.Addr
	LocalPort  uint16
	RemotePort uint16

	State TCPState
	// SndNxt is the next sequence number to send; RcvNxt the next expected.
	SndNxt, RcvNxt uint32
	// PeerWindow is the most recent window advertised by the peer.
	PeerWindow uint16
	// mss caps outgoing segment payloads.
	mss int
	ttl uint8

	// Received accumulates payload bytes in arrival order.
	Received []byte
	// Segments counts data segments received.
	Segments int
	// Packets records an Arrival for every packet received on this
	// connection.
	Packets []Arrival
	// ResetSeen reports whether a RST arrived.
	ResetSeen bool

	// OnEstablished fires once when reaching ESTABLISHED.
	OnEstablished func()
	// OnData fires per received data segment.
	OnData func(data []byte)
	// OnPacket fires for every received packet.
	OnPacket func(pkt *packet.Packet)

	advertWindow uint16
	echo         bool
	serverSplit  bool
	onConnect    func(c *TCPConn)
	// listener is set on server-side conns so a reused 4-tuple can recycle.
	listener *Listener
}

func (st *Stack) newConn(remote netip.Addr, lport, rport uint16, mss int, ttl uint8) *TCPConn {
	if mss <= 0 {
		mss = 1400
	}
	if ttl == 0 {
		ttl = 64
	}
	c := &TCPConn{
		stack:        st,
		LocalAddr:    st.Addr(),
		RemoteAddr:   remote,
		LocalPort:    lport,
		RemotePort:   rport,
		PeerWindow:   65535,
		mss:          mss,
		ttl:          ttl,
		advertWindow: 65535,
	}
	st.addConn(c)
	return c
}

func (st *Stack) addConn(c *TCPConn) {
	if st.conns == nil {
		st.conns = make(map[packet.FlowKey4]*TCPConn)
	}
	st.conns[c.key()] = c
}

// Stack returns the stack that owns this connection, so measurement code
// can send raw packets (fragments, TTL-limited probes) on its behalf.
func (c *TCPConn) Stack() *Stack { return c.stack }

func (c *TCPConn) key() packet.FlowKey4 {
	return packet.FlowKey4For(packet.ProtoTCP, c.LocalAddr, c.RemoteAddr, c.LocalPort, c.RemotePort)
}

// Dial initiates an active open to dst:port and returns the connection. The
// handshake completes asynchronously under the simulator; use OnEstablished
// or inspect State after running the sim.
func (st *Stack) Dial(dst netip.Addr, port uint16, opts DialOptions) *TCPConn {
	sport := opts.SrcPort
	if sport == 0 {
		sport = st.EphemeralPort()
	}
	c := st.newConn(dst, sport, port, opts.MSS, opts.TTL)
	c.SndNxt = dialISN
	c.State = StateSynSent
	c.sendFlags(packet.FlagSYN, c.SndNxt, 0, nil)
	c.SndNxt++
	return c
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack *Stack
	port  uint16
	opts  ListenOptions
	// Conns lists accepted connections in arrival order.
	Conns []*TCPConn
}

// Listen binds a listener to port, replacing any listener already on it.
func (st *Stack) Listen(port uint16, opts ListenOptions) *Listener {
	if opts.Window == 0 {
		opts.Window = 65535
	}
	l := &Listener{stack: st, port: port, opts: opts}
	if st.listen0 == nil || st.listen0.port == port {
		st.listen0 = l
		return l
	}
	if st.listeners == nil {
		st.listeners = make(map[uint16]*Listener)
	}
	st.listeners[port] = l
	return l
}

// listener returns the listener bound to port, or nil.
func (st *Stack) listener(port uint16) *Listener {
	if l := st.listen0; l != nil && l.port == port {
		return l
	}
	return st.listeners[port]
}

func (l *Listener) accept(syn *packet.Packet) {
	if !syn.TCP.Flags.Has(packet.FlagSYN) || syn.TCP.Flags.Has(packet.FlagACK) {
		return // not a connection attempt
	}
	st := l.stack
	c := st.newConn(syn.IP.Src, syn.TCP.DstPort, syn.TCP.SrcPort, 1400, 0)
	// Answer from whatever address the SYN targeted: on promiscuous "farm"
	// hosts that address is not the stack's own. Re-key the conn to match.
	if syn.IP.Dst != c.LocalAddr {
		delete(st.conns, c.key())
		c.LocalAddr = syn.IP.Dst
		st.addConn(c)
	}
	c.listener = l
	c.advertWindow = l.opts.Window
	c.echo = l.opts.Echo
	c.serverSplit = l.opts.SplitHandshake
	c.onConnect = l.opts.OnConnect
	if l.opts.OnData != nil {
		onData := l.opts.OnData
		c.OnData = func(data []byte) { onData(c, data) }
	}
	c.RcvNxt = syn.TCP.Seq + 1
	c.SndNxt = 5000
	c.PeerWindow = syn.TCP.Window
	c.Packets = append(c.Packets, ArrivalOf(syn))
	l.Conns = append(l.Conns, c)

	reply := func() {
		if c.serverSplit {
			// Split handshake: bare SYN, no ACK of the client's SYN.
			c.State = StateSynSent
			c.sendFlags(packet.FlagSYN, c.SndNxt, 0, nil)
		} else {
			c.State = StateSynReceived
			c.sendFlags(packet.FlagsSYNACK, c.SndNxt, c.RcvNxt, nil)
		}
		c.SndNxt++
	}
	if l.opts.ResponseDelay > 0 {
		st.net.Sim.After(time.Duration(l.opts.ResponseDelay)*time.Millisecond, reply)
	} else {
		reply()
	}
}

// receive advances the endpoint state machine for one inbound packet.
func (c *TCPConn) receive(pkt *packet.Packet) {
	c.Packets = append(c.Packets, ArrivalOf(pkt))
	if c.OnPacket != nil {
		c.OnPacket(pkt)
	}
	t := pkt.TCP
	if t.Flags.Has(packet.FlagRST) {
		c.ResetSeen = true
		c.State = StateReset
		return
	}
	if c.State == StateReset {
		return
	}
	if t.Flags.Has(packet.FlagFIN) {
		// Peer is closing: ACK its FIN. If we already sent ours, the
		// connection is done; otherwise enter CLOSE-WAIT until Shutdown.
		c.RcvNxt = t.Seq + uint32(len(t.Payload)) + 1
		if len(t.Payload) > 0 {
			c.Received = append(c.Received, t.Payload...)
			c.Segments++
			if c.OnData != nil {
				c.OnData(t.Payload)
			}
		}
		c.sendFlags(packet.FlagACK, c.SndNxt, c.RcvNxt, nil)
		if c.State == StateFinWait {
			c.Close()
		} else {
			c.State = StateCloseWait
		}
		return
	}
	switch {
	case t.Flags.Has(packet.FlagsSYNACK):
		if c.State == StateSynSent || c.State == StateSynReceived {
			c.RcvNxt = t.Seq + 1
			c.PeerWindow = t.Window
			c.establish()
			c.sendFlags(packet.FlagACK, c.SndNxt, c.RcvNxt, nil)
		}
	case t.Flags.Has(packet.FlagSYN):
		// Bare SYN while we are SYN-SENT: simultaneous open / split
		// handshake. RFC 793: move to SYN-RECEIVED and send SYN/ACK,
		// re-using our ISN.
		if c.State == StateSynSent {
			c.RcvNxt = t.Seq + 1
			c.PeerWindow = t.Window
			c.State = StateSynReceived
			c.sendFlags(packet.FlagsSYNACK, c.SndNxt-1, c.RcvNxt, nil)
		}
	case t.Flags.Has(packet.FlagACK):
		if c.State == StateSynReceived {
			c.establish()
		}
		if len(t.Payload) > 0 {
			c.RcvNxt = t.Seq + uint32(len(t.Payload))
			c.Received = append(c.Received, t.Payload...)
			c.Segments++
			if c.OnData != nil {
				c.OnData(t.Payload)
			}
			if c.echo {
				c.Send(t.Payload)
			} else {
				c.sendFlags(packet.FlagACK, c.SndNxt, c.RcvNxt, nil)
			}
		}
	}
}

func (c *TCPConn) establish() {
	if c.State == StateEstablished {
		return
	}
	c.State = StateEstablished
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	if c.onConnect != nil {
		c.onConnect(c)
	}
}

// Send transmits data, segmenting by min(peer window, MSS). A peer that
// advertised a small window therefore forces the payload — e.g. a
// ClientHello — across multiple segments, which is exactly how the brdgrd
// strategy (§8) defeats single-packet SNI inspection.
func (c *TCPConn) Send(data []byte) {
	seg := c.mss
	if int(c.PeerWindow) > 0 && int(c.PeerWindow) < seg {
		seg = int(c.PeerWindow)
	}
	if seg <= 0 {
		seg = 1
	}
	for off := 0; off < len(data); off += seg {
		end := off + seg
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		c.sendFlags(packet.FlagsPSHACK, c.SndNxt, c.RcvNxt, chunk)
		c.SndNxt += uint32(len(chunk))
	}
}

// SendRaw transmits one segment with explicit flags, bypassing windowing —
// measurement scripts use it for precise sequences.
func (c *TCPConn) SendRaw(flags packet.TCPFlags, payload []byte) {
	c.sendFlags(flags, c.SndNxt, c.RcvNxt, payload)
	c.SndNxt += uint32(len(payload))
}

func (c *TCPConn) sendFlags(flags packet.TCPFlags, seq, ack uint32, payload []byte) {
	p := c.stack.NewPacket()
	p.SetTCP(c.LocalAddr, c.RemoteAddr, c.LocalPort, c.RemotePort, flags, seq, ack, payload)
	p.TCP.Window = c.advertWindow
	p.IP.TTL = c.ttl
	p.IP.ID = c.stack.NextIPID()
	c.stack.SendOwned(p)
}

// Shutdown initiates a graceful close: send FIN and wait for the peer's.
// From CLOSE-WAIT it completes the close the peer started.
func (c *TCPConn) Shutdown() {
	switch c.State {
	case StateEstablished:
		c.sendFlags(packet.FlagsFINACK, c.SndNxt, c.RcvNxt, nil)
		c.SndNxt++
		c.State = StateFinWait
	case StateCloseWait:
		c.sendFlags(packet.FlagsFINACK, c.SndNxt, c.RcvNxt, nil)
		c.SndNxt++
		c.Close()
	}
}

// Close removes the connection from the stack's table (abortive; the
// paper's tests end connections by moving to fresh ports). Use Shutdown for
// a FIN exchange.
func (c *TCPConn) Close() {
	delete(c.stack.conns, c.key())
	c.State = StateClosed
}

// CloseConns closes every connection the listener accepted and forgets
// them; the listener stays bound. A caller that accepts connections trial
// after trial calls it once a trial's verdict is read, so the stack does
// not keep every connection it ever served. A connection whose 4-tuple a
// newer one took over (a reused client port) is forgotten without removing
// the newer one.
func (l *Listener) CloseConns() {
	st := l.stack
	for _, c := range l.Conns {
		if st.conns[c.key()] == c {
			delete(st.conns, c.key())
		}
		c.State = StateClosed
	}
	clear(l.Conns)
	l.Conns = l.Conns[:0]
}

// Close unbinds the listener from its port, unless another listener has
// replaced it there, and closes its connections (CloseConns).
func (l *Listener) Close() {
	st := l.stack
	switch {
	case st.listen0 == l:
		st.listen0 = nil
	case st.listeners[l.port] == l:
		delete(st.listeners, l.port)
	}
	l.CloseConns()
}
