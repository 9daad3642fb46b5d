package hostnet

import (
	"bytes"
	"testing"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// pair builds two hosts connected by one router.
func pair(t *testing.T) (*sim.Sim, *Stack, *Stack) {
	t.Helper()
	s := sim.New()
	n := netem.New(s)
	a := n.AddHost("a")
	r := n.AddRouter("r")
	b := n.AddHost("b")
	ai := a.AddIface(packet.MustAddr("10.0.0.2"))
	ra := r.AddIface(packet.MustAddr("10.0.0.1"))
	rb := r.AddIface(packet.MustAddr("203.0.113.1"))
	bi := b.AddIface(packet.MustAddr("203.0.113.10"))
	n.Connect(ai, ra, time.Millisecond)
	n.Connect(rb, bi, time.Millisecond)
	a.AddDefaultRoute(ai)
	b.AddDefaultRoute(bi)
	r.AddRoute(netem.MustPrefix("10.0.0.0/24"), ra)
	r.AddRoute(netem.MustPrefix("203.0.113.0/24"), rb)
	return s, NewStack(n, a), NewStack(n, b)
}

func TestThreeWayHandshake(t *testing.T) {
	s, client, server := pair(t)
	var serverConn *TCPConn
	server.Listen(443, ListenOptions{OnConnect: func(c *TCPConn) { serverConn = c }})
	c := client.Dial(server.Addr(), 443, DialOptions{})
	s.Run()
	if c.State != StateEstablished {
		t.Fatalf("client state = %v", c.State)
	}
	if serverConn == nil || serverConn.State != StateEstablished {
		t.Fatal("server not established")
	}
}

func TestDataTransferAndEcho(t *testing.T) {
	s, client, server := pair(t)
	server.Listen(7, ListenOptions{Echo: true})
	c := client.Dial(server.Addr(), 7, DialOptions{})
	c.OnEstablished = func() { c.Send([]byte("ping-payload")) }
	s.Run()
	if !bytes.Equal(c.Received, []byte("ping-payload")) {
		t.Fatalf("echo mismatch: %q", c.Received)
	}
}

func TestSmallWindowForcesSegmentation(t *testing.T) {
	s, client, server := pair(t)
	var serverConn *TCPConn
	server.Listen(443, ListenOptions{
		Window:    100,
		OnConnect: func(c *TCPConn) { serverConn = c },
	})
	payload := bytes.Repeat([]byte{0x16}, 517) // typical ClientHello size
	c := client.Dial(server.Addr(), 443, DialOptions{})
	c.OnEstablished = func() { c.Send(payload) }
	s.Run()
	if serverConn == nil {
		t.Fatal("no server conn")
	}
	if !bytes.Equal(serverConn.Received, payload) {
		t.Fatal("payload mismatch")
	}
	if serverConn.Segments < 6 {
		t.Fatalf("segments = %d, want >= 6 with 100-byte window", serverConn.Segments)
	}
}

func TestSplitHandshake(t *testing.T) {
	s, client, server := pair(t)
	var serverConn *TCPConn
	var clientPkts []packet.TCPFlags
	server.Listen(443, ListenOptions{
		SplitHandshake: true,
		OnConnect:      func(c *TCPConn) { serverConn = c },
	})
	c := client.Dial(server.Addr(), 443, DialOptions{})
	c.OnPacket = func(p *packet.Packet) { clientPkts = append(clientPkts, p.TCP.Flags) }
	s.Run()
	if c.State != StateEstablished {
		t.Fatalf("client state = %v", c.State)
	}
	if serverConn == nil || serverConn.State != StateEstablished {
		t.Fatal("server not established via split handshake")
	}
	// Client must have seen a bare SYN (not SYN/ACK) first.
	if len(clientPkts) == 0 || clientPkts[0] != packet.FlagSYN {
		t.Fatalf("client saw %v, want bare SYN first", clientPkts)
	}
}

func TestSplitHandshakeDataFlows(t *testing.T) {
	s, client, server := pair(t)
	var got []byte
	server.Listen(443, ListenOptions{
		SplitHandshake: true,
		OnData:         func(c *TCPConn, d []byte) { got = append(got, d...) },
	})
	c := client.Dial(server.Addr(), 443, DialOptions{})
	c.OnEstablished = func() { c.Send([]byte("clienthello-bytes")) }
	s.Run()
	if !bytes.Equal(got, []byte("clienthello-bytes")) {
		t.Fatalf("server got %q", got)
	}
}

func TestRSTObserved(t *testing.T) {
	s, client, server := pair(t)
	_ = server // no listener on 9999: host responds RST
	c := client.Dial(server.Addr(), 9999, DialOptions{})
	s.Run()
	if !c.ResetSeen || c.State != StateReset {
		t.Fatalf("RST not observed: state=%v", c.State)
	}
}

func TestPingEcho(t *testing.T) {
	s, client, server := pair(t)
	_ = server
	var replies int
	client.OnICMP(func(p *packet.Packet) {
		if p.ICMP.Type == packet.ICMPEchoReply {
			replies++
		}
	})
	client.Ping(server.Addr(), 7, 1)
	client.Ping(server.Addr(), 7, 2)
	s.Run()
	if replies != 2 {
		t.Fatalf("replies = %d", replies)
	}
}

func TestICMPEchoDisabled(t *testing.T) {
	s, client, server := pair(t)
	server.SetICMPEcho(false)
	var replies int
	client.OnICMP(func(p *packet.Packet) { replies++ })
	client.Ping(server.Addr(), 7, 1)
	s.Run()
	if replies != 0 {
		t.Fatal("echo reply despite disabled")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	s, client, server := pair(t)
	var got []byte
	server.BindUDP(53, func(p *packet.Packet) {
		got = bytes.Clone(p.UDP.Payload) // the network recycles p
		server.SendUDP(p.IP.Src, 53, p.UDP.SrcPort, []byte("resp"))
	})
	var resp []byte
	client.BindUDP(5353, func(p *packet.Packet) { resp = bytes.Clone(p.UDP.Payload) })
	client.SendUDP(server.Addr(), 5353, 53, []byte("query"))
	s.Run()
	if !bytes.Equal(got, []byte("query")) || !bytes.Equal(resp, []byte("resp")) {
		t.Fatalf("udp exchange: got=%q resp=%q", got, resp)
	}
}

func TestEphemeralPortsFresh(t *testing.T) {
	_, client, _ := pair(t)
	seen := map[uint16]bool{}
	for i := 0; i < 1000; i++ {
		p := client.EphemeralPort()
		if seen[p] {
			t.Fatalf("port %d reused", p)
		}
		seen[p] = true
	}
}

func TestDialOptionsPinned(t *testing.T) {
	s, client, server := pair(t)
	// The tap clones the SYN: the network recycles a delivered packet once
	// the handler returns.
	var syn *packet.Packet
	server.Tap(func(p *packet.Packet) {
		if p.TCP != nil && p.TCP.Flags == packet.FlagSYN && syn == nil {
			syn = p.Clone()
		}
	})
	server.Listen(443, ListenOptions{})
	client.Dial(server.Addr(), 443, DialOptions{SrcPort: 4444, TTL: 9})
	s.Run()
	if syn == nil {
		t.Fatal("no SYN seen")
	}
	if syn.TCP.SrcPort != 4444 || syn.TCP.Seq != 1000 {
		t.Fatalf("SYN fields: port=%d seq=%d", syn.TCP.SrcPort, syn.TCP.Seq)
	}
	if syn.IP.TTL != 8 { // one router hop decrements 9 -> 8
		t.Fatalf("TTL = %d, want 8", syn.IP.TTL)
	}
}

func TestResponseDelay(t *testing.T) {
	s, client, server := pair(t)
	server.Listen(443, ListenOptions{ResponseDelay: 500})
	c := client.Dial(server.Addr(), 443, DialOptions{})
	var establishedAt time.Duration
	c.OnEstablished = func() { establishedAt = s.Now() }
	s.Run()
	if c.State != StateEstablished {
		t.Fatalf("state = %v", c.State)
	}
	if establishedAt < 500*time.Millisecond {
		t.Fatalf("established at %v, want >= 500ms", establishedAt)
	}
}

func TestCloseRemovesConn(t *testing.T) {
	s, client, server := pair(t)
	server.Listen(443, ListenOptions{})
	c := client.Dial(server.Addr(), 443, DialOptions{})
	s.Run()
	c.Close()
	if c.State != StateClosed {
		t.Fatal("close did not reset state")
	}
	if len(client.conns) != 0 {
		t.Fatal("conn still in table")
	}
}

// TestConnsSwappedPortsStayDistinct: two connections to one remote whose
// ports are swapped (L:a→R:b and L:b→R:a) get distinct entries in both
// stacks' tables and carry their own data, and a fresh SYN on a reused
// 4-tuple still recycles the listener's old connection.
func TestConnsSwappedPortsStayDistinct(t *testing.T) {
	s, client, server := pair(t)
	l443 := server.Listen(443, ListenOptions{Echo: true})
	server.Listen(4443, ListenOptions{Echo: true})
	c1 := client.Dial(server.Addr(), 443, DialOptions{SrcPort: 4443})
	c2 := client.Dial(server.Addr(), 4443, DialOptions{SrcPort: 443})
	c1.OnEstablished = func() { c1.Send([]byte("one")) }
	c2.OnEstablished = func() { c2.Send([]byte("two")) }
	s.Run()
	if string(c1.Received) != "one" || string(c2.Received) != "two" {
		t.Fatalf("echoes crossed: c1 got %q, c2 got %q", c1.Received, c2.Received)
	}
	if len(client.conns) != 2 || len(server.conns) != 2 {
		t.Fatalf("tables hold %d client and %d server conns, want 2 each", len(client.conns), len(server.conns))
	}

	c3 := client.Dial(server.Addr(), 443, DialOptions{SrcPort: 4443})
	s.Run()
	if c3.State != StateEstablished {
		t.Fatalf("redial over a reused 4-tuple: state = %v", c3.State)
	}
	if len(l443.Conns) != 2 {
		t.Fatalf("listener accepted %d conns, want 2", len(l443.Conns))
	}
	old, fresh := l443.Conns[0], l443.Conns[1]
	if server.conns[fresh.key()] != fresh || server.conns[old.key()] == old {
		t.Fatal("the reused 4-tuple did not recycle the listener's old conn")
	}
	if len(server.conns) != 2 {
		t.Fatalf("server table holds %d conns after the recycle, want 2", len(server.conns))
	}
}

func TestGracefulShutdown(t *testing.T) {
	s, client, server := pair(t)
	var serverConn *TCPConn
	server.Listen(443, ListenOptions{OnConnect: func(c *TCPConn) { serverConn = c }})
	c := client.Dial(server.Addr(), 443, DialOptions{})
	s.Run()
	c.Shutdown()
	s.Run()
	if serverConn.State != StateCloseWait {
		t.Fatalf("server state = %v, want CLOSE-WAIT", serverConn.State)
	}
	serverConn.Shutdown()
	s.Run()
	if c.State != StateClosed {
		t.Fatalf("client state = %v, want CLOSED", c.State)
	}
	if serverConn.State != StateClosed {
		t.Fatalf("server state = %v, want CLOSED", serverConn.State)
	}
}

func TestFINWithData(t *testing.T) {
	s, client, server := pair(t)
	var got []byte
	server.Listen(443, ListenOptions{OnData: func(c *TCPConn, d []byte) { got = append(got, d...) }})
	c := client.Dial(server.Addr(), 443, DialOptions{})
	c.OnEstablished = func() {
		c.SendRaw(packet.FlagsFINACK, []byte("last-words"))
		c.SndNxt++ // FIN consumes a sequence number
		c.State = StateFinWait
	}
	s.Run()
	if string(got) != "last-words" {
		t.Fatalf("server got %q", got)
	}
}

func TestShutdownFromSynSentIsNoop(t *testing.T) {
	s, client, server := pair(t)
	_ = server // no listener: handshake never completes... actually RST arrives
	c := client.Dial(server.Addr(), 9998, DialOptions{})
	s.Run()
	st := c.State
	c.Shutdown() // must not panic or send from a dead state
	s.Run()
	if c.State != st {
		t.Fatalf("state changed from %v to %v", st, c.State)
	}
}

// TestFreshStackAnswersWithoutState sends a stack with nothing bound the
// traffic every host must handle (an echo request, a SYN to a closed port, a
// datagram to an unbound port and a fragmented SYN) and checks the replies,
// and that none of it made the stack allocate its demultiplexing maps.
func TestFreshStackAnswersWithoutState(t *testing.T) {
	s, client, server := pair(t)
	var echoes, rsts, other int
	client.Tap(func(p *packet.Packet) {
		switch {
		case p.ICMP != nil && p.ICMP.Type == packet.ICMPEchoReply:
			echoes++
		case p.TCP != nil && p.TCP.Flags.Has(packet.FlagRST):
			rsts++
		default:
			other++
		}
	})
	client.Ping(server.Addr(), 7, 1)
	client.SendTCP(server.Addr(), 40000, 444, packet.FlagSYN, 1, 0, nil)
	client.SendUDP(server.Addr(), 40001, 9999, []byte("anyone?"))
	s.Run()
	if echoes != 1 || rsts != 1 || other != 0 {
		t.Fatalf("replies: %d echo, %d RST, %d other; want 1, 1, 0", echoes, rsts, other)
	}
	if server.conns != nil || server.listen0 != nil || server.listeners != nil ||
		server.udp != nil || server.rawBinds != nil || server.reasm != nil {
		t.Fatal("unbound traffic allocated demultiplexing state")
	}

	sendFragmentedSYN(t, client, server, 3, 78)
	s.Run()
	if rsts != 2 {
		t.Fatalf("fragmented SYN to a closed port drew %d RSTs, want 1", rsts-1)
	}
	if n := server.reasm.Pending(); n != 0 {
		t.Fatalf("%d reassembly queues left after the datagram completed", n)
	}
}

// TestNewStackAllocs pins the cost of a stack on a host that never binds a
// port: the Stack itself and its handler closure.
func TestNewStackAllocs(t *testing.T) {
	n := netem.New(sim.New())
	node := n.AddHost("h")
	if allocs := testing.AllocsPerRun(100, func() { NewStack(n, node) }); allocs != 2 {
		t.Fatalf("NewStack allocates %.0f times, want 2", allocs)
	}
}
