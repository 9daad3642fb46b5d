package netem

import (
	"net/netip"
	"testing"
	"time"

	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// lineTopology builds client -- r1 -- r2 -- server and returns the pieces.
func lineTopology(t *testing.T) (*sim.Sim, *Network, *Node, *Node, *Node, *Node) {
	t.Helper()
	s := sim.New()
	n := New(s)
	client := n.AddHost("client")
	r1 := n.AddRouter("r1")
	r2 := n.AddRouter("r2")
	server := n.AddHost("server")

	ci := client.AddIface(packet.MustAddr("10.0.0.2"))
	r1c := r1.AddIface(packet.MustAddr("10.0.0.1"))
	r1r := r1.AddIface(packet.MustAddr("10.1.0.1"))
	r2l := r2.AddIface(packet.MustAddr("10.1.0.2"))
	r2s := r2.AddIface(packet.MustAddr("203.0.113.1"))
	si := server.AddIface(packet.MustAddr("203.0.113.10"))

	n.Connect(ci, r1c, time.Millisecond)
	n.Connect(r1r, r2l, time.Millisecond)
	n.Connect(r2s, si, time.Millisecond)

	client.AddDefaultRoute(ci)
	r1.AddRoute(pfx("10.0.0.0/24"), r1c)
	r1.AddDefaultRoute(r1r)
	r2.AddRoute(pfx("203.0.113.0/24"), r2s)
	r2.AddDefaultRoute(r2l)
	server.AddDefaultRoute(si)
	return s, n, client, r1, r2, server
}

func TestEndToEndDelivery(t *testing.T) {
	s, _, client, _, _, server := lineTopology(t)
	var got *packet.Packet
	server.SetHandler(func(p *packet.Packet) { got = p })
	pkt := packet.NewTCP(client.Addr(), server.Addr(), 40000, 443, packet.FlagSYN, 1, 0, nil)
	client.Send(pkt)
	s.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.IP.TTL != 62 {
		t.Fatalf("TTL = %d, want 62 after two router hops", got.IP.TTL)
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("delivery time %v, want 3ms", s.Now())
	}
}

func TestSenderPacketNotAliased(t *testing.T) {
	s, _, client, _, _, server := lineTopology(t)
	var got *packet.Packet
	server.SetHandler(func(p *packet.Packet) { got = p })
	pkt := packet.NewTCP(client.Addr(), server.Addr(), 1, 2, packet.FlagSYN, 0, 0, []byte{1})
	client.Send(pkt)
	pkt.TCP.Payload[0] = 99 // mutate after send
	s.Run()
	if got.TCP.Payload[0] != 1 {
		t.Fatal("network aliased sender's buffer")
	}
}

func TestTTLExceededGeneratesICMP(t *testing.T) {
	s, _, client, _, _, server := lineTopology(t)
	var icmp *packet.Packet
	client.SetHandler(func(p *packet.Packet) {
		if p.ICMP != nil && p.ICMP.Type == packet.ICMPTimeExceed {
			icmp = p
		}
	})
	pkt := packet.NewTCP(client.Addr(), server.Addr(), 40000, 443, packet.FlagSYN, 1, 0, nil)
	pkt.IP.TTL = 1
	client.Send(pkt)
	s.Run()
	if icmp == nil {
		t.Fatal("no ICMP Time Exceeded")
	}
	if icmp.IP.Src != packet.MustAddr("10.0.0.1") {
		t.Fatalf("ICMP from %v, want first router", icmp.IP.Src)
	}
	// Embedded bytes must parse back to the offending header.
	if len(icmp.ICMP.Payload) < 20 {
		t.Fatal("ICMP payload missing embedded header")
	}
}

func TestTracerouteLadder(t *testing.T) {
	s, _, client, _, _, server := lineTopology(t)
	hops := map[uint8]netip.Addr{}
	var reached bool
	client.SetHandler(func(p *packet.Packet) {
		if p.ICMP != nil && p.ICMP.Type == packet.ICMPTimeExceed {
			// Recover probe TTL from embedded header's ID field.
			if len(p.ICMP.Payload) >= 6 {
				id := uint16(p.ICMP.Payload[4])<<8 | uint16(p.ICMP.Payload[5])
				hops[uint8(id)] = p.IP.Src
			}
		}
	})
	server.SetHandler(func(p *packet.Packet) { reached = true })
	for ttl := uint8(1); ttl <= 4; ttl++ {
		pkt := packet.NewTCP(client.Addr(), server.Addr(), 40000, 443, packet.FlagSYN, 1, 0, nil)
		pkt.IP.TTL = ttl
		pkt.IP.ID = uint16(ttl)
		client.Send(pkt)
	}
	s.Run()
	if hops[1] != packet.MustAddr("10.0.0.1") || hops[2] != packet.MustAddr("10.1.0.2") {
		t.Fatalf("traceroute hops wrong: %v", hops)
	}
	if !reached {
		t.Fatal("full-TTL probe did not reach server")
	}
}

func TestLongestPrefixMatch(t *testing.T) {
	s := sim.New()
	n := New(s)
	r := n.AddRouter("r")
	a := r.AddIface(packet.MustAddr("10.0.0.1"))
	b := r.AddIface(packet.MustAddr("10.0.1.1"))
	r.AddDefaultRoute(a)
	r.AddRoute(pfx("192.168.0.0/16"), a)
	r.AddRoute(pfx("192.168.5.0/24"), b)
	if r.Lookup(packet.MustAddr("192.168.5.7")) != b {
		t.Fatal("longest prefix not preferred")
	}
	if r.Lookup(packet.MustAddr("192.168.9.7")) != a {
		t.Fatal("/16 not matched")
	}
	if r.Lookup(packet.MustAddr("8.8.8.8")) != a {
		t.Fatal("default not matched")
	}
}

func TestHostsDoNotForward(t *testing.T) {
	s := sim.New()
	n := New(s)
	h := n.AddHost("h")
	x := n.AddHost("x")
	hi := h.AddIface(packet.MustAddr("10.0.0.2"))
	xi := x.AddIface(packet.MustAddr("10.0.0.3"))
	n.Connect(hi, xi, time.Millisecond)
	h.AddDefaultRoute(hi)
	x.AddDefaultRoute(xi)
	// Packet addressed to a third party arrives at x; x must not loop it.
	delivered := false
	x.SetHandler(func(p *packet.Packet) { delivered = true })
	h.Send(packet.NewTCP(hi.Addr(), packet.MustAddr("99.9.9.9"), 1, 2, packet.FlagSYN, 0, 0, nil))
	s.Run()
	if delivered {
		t.Fatal("host handled foreign packet")
	}
}

func TestNoHandlerCountsDrop(t *testing.T) {
	s := sim.New()
	n := New(s)
	h := n.AddHost("h")
	x := n.AddHost("x")
	hi := h.AddIface(packet.MustAddr("10.0.0.2"))
	xi := x.AddIface(packet.MustAddr("10.0.0.3"))
	n.Connect(hi, xi, time.Millisecond)
	h.AddDefaultRoute(hi)
	h.Send(packet.NewTCP(hi.Addr(), xi.Addr(), 1, 2, packet.FlagSYN, 0, 0, nil))
	s.Run()
	if x.DropLocal != 1 {
		t.Fatalf("DropLocal = %d", x.DropLocal)
	}
}

// testMB is a scriptable middlebox.
type testMB struct {
	name    string
	fn      func(Pipe, *packet.Packet, Direction) Action
	seen    []Direction
	handled int
}

func (m *testMB) Name() string { return m.name }
func (m *testMB) Handle(p Pipe, pkt *packet.Packet, d Direction) Action {
	m.handled++
	m.seen = append(m.seen, d)
	if m.fn != nil {
		return m.fn(p, pkt, d)
	}
	return Pass
}

func TestMiddleboxSeesBothDirections(t *testing.T) {
	s, n, client, _, _, server := lineTopology(t)
	mb := &testMB{name: "tap"}
	n.Links()[1].Attach(mb) // r1--r2 link
	server.SetHandler(func(p *packet.Packet) {
		server.Send(packet.NewTCP(server.Addr(), client.Addr(), p.TCP.DstPort, p.TCP.SrcPort, packet.FlagsSYNACK, 0, p.TCP.Seq+1, nil))
	})
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 40000, 443, packet.FlagSYN, 1, 0, nil))
	s.Run()
	if mb.handled != 2 {
		t.Fatalf("middlebox handled %d packets, want 2", mb.handled)
	}
	if mb.seen[0] == mb.seen[1] {
		t.Fatal("middlebox did not see both directions")
	}
}

func TestMiddleboxDrop(t *testing.T) {
	s, n, client, _, _, server := lineTopology(t)
	mb := &testMB{name: "dropper", fn: func(p Pipe, pkt *packet.Packet, d Direction) Action {
		if pkt.TCP != nil && pkt.TCP.DstPort == 443 {
			return Drop
		}
		return Pass
	}}
	n.Links()[1].Attach(mb)
	delivered := 0
	server.SetHandler(func(p *packet.Packet) { delivered++ })
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 1, 443, packet.FlagSYN, 0, 0, nil))
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 1, 80, packet.FlagSYN, 0, 0, nil))
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want only the :80 packet", delivered)
	}
}

func TestMiddleboxMutation(t *testing.T) {
	s, n, client, _, _, server := lineTopology(t)
	mb := &testMB{name: "rst-rewriter", fn: func(p Pipe, pkt *packet.Packet, d Direction) Action {
		if pkt.TCP != nil {
			pkt.TCP.Flags = packet.FlagsRSTACK
			pkt.TCP.Payload = nil
		}
		return Pass
	}}
	n.Links()[1].Attach(mb)
	var got *packet.Packet
	server.SetHandler(func(p *packet.Packet) { got = p })
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 1, 443, packet.FlagsPSHACK, 9, 9, []byte("data")))
	s.Run()
	if got == nil || got.TCP.Flags != packet.FlagsRSTACK || len(got.TCP.Payload) != 0 {
		t.Fatalf("mutation not applied: %v", got)
	}
}

func TestChainOrderPerDirection(t *testing.T) {
	s, n, client, _, _, server := lineTopology(t)
	var order []string
	mk := func(name string) *testMB {
		return &testMB{name: name, fn: func(p Pipe, pkt *packet.Packet, d Direction) Action {
			order = append(order, name)
			return Pass
		}}
	}
	link := n.Links()[1]
	link.Attach(mk("x")) // closer to A (r1, client side)
	link.Attach(mk("y")) // closer to B (r2, server side)
	server.SetHandler(func(p *packet.Packet) {
		server.Send(packet.NewTCP(server.Addr(), client.Addr(), 443, 40000, packet.FlagsSYNACK, 0, 1, nil))
	})
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 40000, 443, packet.FlagSYN, 1, 0, nil))
	s.Run()
	want := []string{"x", "y", "y", "x"}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInjectContinuesChain(t *testing.T) {
	// A middlebox that buffers a packet and re-injects it later must have the
	// re-injected packet traverse only the rest of the chain, not itself.
	s, n, client, _, _, server := lineTopology(t)
	link := n.Links()[1]
	buffering := &testMB{name: "buffer"}
	buffering.fn = func(p Pipe, pkt *packet.Packet, d Direction) Action {
		cp := pkt.Clone()
		dir := d
		p.After(5*time.Millisecond, func() { p.Inject(cp, dir) })
		return Drop
	}
	counter := &testMB{name: "counter"}
	link.Attach(buffering)
	link.Attach(counter)
	var deliveredAt time.Duration
	server.SetHandler(func(p *packet.Packet) { deliveredAt = s.Now() })
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 1, 443, packet.FlagSYN, 0, 0, nil))
	s.Run()
	// client->r1 (1ms) + buffer (5ms) + r1->r2 (1ms) + r2->server (1ms).
	if deliveredAt != 8*time.Millisecond {
		t.Fatalf("delivered at %v, want 8ms", deliveredAt)
	}
	if buffering.handled != 1 {
		t.Fatal("re-injected packet re-entered the injecting middlebox")
	}
	if counter.handled != 1 {
		t.Fatal("re-injected packet skipped the rest of the chain")
	}
}

func TestCaptureRecordsEntryAndDelivery(t *testing.T) {
	s, n, client, _, _, server := lineTopology(t)
	link := n.Links()[1]
	cap := NewCapture("mid")
	link.Tap(cap)
	mb := &testMB{name: "dropper", fn: func(Pipe, *packet.Packet, Direction) Action { return Drop }}
	link.Attach(mb)
	server.SetHandler(func(p *packet.Packet) {})
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 1, 443, packet.FlagSYN, 0, 0, nil))
	s.Run()
	if len(cap.Records) != 1 || !cap.Records[0].Entry {
		t.Fatalf("capture = %+v", cap.Records)
	}
	if len(cap.Delivered()) != 0 {
		t.Fatal("dropped packet shows as delivered")
	}
	if cap.Dump() == "" {
		t.Fatal("empty dump")
	}
}

func TestAsymmetricRouting(t *testing.T) {
	// client -- r1 == (two parallel paths via rA / rB) == r2 -- server,
	// with forward traffic via rA and return traffic via rB.
	s := sim.New()
	n := New(s)
	client := n.AddHost("client")
	r1 := n.AddRouter("r1")
	rA := n.AddRouter("rA")
	rB := n.AddRouter("rB")
	r2 := n.AddRouter("r2")
	server := n.AddHost("server")

	ci := client.AddIface(packet.MustAddr("10.0.0.2"))
	r1c := r1.AddIface(packet.MustAddr("10.0.0.1"))
	r1a := r1.AddIface(packet.MustAddr("10.2.0.1"))
	r1b := r1.AddIface(packet.MustAddr("10.3.0.1"))
	rAl := rA.AddIface(packet.MustAddr("10.2.0.2"))
	rAr := rA.AddIface(packet.MustAddr("10.4.0.1"))
	rBl := rB.AddIface(packet.MustAddr("10.3.0.2"))
	rBr := rB.AddIface(packet.MustAddr("10.5.0.1"))
	r2a := r2.AddIface(packet.MustAddr("10.4.0.2"))
	r2b := r2.AddIface(packet.MustAddr("10.5.0.2"))
	r2s := r2.AddIface(packet.MustAddr("203.0.113.1"))
	si := server.AddIface(packet.MustAddr("203.0.113.10"))

	n.Connect(ci, r1c, time.Millisecond)
	upLink := n.Connect(r1a, rAl, time.Millisecond)
	downLink := n.Connect(r1b, rBl, time.Millisecond)
	n.Connect(rAr, r2a, time.Millisecond)
	n.Connect(rBr, r2b, time.Millisecond)
	n.Connect(r2s, si, time.Millisecond)

	client.AddDefaultRoute(ci)
	r1.AddRoute(pfx("10.0.0.0/24"), r1c)
	r1.AddDefaultRoute(r1a) // forward via rA
	rA.AddDefaultRoute(rAr)
	rA.AddRoute(pfx("10.0.0.0/16"), rAl)
	rB.AddDefaultRoute(rBr)
	rB.AddRoute(pfx("10.0.0.0/16"), rBl)
	r2.AddDefaultRoute(r2s)
	r2.AddRoute(pfx("10.0.0.0/16"), r2b) // return via rB
	server.AddDefaultRoute(si)

	up := &testMB{name: "up"}
	down := &testMB{name: "down"}
	upLink.Attach(up)
	downLink.Attach(down)

	server.SetHandler(func(p *packet.Packet) {
		server.Send(packet.NewTCP(server.Addr(), client.Addr(), 443, p.TCP.SrcPort, packet.FlagsSYNACK, 0, p.TCP.Seq+1, nil))
	})
	gotReply := false
	client.SetHandler(func(p *packet.Packet) { gotReply = true })
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 40000, 443, packet.FlagSYN, 1, 0, nil))
	s.Run()

	if !gotReply {
		t.Fatal("no reply over asymmetric path")
	}
	if up.handled != 1 || down.handled != 1 {
		t.Fatalf("up=%d down=%d: middleboxes did not see one direction each", up.handled, down.handled)
	}
	if up.seen[0] != AtoB || down.seen[0] != BtoA {
		t.Fatalf("directions: up=%v down=%v", up.seen, down.seen)
	}
}

func TestNoICMPAboutICMPErrors(t *testing.T) {
	s, _, client, _, _, _ := lineTopology(t)
	// An ICMP TimeExceeded packet whose own TTL expires must vanish silently.
	got := 0
	client.SetHandler(func(p *packet.Packet) { got++ })
	p := &packet.Packet{
		IP:   packet.IPv4{TTL: 1, Protocol: packet.ProtoICMP, Src: client.Addr(), Dst: packet.MustAddr("203.0.113.10")},
		ICMP: &packet.ICMP{Type: packet.ICMPTimeExceed},
	}
	client.Send(p)
	s.Run()
	if got != 0 {
		t.Fatalf("got %d ICMP-about-ICMP replies", got)
	}
}

func TestDirectionHelpers(t *testing.T) {
	if AtoB.Reverse() != BtoA || BtoA.Reverse() != AtoB {
		t.Fatal("Reverse broken")
	}
	if AtoB.String() == BtoA.String() {
		t.Fatal("direction strings equal")
	}
}

func TestLinkLoss(t *testing.T) {
	s, n, client, _, _, server := lineTopology(t)
	link := n.Links()[1]
	link.SetLoss(0.5, sim.NewRand(3))
	delivered := 0
	server.SetHandler(func(p *packet.Packet) { delivered++ })
	const sent = 2000
	for i := 0; i < sent; i++ {
		client.Send(packet.NewTCP(client.Addr(), server.Addr(), uint16(1000+i), 443, packet.FlagSYN, 1, 0, nil))
	}
	s.Run()
	frac := float64(delivered) / sent
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivered fraction = %.3f with 50%% loss", frac)
	}
	if link.Lost != sent-delivered {
		t.Fatalf("Lost = %d, want %d", link.Lost, sent-delivered)
	}
}

func TestLinkLossDeterministic(t *testing.T) {
	run := func() int {
		s, n, client, _, _, server := lineTopology(t)
		n.Links()[1].SetLoss(0.3, sim.NewRand(11))
		delivered := 0
		server.SetHandler(func(p *packet.Packet) { delivered++ })
		for i := 0; i < 500; i++ {
			client.Send(packet.NewTCP(client.Addr(), server.Addr(), uint16(1000+i), 443, packet.FlagSYN, 1, 0, nil))
		}
		s.Run()
		return delivered
	}
	if run() != run() {
		t.Fatal("lossy runs diverged under the same seed")
	}
}

// passMB forwards every packet untouched.
type passMB struct{}

func (passMB) Name() string                                  { return "pass" }
func (passMB) Handle(Pipe, *packet.Packet, Direction) Action { return Pass }

// TestLinkTraversalDoesNotAllocate pins the per-packet chain walk at zero
// allocations: each chain position reuses the pipe built when its
// middlebox was attached.
func TestLinkTraversalDoesNotAllocate(t *testing.T) {
	s := sim.New()
	n := New(s)
	a, b := n.AddHost("a"), n.AddHost("b")
	link := n.Connect(a.AddIface(packet.MustAddr("10.0.0.1")), b.AddIface(packet.MustAddr("10.0.0.2")), time.Millisecond)
	link.Attach(passMB{})
	link.Attach(passMB{})
	delivered := 0
	b.SetHandler(func(*packet.Packet) { delivered++ })
	pkt := packet.NewTCP(a.Addr(), b.Addr(), 40000, 443, packet.FlagsPSHACK, 1, 1, nil)
	send := func() {
		link.transmit(link.A(), pkt)
		s.Run()
	}
	send() // warm the delivery pool and the event queue
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("link traversal allocates %.1f times per packet, want 0", allocs)
	}
	if delivered != 102 {
		t.Fatalf("delivered %d packets, want 102", delivered)
	}
}
