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

// Handlers in these tests clone what they check: the network recycles a
// delivered packet once the handler returns.

func TestEndToEndDelivery(t *testing.T) {
	s, _, client, _, _, server := lineTopology(t)
	var got *packet.Packet
	server.SetHandler(func(p *packet.Packet) { got = p.Clone() })
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
	server.SetHandler(func(p *packet.Packet) { got = p.Clone() })
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
			icmp = p.Clone()
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
	server.SetHandler(func(p *packet.Packet) { got = p.Clone() })
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

// TestLinkTraversalDoesNotAllocate pins the per-packet path at zero
// allocations: each chain position reuses the pipe built when its middlebox
// was attached, and forwarding through a core-sized router takes the indexed
// address and route lookups.
func TestLinkTraversalDoesNotAllocate(t *testing.T) {
	s := sim.New()
	n := New(s)
	a, r, b := n.AddHost("a"), n.AddRouter("r"), n.AddHost("b")
	ai, ra := a.AddIface(packet.MustAddr("10.0.0.1")), r.AddIface(packet.MustAddr("10.0.0.2"))
	link := n.Connect(ai, ra, time.Millisecond)
	link.Attach(passMB{})
	link.Attach(passMB{})
	// Pad r to a core router's size, 80 interfaces and 80 routes of
	// prefix lengths /16 to /32, so both lookups use their indexes.
	for i := 0; i < 78; i++ {
		ifc := r.AddIface(netip.AddrFrom4([4]byte{10, 1, byte(i), 1}))
		r.AddRoute(netip.PrefixFrom(netip.AddrFrom4([4]byte{172, byte(16 + i%16), byte(i), 0}), 16+i%17), ifc)
	}
	rb, bi := r.AddIface(packet.MustAddr("10.2.0.1")), b.AddIface(packet.MustAddr("10.2.0.2"))
	n.Connect(rb, bi, time.Millisecond)
	r.AddRoute(pfx("10.2.0.0/24"), rb)
	r.AddDefaultRoute(ra)
	// Each send takes its packet from the network's free list, which the
	// delivery at b refills.
	delivered := 0
	b.SetHandler(func(p *packet.Packet) { delivered++ })
	send := func() {
		pkt := n.NewPacket()
		pkt.SetTCP(a.Addr(), b.Addr(), 40000, 443, packet.FlagsPSHACK, 1, 1, nil)
		link.transmit(link.A(), pkt)
		s.Run()
	}
	// Warm the delivery pool, the event queue, the packet free list and,
	// under pooldebug, the retention check's ring of parked packets (two
	// hops and a release per send).
	for i := 0; i < 32; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("forwarding allocates %.1f times per packet, want 0", allocs)
	}
	if delivered != 133 {
		t.Fatalf("delivered %d packets, want 133", delivered)
	}
}

// TestLazyRoute builds a host behind r the first time a lookup at r falls
// into its lazy prefix, at the link position reserved for it, and checks
// that addresses with a route or with nothing to build fall through as
// usual, without allocating once built.
func TestLazyRoute(t *testing.T) {
	s := sim.New()
	n := New(s)
	a, r := n.AddHost("a"), n.AddRouter("r")
	ai, ra := a.AddIface(packet.MustAddr("10.0.0.1")), r.AddIface(packet.MustAddr("10.0.0.2"))
	n.Connect(ai, ra, time.Millisecond)
	a.AddDefaultRoute(ai)
	r.AddDefaultRoute(ra)
	pos := n.ReserveLink()
	later := n.Connect(n.AddHost("c").AddIface(packet.MustAddr("10.3.0.1")), r.AddIface(packet.MustAddr("10.3.0.2")), time.Millisecond)
	var built []netip.Addr
	var b *Node
	r.AddLazyRoute(pfx("10.9.0.0/24"), func(dst netip.Addr) {
		built = append(built, dst)
		if dst != packet.MustAddr("10.9.0.5") || b != nil {
			return
		}
		b = n.AddHost("b")
		bi, rb := b.AddIface(dst), r.AddIface(packet.MustAddr("10.9.1.1"))
		n.ConnectAt(pos, bi, rb, time.Millisecond)
		b.AddDefaultRoute(bi)
		r.AddRoute(netip.PrefixFrom(dst, 32), rb)
	})
	if len(built) != 0 || len(n.Links()) != 2 {
		t.Fatalf("built %v and %d links before any traffic", built, len(n.Links()))
	}
	if out := r.Lookup(packet.MustAddr("10.0.0.1")); out != ra || len(built) != 0 {
		t.Fatalf("lookup outside the lazy prefix: out %v, built %v", out, built)
	}
	delivered := 0
	send := func() {
		a.Send(packet.NewTCP(a.Addr(), packet.MustAddr("10.9.0.5"), 40000, 80, packet.FlagSYN, 1, 0, nil))
		s.Run()
	}
	send()
	if b == nil {
		t.Fatal("routing to 10.9.0.5 did not build its host")
	}
	b.SetHandler(func(*packet.Packet) { delivered++ })
	send()
	if delivered != 1 || b.DropLocal != 1 {
		t.Fatalf("delivered %d, dropped %d, want one of each", delivered, b.DropLocal)
	}
	if links := n.Links(); len(links) != 3 || links[1].A().Node() != b || links[2] != later {
		t.Fatalf("the built link is not at its reserved position: %v", links)
	}
	// Built: the /32 wins and the hook stays quiet.
	if allocs := testing.AllocsPerRun(100, func() { r.Lookup(packet.MustAddr("10.9.0.5")) }); allocs != 0 || len(built) != 1 {
		t.Fatalf("built lookup: %.1f allocs, build calls %v", allocs, built)
	}
	// Nothing to build at .6: the hook runs and the lookup falls through to
	// the default route.
	if out := r.Lookup(packet.MustAddr("10.9.0.6")); out != ra || len(built) != 2 {
		t.Fatalf("lookup of an unbuilt address: out %v, build calls %v", out, built)
	}
	want := []Route{{pfx("10.9.0.5/32"), r.Lookup(packet.MustAddr("10.9.0.5"))}, {pfx("0.0.0.0/0"), ra}}
	if got := r.Routes(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Routes() = %v, want %v", got, want)
	}
}

// TestLookupMatchesLinearScan checks the indexed routing table against a
// linear scan of the documented rule (longest prefix wins, the most recently
// added among equal prefixes) over seeded random tables mixing default
// routes, prefixes of /8 to /32, repeated prefixes and prefixes with host
// bits set. It also checks HasAddr against a scan as a node grows past the
// size where it indexes its addresses.
func TestLookupMatchesLinearScan(t *testing.T) {
	rng := sim.NewRand(1)
	// Addresses come from a narrow space so that prefixes overlap, plus
	// 11.0.0.0/24, which only a default route covers.
	randAddr := func() netip.Addr {
		if rng.Bool(0.1) {
			return netip.AddrFrom4([4]byte{11, 0, 0, byte(rng.Intn(8))})
		}
		return netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(8))})
	}
	type route struct {
		prefix netip.Prefix
		out    *Iface
	}
	for table := 0; table < 100; table++ {
		r := New(sim.New()).AddRouter("r")
		ifaces := make([]*Iface, 6)
		for i := range ifaces {
			ifaces[i] = r.AddIface(netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}))
		}
		var routes []route
		for i, nroutes := 0, 1+rng.Intn(60); i < nroutes; i++ {
			var p netip.Prefix
			switch {
			case rng.Bool(0.05):
				p = netip.PrefixFrom(randAddr(), 0)
			case rng.Bool(0.2) && len(routes) > 0:
				p = routes[rng.Intn(len(routes))].prefix
			default:
				p = netip.PrefixFrom(randAddr(), 8+rng.Intn(25))
			}
			out := sim.Pick(rng, ifaces)
			r.AddRoute(p, out)
			routes = append(routes, route{p, out})
		}
		for d := 0; d < 200; d++ {
			dst := randAddr()
			var want *Iface
			bestLen := -1
			for _, rt := range routes {
				if rt.prefix.Contains(dst) && rt.prefix.Bits() >= bestLen {
					want, bestLen = rt.out, rt.prefix.Bits()
				}
			}
			if got := r.Lookup(dst); got != want {
				t.Fatalf("table %d: Lookup(%v) = %v, linear scan of %v gives %v", table, dst, got, routes, want)
			}
		}
	}

	nd := New(sim.New()).AddRouter("core")
	var addrs []netip.Addr
	for i := 0; i < 96; i++ {
		a := netip.AddrFrom4([4]byte{10, 255, byte(i / 64), byte(i%64*4 + 1)})
		nd.AddIface(a)
		addrs = append(addrs, a)
		for _, probe := range []netip.Addr{a, addrs[0], addrs[len(addrs)/2], a.Next(), packet.MustAddr("10.255.3.1")} {
			want := false
			for _, have := range addrs {
				want = want || have == probe
			}
			if got := nd.HasAddr(probe); got != want {
				t.Fatalf("with %d interfaces HasAddr(%v) = %v, want %v", len(addrs), probe, got, want)
			}
		}
	}
}
