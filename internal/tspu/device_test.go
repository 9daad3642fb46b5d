package tspu

import (
	"bytes"
	"testing"
	"time"

	"tspusim/internal/hostnet"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
)

func newTestSim() *sim.Sim { return sim.New() }

// lab is a minimal RU-client / TSPU / remote-server deployment:
//
//	client(10.0.0.2) - r1 - [TSPU] - border - server(203.0.113.10)
//
// The TSPU sits on the r1--border link with r1 on its A side, so local→remote
// is AtoB.
type lab struct {
	sim     *sim.Sim
	net     *netem.Network
	client  *hostnet.Stack
	server  *hostnet.Stack
	device  *Device
	ctl     *Controller
	tspuCap *netem.Capture
}

func newLab(t *testing.T, mutate func(*Config)) *lab {
	t.Helper()
	s := sim.New()
	n := netem.New(s)
	client := n.AddHost("client")
	r1 := n.AddRouter("r1")
	border := n.AddRouter("border")
	server := n.AddHost("server")

	ci := client.AddIface(packet.MustAddr("10.0.0.2"))
	r1c := r1.AddIface(packet.MustAddr("10.0.0.1"))
	r1b := r1.AddIface(packet.MustAddr("10.9.0.1"))
	bl := border.AddIface(packet.MustAddr("10.9.0.2"))
	bs := border.AddIface(packet.MustAddr("203.0.113.1"))
	si := server.AddIface(packet.MustAddr("203.0.113.10"))

	n.Connect(ci, r1c, time.Millisecond)
	mid := n.Connect(r1b, bl, time.Millisecond)
	n.Connect(bs, si, time.Millisecond)

	client.AddDefaultRoute(ci)
	r1.AddRoute(netem.MustPrefix("10.0.0.0/24"), r1c)
	r1.AddDefaultRoute(r1b)
	border.AddRoute(netem.MustPrefix("10.0.0.0/16"), bl)
	border.AddDefaultRoute(bs)
	server.AddDefaultRoute(si)

	cfg := Config{Name: "tspu-1", Sim: s, LocalDir: netem.AtoB, Rand: sim.NewRand(7)}
	if mutate != nil {
		mutate(&cfg)
	}
	dev := NewDevice(cfg)
	mid.Attach(dev)
	cap := netem.NewCapture("tspu-link")
	mid.Tap(cap)

	ctl := NewController(nil)
	ctl.Register(dev)
	ctl.Update(func(p *Policy) {
		p.SNI1Domains.Add("facebook.com", "twitter.com", "meduza.io", "dw.com")
		p.SNI2Domains.Add("play.google.com", "nordvpn.com")
		p.SNI4Domains.Add("twitter.com", "t.co")
		p.ThrottleDomains.Add("fbcdn.net")
		p.BlockedIPs[packet.MustAddr("198.51.100.7")] = true // "Tor node"
	})

	return &lab{
		sim: s, net: n,
		client: hostnet.NewStack(n, client),
		server: hostnet.NewStack(n, server),
		device: dev, ctl: ctl, tspuCap: cap,
	}
}

func clientHello(domain string) []byte {
	return (&tlsx.ClientHelloSpec{ServerName: domain}).Build()
}

// openAndSendCH establishes a TCP connection and sends a ClientHello; it
// returns the client conn.
func (l *lab) openAndSendCH(domain string) *hostnet.TCPConn {
	l.server.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, data []byte) {
			c.Send([]byte("SERVERHELLO-----")) // downstream response
			c.Send([]byte("CERTIFICATE-----"))
		},
	})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(clientHello(domain)) }
	return conn
}

func TestSNI1RSTInjection(t *testing.T) {
	l := newLab(t, nil)
	conn := l.openAndSendCH("facebook.com")
	l.sim.Run()
	if !conn.ResetSeen {
		t.Fatal("SNI-I: client did not see RST/ACK")
	}
	if len(conn.Received) != 0 {
		t.Fatalf("SNI-I: payload leaked to client: %q", conn.Received)
	}
	// Server must have received the ClientHello (the trigger is delivered).
	found := false
	for _, r := range l.tspuCap.Delivered() {
		if r.Dir == netem.AtoB && r.Pkt.TCP != nil && len(r.Pkt.TCP.Payload) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("SNI-I: trigger ClientHello was not delivered upstream")
	}
	if l.device.Stats().Triggers[SNI1] != 1 {
		t.Fatalf("trigger count = %d", l.device.Stats().Triggers[SNI1])
	}
}

func TestSNI1PreservesMetadata(t *testing.T) {
	l := newLab(t, nil)
	conn := l.openAndSendCH("facebook.com")
	// Find the rewritten packet and check seq/ack survive. The handler
	// copies them: the network recycles the packet once it returns.
	found := false
	var seq, ack uint32
	conn.OnPacket = func(p *packet.Packet) {
		if p.TCP.Flags == packet.FlagsRSTACK && !found {
			found, seq, ack = true, p.TCP.Seq, p.TCP.Ack
		}
	}
	l.sim.Run()
	if !found {
		t.Fatal("no RST/ACK captured")
	}
	if seq == 0 && ack == 0 {
		t.Fatal("rewritten packet lost sequence numbers")
	}
}

func TestNonTriggeringDomainUnaffected(t *testing.T) {
	l := newLab(t, nil)
	conn := l.openAndSendCH("example.org")
	l.sim.Run()
	if conn.ResetSeen {
		t.Fatal("control domain was blocked")
	}
	if !bytes.Contains(conn.Received, []byte("SERVERHELLO")) {
		t.Fatalf("control domain got no response: %q", conn.Received)
	}
}

func TestSNI2AllowanceThenDrop(t *testing.T) {
	l := newLab(t, nil)
	var serverConn *hostnet.TCPConn
	l.server.Listen(443, hostnet.ListenOptions{
		OnConnect: func(c *hostnet.TCPConn) { serverConn = c },
	})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(clientHello("play.google.com")) }
	l.sim.Run()
	if serverConn == nil {
		t.Fatal("no server conn")
	}
	// After the trigger, stream many packets upstream: only the allowance
	// (5-8) may arrive.
	before := serverConn.Segments
	for i := 0; i < 30; i++ {
		conn.SendRaw(packet.FlagsPSHACK, []byte("data-seg"))
	}
	l.sim.Run()
	got := serverConn.Segments - before
	if got < 4 || got > 8 {
		t.Fatalf("SNI-II delivered %d post-trigger packets, want 5-8 window", got)
	}
	if l.device.Stats().Triggers[SNI2] != 1 {
		t.Fatal("SNI-II trigger not counted")
	}
}

func TestSNI2SymmetricDrop(t *testing.T) {
	l := newLab(t, nil)
	conn := l.openAndSendCH("nordvpn.com")
	l.sim.Run()
	// Exhaust allowance.
	for i := 0; i < 20; i++ {
		conn.SendRaw(packet.FlagsPSHACK, []byte("x"))
	}
	l.sim.Run()
	// Now downstream packets must be dropped too.
	nRecvBefore := len(conn.Packets)
	srv := l.server
	srv.SendTCP(conn.LocalAddr, 443, conn.LocalPort, packet.FlagsPSHACK, 9000, 9000, []byte("down"))
	l.sim.Run()
	if len(conn.Packets) != nRecvBefore {
		t.Fatal("downstream packet passed after SNI-II drop began")
	}
}

func TestSNI4SplitHandshakeBackup(t *testing.T) {
	// twitter.com is in both SNI-I and SNI-IV. With a split handshake the
	// role heuristic is confused: SNI-I is skipped, SNI-IV fires and drops
	// everything including the trigger.
	l := newLab(t, nil)
	var serverGot []byte
	l.server.Listen(443, hostnet.ListenOptions{
		SplitHandshake: true,
		OnData:         func(c *hostnet.TCPConn, d []byte) { serverGot = append(serverGot, d...) },
	})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(clientHello("twitter.com")) }
	l.sim.Run()
	if len(serverGot) != 0 {
		t.Fatal("SNI-IV: trigger ClientHello leaked to server")
	}
	if conn.ResetSeen {
		t.Fatal("SNI-IV dropped flow must not see RST (RSTs are dropped too)")
	}
	st := l.device.Stats()
	if st.Triggers[SNI4] != 1 || st.Triggers[SNI1] != 0 {
		t.Fatalf("triggers = %v, want SNI-IV only", st.Triggers)
	}
}

func TestSplitHandshakeEvadesSNI1Only(t *testing.T) {
	// meduza.io is SNI-I only: with a split handshake the connection works.
	l := newLab(t, nil)
	var serverGot []byte
	l.server.Listen(443, hostnet.ListenOptions{
		SplitHandshake: true,
		OnData: func(c *hostnet.TCPConn, d []byte) {
			serverGot = append(serverGot, d...)
			c.Send([]byte("SERVERHELLO"))
		},
	})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(clientHello("meduza.io")) }
	l.sim.Run()
	if len(serverGot) == 0 {
		t.Fatal("split handshake: CH did not reach server")
	}
	if conn.ResetSeen {
		t.Fatal("split handshake did not evade SNI-I")
	}
	if !bytes.Contains(conn.Received, []byte("SERVERHELLO")) {
		t.Fatal("response did not reach client")
	}
}

func TestStrictRolesAblationPatchesSplitHandshake(t *testing.T) {
	l := newLab(t, func(c *Config) { c.StrictRoles = true })
	l.server.Listen(443, hostnet.ListenOptions{SplitHandshake: true})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(clientHello("meduza.io")) }
	l.sim.Run()
	if !conn.ResetSeen {
		t.Fatal("StrictRoles device should still block through split handshake")
	}
}

func TestRemoteOriginExempt(t *testing.T) {
	// A connection initiated by the remote side is never blocked, even when
	// a triggering CH later flows upstream (the asymmetry of §5.3.2).
	l := newLab(t, nil)
	var clientConn *hostnet.TCPConn
	l.client.Listen(443, hostnet.ListenOptions{
		OnConnect: func(c *hostnet.TCPConn) { clientConn = c },
	})
	srvConn := l.server.Dial(l.client.Addr(), 443, hostnet.DialOptions{SrcPort: 443})
	l.sim.Run()
	if clientConn == nil {
		t.Fatal("no inbound conn")
	}
	clientConn.Send(clientHello("facebook.com")) // upstream trigger on remote-origin flow
	l.sim.Run()
	if srvConn.ResetSeen {
		t.Fatal("remote-origin flow was blocked")
	}
	if got := l.device.Stats().Triggers[SNI1]; got != 0 {
		t.Fatalf("SNI-I triggered %d times on remote-origin flow", got)
	}
}

func TestSNI3Throttling(t *testing.T) {
	l := newLab(t, nil)
	l.ctl.Update(func(p *Policy) { p.ThrottleActive = true })
	var serverConn *hostnet.TCPConn
	l.server.Listen(443, hostnet.ListenOptions{OnConnect: func(c *hostnet.TCPConn) { serverConn = c }})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(clientHello("fbcdn.net")) }
	l.sim.Run()
	if serverConn == nil {
		t.Fatal("no server conn")
	}
	// Stream 100 x 1000-byte upstream segments over 10 virtual seconds.
	base := len(serverConn.Received)
	for i := 0; i < 100; i++ {
		d := time.Duration(i) * 100 * time.Millisecond
		l.sim.After(d, func() { conn.SendRaw(packet.FlagsPSHACK, make([]byte, 1000)) })
	}
	l.sim.Run()
	goodput := len(serverConn.Received) - base
	elapsed := 10.0 // seconds of sending
	rate := float64(goodput) / elapsed
	// Policy rate is 650 B/s: accept 300-1100 B/s to allow burst effects.
	if rate < 300 || rate > 1100 {
		t.Fatalf("throttled goodput = %.0f B/s, want ~650", rate)
	}
	if l.device.Stats().Throttled == 0 {
		t.Fatal("no packets policed")
	}
}

func TestThrottleInactiveAfterMarch4(t *testing.T) {
	l := newLab(t, nil) // ThrottleActive defaults to false
	conn := l.openAndSendCH("fbcdn.net")
	l.sim.Run()
	if conn.ResetSeen {
		t.Fatal("fbcdn.net blocked while throttle inactive and not in SNI-I")
	}
	if l.device.Stats().Triggers[SNI3] != 0 {
		t.Fatal("SNI-III triggered while inactive")
	}
}

func TestQUICBlocking(t *testing.T) {
	l := newLab(t, nil)
	received := 0
	l.server.BindUDP(443, func(p *packet.Packet) { received++ })
	// First packet: v1 initial (trigger, delivered). Then more packets that
	// must all be dropped regardless of content.
	sport := uint16(50000)
	l.client.SendUDP(l.server.Addr(), sport, 443, buildQUICv1(1200))
	l.client.SendUDP(l.server.Addr(), sport, 443, []byte("short"))
	l.client.SendUDP(l.server.Addr(), sport, 443, buildQUICv1(1200))
	l.sim.Run()
	if received != 1 {
		t.Fatalf("server received %d UDP packets, want only the trigger", received)
	}
	if l.device.Stats().Triggers[QUICBlock] != 1 {
		t.Fatal("QUIC trigger not counted")
	}
}

func TestQUICOtherVersionsPass(t *testing.T) {
	l := newLab(t, nil)
	received := 0
	l.server.BindUDP(443, func(p *packet.Packet) { received++ })
	l.client.SendUDP(l.server.Addr(), 50001, 443, buildQUICDraft29(1200))
	l.client.SendUDP(l.server.Addr(), 50001, 443, buildQUICDraft29(1200))
	l.sim.Run()
	if received != 2 {
		t.Fatalf("draft-29 packets received = %d, want 2", received)
	}
}

func TestQUICDownstreamBlockedAfterTrigger(t *testing.T) {
	l := newLab(t, nil)
	l.server.BindUDP(443, func(p *packet.Packet) {
		l.server.SendUDP(p.IP.Src, 443, p.UDP.SrcPort, []byte("server-initial"))
	})
	got := 0
	l.client.BindUDP(50002, func(p *packet.Packet) { got++ })
	l.client.SendUDP(l.server.Addr(), 50002, 443, buildQUICv1(1200))
	l.sim.Run()
	if got != 0 {
		t.Fatal("downstream packet passed after QUIC trigger")
	}
}

func TestIPBlockOutgoingDropped(t *testing.T) {
	l := newLab(t, nil)
	blocked := packet.MustAddr("198.51.100.7")
	// Any local→blocked packet must vanish; no RST, nothing.
	conn := l.client.Dial(blocked, 9001, hostnet.DialOptions{})
	l.sim.Run()
	if len(conn.Packets) != 0 {
		t.Fatalf("client got %d packets dialing blocked IP", len(conn.Packets))
	}
	if l.device.Stats().Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestIPBlockInboundRequestPassesResponseRST(t *testing.T) {
	// The blocked IP initiates: its SYN passes inbound, but the local
	// server's SYN/ACK is rewritten to a payload-stripped RST/ACK.
	l := newLab(t, nil)
	blocked := packet.MustAddr("198.51.100.7")

	s := l.sim
	n := l.net
	tor := n.AddHost("tor")
	ti := tor.AddIface(blocked)
	borderNode := n.Node("border")
	bt := borderNode.AddIface(packet.MustAddr("198.51.100.1"))
	n.Connect(bt, ti, time.Millisecond)
	tor.AddDefaultRoute(ti)
	borderNode.AddRoute(netem.MustPrefix("198.51.100.0/24"), bt)
	torStack := hostnet.NewStack(n, tor)

	var inboundSYN, rstBack *packet.Packet
	l.client.Tap(func(p *packet.Packet) {
		if p.TCP != nil && p.TCP.Flags == packet.FlagSYN {
			inboundSYN = p
		}
	})
	torStack.Tap(func(p *packet.Packet) {
		if p.TCP != nil && p.TCP.Flags.Has(packet.FlagRST) {
			rstBack = p
		}
	})
	l.client.Listen(8080, hostnet.ListenOptions{})
	torStack.Dial(l.client.Addr(), 8080, hostnet.DialOptions{})
	s.Run()
	if inboundSYN == nil {
		t.Fatal("inbound request from blocked IP did not pass")
	}
	if rstBack == nil {
		t.Fatal("response was not rewritten to RST/ACK")
	}
	if len(rstBack.TCP.Payload) != 0 {
		t.Fatal("rewritten response kept payload")
	}
}

func TestIPBlockICMPDropped(t *testing.T) {
	l := newLab(t, nil)
	blocked := packet.MustAddr("198.51.100.7")
	replies := 0
	l.client.OnICMP(func(p *packet.Packet) { replies++ })
	l.client.Ping(blocked, 1, 1)
	l.sim.Run()
	if replies != 0 {
		t.Fatal("ICMP to blocked IP not dropped")
	}
}

func TestIPBlockIgnoresPorts(t *testing.T) {
	l := newLab(t, nil)
	blocked := packet.MustAddr("198.51.100.7")
	for _, port := range []uint16{80, 443, 7, 7547} {
		before := l.device.Stats().Dropped
		l.client.SendTCP(blocked, l.client.EphemeralPort(), port, packet.FlagSYN, 1, 0, nil)
		l.sim.Run()
		if l.device.Stats().Dropped == before {
			t.Fatalf("port %d: packet to blocked IP not dropped", port)
		}
	}
}

func TestSegmentationEvades(t *testing.T) {
	// A ClientHello split across TCP segments is not matched: the TSPU does
	// not reassemble streams (§8).
	l := newLab(t, nil)
	var serverConn *hostnet.TCPConn
	l.server.Listen(443, hostnet.ListenOptions{OnConnect: func(c *hostnet.TCPConn) { serverConn = c }})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{MSS: 64})
	conn.OnEstablished = func() { conn.Send(clientHello("facebook.com")) }
	l.sim.Run()
	if conn.ResetSeen {
		t.Fatal("segmented CH was blocked")
	}
	if serverConn == nil || !bytes.Contains(serverConn.Received, []byte("facebook.com")) {
		t.Fatal("segmented CH did not arrive intact")
	}
}

func TestReassembleAblationDefeatsSegmentation(t *testing.T) {
	l := newLab(t, func(c *Config) { c.ReassembleTCP = true })
	l.server.Listen(443, hostnet.ListenOptions{})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{MSS: 64})
	conn.OnEstablished = func() { conn.Send(clientHello("facebook.com")) }
	l.sim.Run()
	if l.device.Stats().Triggers[SNI1] == 0 {
		t.Fatal("reassembling device missed segmented CH")
	}
}

// TestReassembleAblationSpansQuietGap: the reassembling device keeps the
// stream prefix across a pause between segments, after the first segment
// has moved on through the network. Under -tags=pooldebug that packet is
// scribbled once it leaves the link, so a reassembly buffer aliasing its
// payload instead of copying it misses the trigger here.
func TestReassembleAblationSpansQuietGap(t *testing.T) {
	l := newLab(t, func(c *Config) { c.ReassembleTCP = true })
	l.server.Listen(443, hostnet.ListenOptions{})
	ch := clientHello("facebook.com")
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() {
		conn.Send(ch[:40])
		l.sim.After(200*time.Millisecond, func() { conn.Send(ch[40:]) })
	}
	l.sim.Run()
	if l.device.Stats().Triggers[SNI1] == 0 {
		t.Fatal("reassembling device missed a ClientHello split by a 200 ms pause")
	}
}

func TestPrependRecordEvades(t *testing.T) {
	l := newLab(t, nil)
	conn := l.openAndSendCHSpec(&tlsx.ClientHelloSpec{ServerName: "facebook.com", PrependRecord: true})
	l.sim.Run()
	if conn.ResetSeen {
		t.Fatal("prepended-record CH was blocked")
	}
}

func TestInspectDepthPaddingEvades(t *testing.T) {
	// Padding placed before the SNI pushes it past the inspection depth.
	l := newLab(t, nil)
	spec := &tlsx.ClientHelloSpec{
		ServerName: "facebook.com",
		ExtraExts:  []tlsx.Extension{{Type: tlsx.ExtensionPadding, Data: make([]byte, 600)}},
	}
	conn := l.openAndSendCHSpec(spec)
	l.sim.Run()
	if conn.ResetSeen {
		t.Fatal("padding-before-SNI CH was blocked despite depth limit")
	}
}

func (l *lab) openAndSendCHSpec(spec *tlsx.ClientHelloSpec) *hostnet.TCPConn {
	l.server.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, data []byte) { c.Send([]byte("SERVERHELLO")) },
	})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	payload := spec.Build()
	conn.OnEstablished = func() { conn.Send(payload) }
	return conn
}

func TestExtraExtsBeforeSNI(t *testing.T) {
	// The builder places ExtraExts after SNI; verify the device still parses
	// within depth when padding is small (control for the evasion test).
	l := newLab(t, nil)
	spec := &tlsx.ClientHelloSpec{ServerName: "facebook.com", PaddingLen: 32}
	conn := l.openAndSendCHSpec(spec)
	l.sim.Run()
	if !conn.ResetSeen {
		t.Fatal("small-padded CH should still be blocked")
	}
}

func TestFailureInjection(t *testing.T) {
	l := newLab(t, func(c *Config) {
		c.FailureRates = map[BlockType]float64{SNI1: 0.5}
		c.Rand = sim.NewRand(42)
	})
	l.server.Listen(443, hostnet.ListenOptions{})
	blocked := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
		conn.OnEstablished = func() { conn.Send(clientHello("facebook.com")) }
		l.sim.Run()
		if conn.ResetSeen {
			blocked++
		}
		conn.Close()
	}
	frac := float64(blocked) / trials
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("blocked fraction = %v with 50%% failure rate", frac)
	}
}

func TestBlockingStateTimeoutSNI1(t *testing.T) {
	l := newLab(t, nil)
	conn := l.openAndSendCH("facebook.com")
	l.sim.Run()
	if !conn.ResetSeen {
		t.Fatal("not blocked initially")
	}
	// Within 75s the downstream direction is still rewritten.
	l.sim.RunUntil(l.sim.Now() + 60*time.Second)
	seen := len(conn.Packets)
	l.server.SendTCP(conn.LocalAddr, 443, conn.LocalPort, packet.FlagsPSHACK, 7777, 1, []byte("late"))
	l.sim.Run()
	if len(conn.Packets) == seen {
		t.Fatal("no packet arrived")
	}
	last := conn.Packets[len(conn.Packets)-1]
	if !last.Flags.Has(packet.FlagRST) {
		t.Fatal("downstream not rewritten within SNI-I hold")
	}
	// Beyond 75s from trigger the hold expires.
	l.sim.RunUntil(l.sim.Now() + 30*time.Second) // now > 75s past trigger
	l.server.SendTCP(conn.LocalAddr, 443, conn.LocalPort, packet.FlagsPSHACK, 8888, 1, []byte("after"))
	l.sim.Run()
	last = conn.Packets[len(conn.Packets)-1]
	if last.Flags.Has(packet.FlagRST) {
		t.Fatal("SNI-I hold outlived its 75s timeout")
	}
}

func buildQUICv1(n int) []byte {
	b := make([]byte, n)
	b[0] = 0xc0
	b[4] = 0x01
	for i := 5; i < n; i++ {
		b[i] = 0xff
	}
	return b
}

func buildQUICDraft29(n int) []byte {
	b := buildQUICv1(n)
	b[1], b[2], b[3], b[4] = 0xff, 0x00, 0x00, 0x1d
	return b
}

func TestICMPToUnblockedIPPasses(t *testing.T) {
	l := newLab(t, nil)
	replies := 0
	l.client.OnICMP(func(p *packet.Packet) {
		if p.ICMP.Type == packet.ICMPEchoReply {
			replies++
		}
	})
	l.client.Ping(l.server.Addr(), 5, 1)
	l.sim.Run()
	if replies != 1 {
		t.Fatalf("replies = %d; ICMP to unblocked hosts must pass", replies)
	}
}

func TestQUICFilterDisabled(t *testing.T) {
	l := newLab(t, nil)
	l.ctl.Update(func(p *Policy) { p.QUICFilter = false })
	received := 0
	l.server.BindUDP(443, func(p *packet.Packet) { received++ })
	sport := uint16(51000)
	l.client.SendUDP(l.server.Addr(), sport, 443, buildQUICv1(1200))
	l.client.SendUDP(l.server.Addr(), sport, 443, buildQUICv1(1200))
	l.sim.Run()
	if received != 2 {
		t.Fatalf("received = %d with filter disabled, want 2", received)
	}
}

func TestSNITriggerIgnoresNon443Ports(t *testing.T) {
	l := newLab(t, nil)
	var got []byte
	l.server.Listen(8443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) { got = append(got, d...); c.Send([]byte("OK")) },
	})
	conn := l.client.Dial(l.server.Addr(), 8443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(clientHello("facebook.com")) }
	l.sim.Run()
	if conn.ResetSeen {
		t.Fatal("CH to a non-443 port was blocked")
	}
	if len(got) == 0 {
		t.Fatal("CH did not arrive")
	}
	if l.device.Stats().Triggers[SNI1] != 0 {
		t.Fatal("trigger fired off-port")
	}
}

func TestPolicyRemovalUnblocksNewFlows(t *testing.T) {
	l := newLab(t, nil)
	conn := l.openAndSendCH("meduza.io")
	l.sim.Run()
	if !conn.ResetSeen {
		t.Fatal("not blocked before removal")
	}
	conn.Close()
	l.ctl.Update(func(p *Policy) { p.SNI1Domains.Remove("meduza.io") })
	conn2 := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	ch := clientHello("meduza.io")
	conn2.OnEstablished = func() { conn2.Send(ch) }
	l.sim.Run()
	if conn2.ResetSeen {
		t.Fatal("still blocked after central removal")
	}
}
