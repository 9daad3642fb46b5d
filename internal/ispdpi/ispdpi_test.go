package ispdpi

import (
	"net/netip"
	"testing"
	"time"

	"tspusim/internal/dnsx"
	"tspusim/internal/hostnet"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
)

func twoHosts(t *testing.T) (*sim.Sim, *hostnet.Stack, *hostnet.Stack, *netem.Link) {
	t.Helper()
	s := sim.New()
	n := netem.New(s)
	a := n.AddHost("a")
	b := n.AddHost("b")
	ai := a.AddIface(packet.MustAddr("10.0.0.2"))
	bi := b.AddIface(packet.MustAddr("10.0.0.53"))
	link := n.Connect(ai, bi, time.Millisecond)
	a.AddDefaultRoute(ai)
	b.AddDefaultRoute(bi)
	return s, hostnet.NewStack(n, a), hostnet.NewStack(n, b), link
}

func TestBlockpageResolver(t *testing.T) {
	s, client, resolver, _ := twoHosts(t)
	blockpage := netip.MustParseAddr("192.0.2.200")
	real := netip.MustParseAddr("203.0.113.80")
	bl := tspu.NewDomainSet("banned.ru")
	r := NewBlockpageResolver(resolver, "obit", blockpage, func() *tspu.DomainSet { return bl }, func(string) []netip.Addr {
		return []netip.Addr{real}
	})
	cl := dnsx.NewClient(client, resolver.Addr())
	var blocked, ok *dnsx.Message
	cl.Lookup("banned.ru", func(m *dnsx.Message) { blocked = m })
	cl.Lookup("fine.ru", func(m *dnsx.Message) { ok = m })
	s.Run()
	if blocked == nil || blocked.Answers[0].Addr != blockpage {
		t.Fatalf("blockpage = %+v", blocked)
	}
	if ok == nil || ok.Answers[0].Addr != real {
		t.Fatalf("upstream = %+v", ok)
	}
	if r.BlockpageServed != 1 {
		t.Fatalf("BlockpageServed = %d", r.BlockpageServed)
	}
}

func TestBlockpageSubdomains(t *testing.T) {
	s, client, resolver, _ := twoHosts(t)
	bl := tspu.NewDomainSet("banned.ru")
	blockpage := netip.MustParseAddr("192.0.2.200")
	NewBlockpageResolver(resolver, "rostelecom", blockpage, func() *tspu.DomainSet { return bl }, nil)
	cl := dnsx.NewClient(client, resolver.Addr())
	var got *dnsx.Message
	cl.Lookup("cdn.banned.ru", func(m *dnsx.Message) { got = m })
	s.Run()
	if got == nil || len(got.Answers) == 0 || got.Answers[0].Addr != blockpage {
		t.Fatalf("subdomain not blockpaged: %+v", got)
	}
}

func TestKeywordDPI(t *testing.T) {
	s, client, server, link := twoHosts(t)
	dpi := &KeywordDPI{ISP: "ertelecom", Keywords: []string{"forbidden-word"}}
	link.Attach(dpi)
	server.Listen(80, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) { c.Send([]byte("forbidden-word in response")) },
	})
	conn := client.Dial(server.Addr(), 80, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send([]byte("GET /ok")) }
	s.Run()
	if !conn.ResetSeen {
		t.Fatal("keyword in response not reset")
	}
	if dpi.Resets != 1 {
		t.Fatalf("Resets = %d", dpi.Resets)
	}
}

func TestKeywordDPIIgnoresCleanTraffic(t *testing.T) {
	s, client, server, link := twoHosts(t)
	dpi := &KeywordDPI{ISP: "x", Keywords: []string{"zzz"}}
	link.Attach(dpi)
	server.Listen(80, hostnet.ListenOptions{Echo: true})
	conn := client.Dial(server.Addr(), 80, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send([]byte("harmless")) }
	s.Run()
	if conn.ResetSeen || string(conn.Received) != "harmless" {
		t.Fatal("clean traffic affected")
	}
}

func TestFragLimitMiddleboxReassembles(t *testing.T) {
	s, client, server, link := twoHosts(t)
	mb := NewFragLimitMiddlebox("cisco", 24)
	link.Attach(mb)
	var synack bool
	client.Tap(func(p *packet.Packet) {
		if p.TCP != nil && p.TCP.Flags.Has(packet.FlagsSYNACK) {
			synack = true
		}
	})
	server.Listen(443, hostnet.ListenOptions{})
	p := packet.NewTCP(client.Addr(), server.Addr(), 42001, 443, packet.FlagSYN, 1, 0, nil)
	p.IP.ID = 5
	frags, err := packet.FragmentCount(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		client.Send(f)
	}
	s.Run()
	if !synack {
		t.Fatal("reassembled SYN not delivered")
	}
}

func TestFragLimitMiddleboxDiscardsOverLimit(t *testing.T) {
	s, client, server, link := twoHosts(t)
	mb := NewFragLimitMiddlebox("cisco", 24)
	link.Attach(mb)
	got := 0
	client.Tap(func(p *packet.Packet) {
		if p.TCP != nil && p.TCP.Flags.Has(packet.FlagsSYNACK) {
			got++
		}
	})
	server.Listen(443, hostnet.ListenOptions{})
	p := packet.NewTCP(client.Addr(), server.Addr(), 42002, 443, packet.FlagSYN, 1, 0, nil)
	p.IP.ID = 6
	frags, err := packet.FragmentCount(p, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		client.Send(f)
	}
	s.Run()
	if got != 0 {
		t.Fatal("over-limit queue leaked")
	}
	if mb.Discarded != 1 {
		t.Fatalf("Discarded = %d", mb.Discarded)
	}
}

func TestTable7Integrity(t *testing.T) {
	rows := Table7()
	if len(rows) != 32 {
		t.Fatalf("Table 7 rows = %d, want 32", len(rows))
	}
	systems := map[string]bool{}
	for _, r := range rows {
		if r.Timeout <= 0 {
			t.Fatalf("row %+v has non-positive timeout", r)
		}
		systems[r.System] = true
	}
	for _, want := range []string{"rdp", "freebsd", "windows", "linux", "rfc 5382", "rfc 7857", "huawei", "cisco", "juniper"} {
		if !systems[want] {
			t.Fatalf("missing system %q", want)
		}
	}
}

func TestTSPUTimeoutsMatchNoProfile(t *testing.T) {
	// The paper's headline: the TSPU's measured values (60, 105, 480, 75,
	// 420, 40) match no documented implementation.
	for _, d := range []time.Duration{60 * time.Second, 105 * time.Second, 480 * time.Second,
		75 * time.Second, 420 * time.Second, 40 * time.Second} {
		if hits := MatchesKnownProfile(d); len(hits) != 0 {
			// 60s matches two documented rows (windows TCP FIN, linux
			// syn_recv and close_wait) — the paper's claim is about the set
			// as a whole; assert only the distinctive values are unmatched.
			if d != 60*time.Second {
				t.Fatalf("TSPU timeout %v matches %v", d, hits)
			}
		}
	}
}

func TestFragQueueLimitsFingerprint(t *testing.T) {
	limits := FragQueueLimits()
	if limits["tspu"] != 45 {
		t.Fatal("TSPU limit wrong")
	}
	for sysName, l := range limits {
		if sysName != "tspu" && l == 45 {
			t.Fatalf("%s shares the TSPU limit; fingerprint broken", sysName)
		}
	}
}
