package in

import (
	"strings"
	"testing"
	"time"

	"tspusim/internal/dnsx"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/tlsx"
)

type capturePipe struct {
	injected []*packet.Packet
	dirs     []netem.Direction
}

func (p *capturePipe) Inject(pkt *packet.Packet, dir netem.Direction) {
	p.injected = append(p.injected, pkt)
	p.dirs = append(p.dirs, dir)
}
func (p *capturePipe) Now() time.Duration               { return 0 }
func (p *capturePipe) After(d time.Duration, fn func()) {}

var (
	clientAddr = packet.MustAddr("10.0.0.2")
	serverAddr = packet.MustAddr("203.0.113.10")
)

func httpReq(host string) []byte {
	return []byte("GET / HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
}

// TestProfileHeterogeneity pins the paper's core finding (§5, §6): the ISP
// rows must differ from each other in trigger fields, action, or censor ID —
// a collapse here would merge two columns of the fingerprint matrix.
func TestProfileHeterogeneity(t *testing.T) {
	profiles := Profiles()
	if len(profiles) < 3 {
		t.Fatalf("want >= 3 ISP rows, got %d", len(profiles))
	}
	type shape struct {
		http, sni, dns bool
		action         InjectAction
		id             string
	}
	seen := map[shape]string{}
	for _, p := range profiles {
		s := shape{p.TriggerHTTP, p.TriggerSNI, p.TriggerDNS, p.Action, p.CensorID}
		if other, dup := seen[s]; dup {
			t.Errorf("profiles %s and %s are behaviorally identical", other, p.ISP)
		}
		seen[s] = p.ISP
		if !strings.Contains(p.Citation, "arXiv:1808.01708") {
			t.Errorf("profile %s cites %q, want the IN paper", p.ISP, p.Citation)
		}
		if p.Action == ActionBlockpage && p.CensorID == "" {
			t.Errorf("profile %s injects blockpages but has no censor ID", p.ISP)
		}
	}
}

// TestListDivergence pins §4.3: each ISP enforces its own snapshot of the
// orders, so the divergence rows are blocked on exactly one ISP.
func TestListDivergence(t *testing.T) {
	for _, tc := range []struct {
		domain  string
		blocked string
	}{
		{"vimeo.com", "airtel"},
		{"telegram.org", "jio"},
		{"archive.org", "mtnl"},
	} {
		for _, p := range Profiles() {
			got := p.Classify(tc.domain).Blocked
			if want := p.ISP == tc.blocked; got != want {
				t.Errorf("%s on %s: blocked=%v, want %v", tc.domain, p.ISP, got, want)
			}
		}
	}
	// The core list is enforced by every ISP.
	for _, p := range Profiles() {
		if !p.Classify("thepiratebay.org").Blocked {
			t.Errorf("core-list domain not blocked on %s", p.ISP)
		}
	}
}

// TestDirectionality pins §4.2: traffic entering the country is never
// inspected, even when it carries a blocked trigger.
func TestDirectionality(t *testing.T) {
	c := New(Config{Profile: ProfileFor("jio"), LocalDir: netem.AtoB})
	pipe := &capturePipe{}
	ch := (&tlsx.ClientHelloSpec{ServerName: "thepiratebay.org"}).Build()
	inbound := packet.NewTCP(serverAddr, clientAddr, 443, 40000, packet.FlagsPSHACK, 1, 1, ch)
	if act := c.Handle(pipe, inbound, netem.BtoA); act != netem.Pass {
		t.Fatalf("inbound trigger not passed: %v", act)
	}
	if len(pipe.injected) != 0 {
		t.Fatal("inbound traffic must never draw an injection")
	}
}

func TestAirtelBlockpage(t *testing.T) {
	c := New(Config{Profile: ProfileFor("airtel"), LocalDir: netem.AtoB})
	pipe := &capturePipe{}
	pkt := packet.NewTCP(clientAddr, serverAddr, 40000, 80, packet.FlagsPSHACK, 1000, 5000, httpReq("thepiratebay.org"))
	if act := c.Handle(pipe, pkt, netem.AtoB); act != netem.Drop {
		t.Fatalf("blocked request not consumed: %v", act)
	}
	if len(pipe.injected) != 2 {
		t.Fatalf("want blockpage + FIN, got %d injections", len(pipe.injected))
	}
	page := pipe.injected[0]
	if page.IP.Dst != clientAddr || pipe.dirs[0] != netem.BtoA {
		t.Fatal("blockpage must travel back to the client")
	}
	body := string(page.TCP.Payload)
	if !strings.Contains(body, ProfileFor("airtel").CensorID) {
		t.Fatal("blockpage missing the airtel censor ID (§6.3)")
	}
	if !pipe.injected[1].TCP.Flags.Has(packet.FlagFIN) {
		t.Fatal("second injection must close the connection")
	}
	if c.BlockpageInjections != 1 {
		t.Fatalf("BlockpageInjections = %d", c.BlockpageInjections)
	}
	// Airtel does not inspect SNI (§6.2) — the HTTPS version passes.
	ch := (&tlsx.ClientHelloSpec{ServerName: "thepiratebay.org"}).Build()
	tlsPkt := packet.NewTCP(clientAddr, serverAddr, 40001, 443, packet.FlagsPSHACK, 1, 1, ch)
	if act := c.Handle(pipe, tlsPkt, netem.AtoB); act != netem.Pass {
		t.Fatalf("airtel must not trigger on SNI: %v", act)
	}
}

func TestJioRSTOnSNI(t *testing.T) {
	c := New(Config{Profile: ProfileFor("jio"), LocalDir: netem.AtoB})
	pipe := &capturePipe{}
	ch := (&tlsx.ClientHelloSpec{ServerName: "telegram.org"}).Build()
	pkt := packet.NewTCP(clientAddr, serverAddr, 40000, 443, packet.FlagsPSHACK, 1000, 5000, ch)
	if act := c.Handle(pipe, pkt, netem.AtoB); act != netem.Drop {
		t.Fatalf("blocked SNI not consumed: %v", act)
	}
	if len(pipe.injected) != 1 || !pipe.injected[0].TCP.Flags.Has(packet.FlagRST) {
		t.Fatalf("jio must inject exactly one RST, got %d injections", len(pipe.injected))
	}
	if len(pipe.injected[0].TCP.Payload) != 0 {
		t.Fatal("jio injects no page (§5.3)")
	}
}

func TestMTNLDNSForgery(t *testing.T) {
	p := ProfileFor("mtnl")
	c := New(Config{Profile: p, LocalDir: netem.AtoB})
	pipe := &capturePipe{}
	wire, err := dnsx.NewQuery(7, "archive.org").Encode()
	if err != nil {
		t.Fatal(err)
	}
	q := packet.NewUDP(clientAddr, serverAddr, 5353, 53, wire)
	if act := c.Handle(pipe, q, netem.AtoB); act != netem.Drop {
		t.Fatalf("mtnl consumes the query (resolver-path forgery), got %v", act)
	}
	if len(pipe.injected) != 1 {
		t.Fatalf("want one forged answer, got %d", len(pipe.injected))
	}
	forged, err := dnsx.Decode(pipe.injected[0].UDP.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(forged.Answers) == 0 || forged.Answers[0].Addr != p.BlockpageAddr {
		t.Fatalf("forged answer must point at the blockpage host %v", p.BlockpageAddr)
	}
	// Benign queries resolve normally.
	wire2, _ := dnsx.NewQuery(8, "example.org").Encode()
	q2 := packet.NewUDP(clientAddr, serverAddr, 5353, 53, wire2)
	if act := c.Handle(pipe, q2, netem.AtoB); act != netem.Pass {
		t.Fatalf("benign query interfered with: %v", act)
	}
}

func TestFragmentsEvade(t *testing.T) {
	c := New(Config{Profile: ProfileFor("airtel"), LocalDir: netem.AtoB})
	pipe := &capturePipe{}
	pkt := packet.NewTCP(clientAddr, serverAddr, 40000, 80, packet.FlagsPSHACK, 1, 1, httpReq("thepiratebay.org"))
	frags, err := packet.FragmentCount(pkt, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frags {
		if act := c.Handle(pipe, fr, netem.AtoB); act != netem.Pass {
			t.Fatalf("fragment not passed: %v", act)
		}
	}
	if len(pipe.injected) != 0 {
		t.Fatal("fragmented requests must evade (§6.1)")
	}
}

func TestProfileForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ProfileFor must panic on unknown ISPs")
		}
	}()
	ProfileFor("nope")
}
