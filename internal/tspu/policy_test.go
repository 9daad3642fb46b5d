package tspu

import (
	"net/netip"
	"testing"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

func TestDomainSetMatching(t *testing.T) {
	s := NewDomainSet("twitter.com", "play.google.com")
	cases := []struct {
		name string
		want bool
	}{
		{"twitter.com", true},
		{"api.twitter.com", true},
		{"a.b.twitter.com", true},
		{"TWITTER.COM", true},
		{"twitter.com.", true},
		{"nottwitter.com", false},
		{"twitter.org", false},
		{"play.google.com", true},
		{"google.com", false}, // parent of an entry is not matched
		{"x.play.google.com", true},
		{"", false},
	}
	for _, c := range cases {
		if got := s.Contains(c.name); got != c.want {
			t.Errorf("Contains(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDomainSetAddRemove(t *testing.T) {
	s := NewDomainSet()
	s.Add("bbc.com")
	if !s.Contains("news.bbc.com") {
		t.Fatal("added domain not matched")
	}
	s.Remove("bbc.com")
	if s.Contains("bbc.com") || s.Len() != 0 {
		t.Fatal("removal failed")
	}
}

// TestDomainSetFoldsLikeLookups: entries fold case as lookups do, ASCII
// only. Every added name is then Contains and Match of itself, and an entry
// with a non-ASCII letter never matches an ASCII name: "\u212Aremlin.ru"
// (U+212A KELVIN SIGN) used to be stored as "kremlin.ru" by
// strings.ToLower, so it matched kremlin.ru but not itself.
func TestDomainSetFoldsLikeLookups(t *testing.T) {
	names := []string{
		"\u212Aremlin.ru", "KREMLIN.RU", "Kremlin.ru.", "\u212Aremlin.RU",
		"КРЕМЛЬ.РФ", "кремль.рф", "ÄBC.de", "\xff\xfe.com",
	}
	for _, name := range names {
		s := NewDomainSet(name)
		if !s.Contains(name) || !s.Match([]byte(name)) {
			t.Errorf("NewDomainSet(%q): Contains = %v, Match = %v on itself, want both true",
				name, s.Contains(name), s.Match([]byte(name)))
		}
		if !s.Contains("www." + name) {
			t.Errorf("NewDomainSet(%q) does not match its subdomain", name)
		}
		s.Remove(name)
		if s.Len() != 0 {
			t.Errorf("Remove(%q) left %v", name, s.Domains())
		}
	}
	kelvin := NewDomainSet("\u212Aremlin.ru")
	for _, ascii := range []string{"kremlin.ru", "KREMLIN.RU", "www.kremlin.ru"} {
		if kelvin.Contains(ascii) || kelvin.Match([]byte(ascii)) {
			t.Errorf("non-ASCII entry %q matches ASCII name %q", "\u212Aremlin.ru", ascii)
		}
	}
}

func TestDomainSetCloneIndependent(t *testing.T) {
	a := NewDomainSet("x.com")
	b := a.Clone()
	b.Add("y.com")
	if a.Contains("y.com") {
		t.Fatal("clone aliases original")
	}
}

func TestNilDomainSet(t *testing.T) {
	var s *DomainSet
	if s.Contains("x.com") || s.Len() != 0 || s.Domains() != nil {
		t.Fatal("nil set misbehaves")
	}
}

func TestClassify(t *testing.T) {
	p := NewPolicy()
	p.SNI1Domains.Add("facebook.com", "twitter.com")
	p.SNI2Domains.Add("play.google.com")
	p.SNI4Domains.Add("twitter.com")
	p.ThrottleDomains.Add("fbcdn.net")

	c := p.Classify("twitter.com")
	if !c.SNI1 || !c.SNI4 || c.SNI2 || c.Throttle {
		t.Fatalf("twitter.com classify = %+v", c)
	}
	c = p.Classify("play.google.com")
	if !c.SNI2 || c.SNI1 {
		t.Fatalf("play.google.com classify = %+v", c)
	}
	// Throttling inactive by default (post Mar 4 state).
	if p.Classify("fbcdn.net").Throttle {
		t.Fatal("throttle classified while inactive")
	}
	p.ThrottleActive = true
	if !p.Classify("fbcdn.net").Throttle {
		t.Fatal("throttle not classified while active")
	}
	if p.Classify("unrelated.org").Any() {
		t.Fatal("unrelated domain classified")
	}
}

func TestControllerUniformPush(t *testing.T) {
	ctl := NewController(nil)
	var devs []*Device
	for i := 0; i < 5; i++ {
		d := NewDevice(Config{Sim: newTestSim()})
		ctl.Register(d)
		devs = append(devs, d)
	}
	ctl.Update(func(p *Policy) {
		p.SNI1Domains.Add("meduza.io")
		p.BlockedIPs[packet.MustAddr("198.51.100.9")] = true
	})
	for i, d := range devs {
		if !d.Policy().SNI1Domains.Contains("meduza.io") {
			t.Fatalf("device %d missed domain push", i)
		}
		if !d.Policy().IPBlocked(packet.MustAddr("198.51.100.9")) {
			t.Fatalf("device %d missed IP push", i)
		}
		if d.Policy().Version != 1 {
			t.Fatalf("device %d version = %d", i, d.Policy().Version)
		}
	}
	// Every device must share the identical policy value (uniformity, §5.1).
	for i := 1; i < len(devs); i++ {
		if devs[i].Policy() != devs[0].Policy() {
			t.Fatal("devices hold different policy pointers after push")
		}
	}
	ctl.Update(func(p *Policy) { p.SNI1Domains.Remove("meduza.io") })
	if devs[3].Policy().SNI1Domains.Contains("meduza.io") {
		t.Fatal("removal not pushed")
	}
	if ctl.Policy().Version != 2 {
		t.Fatalf("version = %d", ctl.Policy().Version)
	}
}

func TestPolicyCloneDeep(t *testing.T) {
	p := NewPolicy()
	p.SNI1Domains.Add("a.com")
	p.BlockedIPs[packet.MustAddr("1.2.3.4")] = true
	q := p.Clone()
	q.SNI1Domains.Add("b.com")
	q.BlockedIPs[packet.MustAddr("5.6.7.8")] = true
	if p.SNI1Domains.Contains("b.com") || p.IPBlocked(packet.MustAddr("5.6.7.8")) {
		t.Fatal("clone aliases original")
	}
}

func TestBlockTypeStrings(t *testing.T) {
	names := map[BlockType]string{
		SNI1: "SNI-I", SNI2: "SNI-II", SNI3: "SNI-III",
		SNI4: "SNI-IV", QUICBlock: "QUIC", IPBlock: "IP",
	}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}

// TestIPBlocklistInstallPaths shows the datapath's compiled blocklist is
// built on every way a policy reaches a device: a local SYN to the blocked
// IP is dropped and a local ACK to it is rewritten to RST/ACK after
// NewController+Register, Controller.Update and Controller.UpdateStaggered
// (once its jitter fires).
func TestIPBlocklistInstallPaths(t *testing.T) {
	local, blocked := packet.MustAddr("10.0.0.2"), packet.MustAddr("198.51.100.9")
	block := func(p *Policy) { p.BlockedIPs[blocked] = true }
	enforces := func(t *testing.T, d *Device, s *sim.Sim) bool {
		t.Helper()
		pipe := nullPipe{s: s}
		syn := packet.NewTCP(local, blocked, 40000, 443, packet.FlagSYN, 1, 0, nil)
		ack := packet.NewTCP(local, blocked, 40001, 443, packet.FlagsPSHACK, 1, 1, []byte("x"))
		dropped := d.Handle(pipe, syn, netem.AtoB) == netem.Drop
		rewritten := d.Handle(pipe, ack, netem.AtoB) == netem.Pass && ack.TCP.Flags == packet.FlagsRSTACK
		if dropped != rewritten {
			t.Fatalf("SYN dropped %t but ACK rewritten %t", dropped, rewritten)
		}
		return dropped
	}
	newDev := func() (*Device, *sim.Sim) {
		s := newTestSim()
		return NewDevice(Config{Sim: s, LocalDir: netem.AtoB}), s
	}

	t.Run("NewController", func(t *testing.T) {
		d, s := newDev()
		p := NewPolicy()
		block(p)
		NewController(p).Register(d)
		if !enforces(t, d, s) {
			t.Fatal("blocked IP passed")
		}
	})
	t.Run("Update", func(t *testing.T) {
		d, s := newDev()
		ctl := NewController(nil)
		ctl.Register(d)
		if enforces(t, d, s) {
			t.Fatal("empty policy blocked")
		}
		ctl.Update(block)
		if !enforces(t, d, s) {
			t.Fatal("blocked IP passed")
		}
	})
	t.Run("UpdateStaggered", func(t *testing.T) {
		d, s := newDev()
		ctl := NewController(nil)
		ctl.Register(d)
		ctl.UpdateStaggered(s, sim.NewRand(3), time.Second, block)
		s.RunUntil(s.Now() + time.Second)
		if !enforces(t, d, s) {
			t.Fatal("blocked IP passed")
		}
	})
	t.Run("FalseEntriesOnly", func(t *testing.T) {
		d, s := newDev()
		p := NewPolicy()
		p.BlockedIPs[blocked] = false
		NewController(p).Register(d)
		if enforces(t, d, s) {
			t.Fatal("a false entry blocked")
		}
	})
}

// TestCompiledIPBlocklistMatchesMap pins the compiled set to Policy.IPBlocked
// on false entries, IPv6 and 4-in-6 keys, the zero Addr, and addresses whose
// IPv4 and 4-in-6 forms are listed differently.
func TestCompiledIPBlocklistMatchesMap(t *testing.T) {
	v4 := packet.MustAddr
	in6 := func(s string) netip.Addr { return netip.AddrFrom16(v4(s).As16()) }
	probes := []netip.Addr{
		v4("198.51.100.9"), v4("198.51.100.10"), v4("203.0.113.5"), v4("0.0.0.0"),
		in6("198.51.100.9"), in6("203.0.113.5"), in6("0.0.0.0"),
		netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2"), {},
	}
	policies := map[string]map[netip.Addr]bool{
		"empty":      {},
		"false only": {v4("198.51.100.9"): false},
		"ipv4":       {v4("198.51.100.9"): true, v4("198.51.100.10"): false, v4("0.0.0.0"): true},
		"mixed": {
			v4("198.51.100.9"): true, in6("203.0.113.5"): true, in6("198.51.100.10"): false,
			netip.MustParseAddr("2001:db8::1"): true, netip.MustParseAddr("2001:db8::2"): false,
		},
		"zero addr": {{}: true},
	}
	for name, ips := range policies {
		p := NewPolicy()
		p.BlockedIPs = ips
		p.compileIPs()
		want := false
		for _, blocked := range ips {
			want = want || blocked
		}
		if p.anyIPBlocked() != want {
			t.Errorf("%s: anyIPBlocked = %t, want %t", name, p.anyIPBlocked(), want)
		}
		for _, a := range probes {
			if got, want := p.ipBlocked(a), p.IPBlocked(a); got != want {
				t.Errorf("%s: ipBlocked(%v) = %t, IPBlocked %t", name, a, got, want)
			}
		}
	}
}
