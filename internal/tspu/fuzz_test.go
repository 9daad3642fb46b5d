package tspu

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// nullPipe satisfies netem.Pipe for direct Handle fuzzing.
type nullPipe struct{ s *sim.Sim }

func (p nullPipe) Inject(pkt *packet.Packet, dir netem.Direction) {}
func (p nullPipe) Now() time.Duration                             { return p.s.Now() }
func (p nullPipe) After(d time.Duration, fn func())               {}

// fuzzDevice builds a device with a policy exercising all trigger kinds.
func fuzzDevice() (*Device, *sim.Sim) {
	s := sim.New()
	d := NewDevice(Config{Sim: s, LocalDir: netem.AtoB})
	ctl := NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *Policy) {
		p.SNI1Domains.Add("a.com")
		p.SNI2Domains.Add("b.com")
		p.SNI4Domains.Add("a.com")
		p.ThrottleDomains.Add("c.com")
		p.ThrottleActive = true
		p.BlockedIPs[packet.MustAddr("198.51.100.7")] = true
	})
	return d, s
}

// TestDeviceNeverPanics pushes structurally arbitrary packets through the
// full datapath: random flags, seq/ack, ports, payloads (including byte
// soup that the ClientHello parser must survive), fragments with random
// offsets, UDP, and ICMP — in both directions.
func TestDeviceNeverPanics(t *testing.T) {
	d, s := fuzzDevice()
	pipe := nullPipe{s}
	addrs := []netip.Addr{
		packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10"),
		packet.MustAddr("198.51.100.7"),
	}
	f := func(proto uint8, sport, dport uint16, flags uint8, off uint16, mf bool, payload []byte, srcI, dstI uint8, dirB bool) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("device panicked: %v", r)
			}
		}()
		src := addrs[int(srcI)%len(addrs)]
		dst := addrs[int(dstI)%len(addrs)]
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		var pkt *packet.Packet
		switch proto % 4 {
		case 0:
			pkt = packet.NewTCP(src, dst, sport, dport, packet.TCPFlags(flags), uint32(off), 0, payload)
		case 1:
			pkt = packet.NewUDP(src, dst, sport, dport, payload)
		case 2:
			pkt = packet.NewICMPEcho(src, dst, sport, dport)
		default:
			pkt = packet.NewTCP(src, dst, sport, dport, packet.FlagSYN, 1, 0, payload)
			pkt.IP.FragOffset = (off % 2048) &^ 7
			pkt.IP.MF = mf
			pkt.RawPayload = payload
			pkt.TCP = nil
		}
		dir := netem.AtoB
		if dirB {
			dir = netem.BtoA
		}
		d.Handle(pipe, pkt, dir)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestDevicePayloadSoupNoFalseTriggers verifies random payloads to :443
// never match the SNI policy (the parser rejects them) and never panic.
func TestDevicePayloadSoupNoFalseTriggers(t *testing.T) {
	d, s := fuzzDevice()
	pipe := nullPipe{s}
	src := packet.MustAddr("10.0.0.2")
	dst := packet.MustAddr("203.0.113.10")
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		pkt := packet.NewTCP(src, dst, 40000, 443, packet.FlagsPSHACK, 1, 1, payload)
		d.Handle(pipe, pkt, netem.AtoB)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	for _, typ := range []BlockType{SNI1, SNI2, SNI3, SNI4} {
		if st.Triggers[typ] != 0 {
			t.Fatalf("random payloads triggered %v %d times", typ, st.Triggers[typ])
		}
	}
}

// capturePipe records forwarded packets and schedules timeouts on the
// virtual clock, so fuzzed fragment sequences can assert on what a queue
// released and that drained timeouts leave no state behind.
type capturePipe struct {
	s        *sim.Sim
	injected []*packet.Packet
}

func (p *capturePipe) Inject(pkt *packet.Packet, dir netem.Direction) {
	p.injected = append(p.injected, pkt)
}
func (p *capturePipe) Now() time.Duration               { return p.s.Now() }
func (p *capturePipe) After(d time.Duration, fn func()) { p.s.After(d, fn) }

// FuzzFragEngine drives the §5.3.1 fragment queue with arbitrary fragment
// sequences: each 4 input bytes decode to one fragment (flow, 8-aligned
// offset, length, more-fragments flag, TTL). Invariants: the engine never
// panics, released queues forward at least one fragment each, and once the
// virtual clock drains every queue timeout, no queue state survives.
//
// Run with: go test -fuzz=FuzzFragEngine ./internal/tspu
func FuzzFragEngine(f *testing.F) {
	f.Add([]byte{0, 1, 1, 64, 8, 1, 0, 64})              // two fragments, complete in order
	f.Add([]byte{8, 1, 0, 64, 0, 1, 1, 64})              // complete, final first
	f.Add([]byte{0, 2, 1, 64, 0, 2, 1, 64})              // duplicate => poisoned queue
	f.Add([]byte{0, 1, 1, 7, 8, 1, 1, 200, 16, 1, 0, 9}) // TTL rewrite material
	f.Fuzz(func(t *testing.T, data []byte) {
		s := sim.New()
		pipe := &capturePipe{s: s}
		fe := newFragEngine(0, 0) // paper defaults: 45 fragments, 5 s
		src := packet.MustAddr("10.0.0.2")
		dst := packet.MustAddr("203.0.113.10")
		for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
			off, ln, ctl, ttl := data[i], data[i+1], data[i+2], data[i+3]
			payload := make([]byte, 8*(1+int(ln)%8))
			pkt := packet.NewTCP(src, dst, 40000, 443, packet.FlagSYN, 1, 0, nil)
			pkt.TCP = nil
			pkt.RawPayload = payload
			pkt.IP.FragOffset = uint16(off%64) * 8
			pkt.IP.MF = ctl&1 == 1
			pkt.IP.TTL = ttl
			pkt.IP.ID = uint16(ctl >> 1 & 3) // up to four interleaved flows
			if got := fe.handle(pipe, pkt, netem.AtoB); got != netem.Drop {
				t.Fatalf("handle returned %v; fragments must always be consumed", got)
			}
		}
		if fe.forwarded > 0 && len(pipe.injected) < fe.forwarded {
			t.Fatalf("%d queues released but only %d fragments forwarded", fe.forwarded, len(pipe.injected))
		}
		s.Run() // fire every queue timeout on the virtual clock
		if fe.pending() != 0 {
			t.Fatalf("%d fragment queues leaked past their timeout", fe.pending())
		}
	})
}

// FuzzPolicyMatch drives the SNI/domain matcher with arbitrary byte-soup
// domains: insertion is always observable (exact and subdomain matches),
// removal always clears it, and nothing panics on non-UTF-8 input.
//
// Run with: go test -fuzz=FuzzPolicyMatch ./internal/tspu
func FuzzPolicyMatch(f *testing.F) {
	f.Add("twitter.com", "api.twitter.com")
	f.Add("TWITTER.com.", "twitter.com")
	f.Add(".com", "a..com")
	f.Add("", "\xff\xfe")
	f.Add("\u212Aremlin.ru", "kremlin.ru")
	f.Fuzz(func(t *testing.T, domain, name string) {
		s := NewDomainSet(domain)
		if s.Len() != 1 {
			t.Fatalf("Len() = %d after inserting one domain", s.Len())
		}
		s.Contains(name) // must not panic, whatever the bytes
		normalized := asciiLower(strings.TrimRight(domain, "."))
		if normalized != "" {
			if !s.Contains(domain) {
				t.Fatalf("Contains(%q) = false right after Add", domain)
			}
			if !s.Contains("sub." + normalized) {
				t.Fatalf("subdomain sub.%q did not match", normalized)
			}
		}
		s.Remove(domain)
		if s.Contains(domain) {
			t.Fatalf("Contains(%q) = true after Remove", domain)
		}
		if s.Len() != 0 {
			t.Fatalf("Len() = %d after Remove", s.Len())
		}
	})
}

// TestConntrackInvariants property-checks the state machine: entries always
// carry a future expiry, origin never flips without a restart, and the
// table never leaks on lookup-expiry.
func TestConntrackInvariants(t *testing.T) {
	ct := newConntrack(DefaultTimeouts())
	local := packet.MustAddr("10.0.0.2")
	remote := packet.MustAddr("203.0.113.10")
	now := time.Duration(0)
	f := func(flagsRaw uint8, fromLocal bool, advance uint16) bool {
		now += time.Duration(advance) * time.Millisecond
		flags := packet.TCPFlags(flagsRaw)
		var p *packet.Packet
		if fromLocal {
			p = packet.NewTCP(local, remote, 1000, 443, flags, 1, 1, nil)
		} else {
			p = packet.NewTCP(remote, local, 443, 1000, flags, 1, 1, nil)
		}
		e := ct.observe(p, fromLocal, now)
		if e == nil {
			return false
		}
		if e.expires <= now {
			return false // entry must outlive its creation instant
		}
		if e.state != CTSynSent && e.state != CTSynRecv && e.state != CTEstablished {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
