package tm

import (
	"strings"
	"testing"
	"time"

	"tspusim/internal/dnsx"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/tlsx"
)

// capturePipe records injections for direct Handle testing.
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

func chPayload(domain string) []byte {
	return (&tlsx.ClientHelloSpec{ServerName: domain}).Build()
}

func TestSNITriggerInjectsBothEnds(t *testing.T) {
	c := New()
	pipe := &capturePipe{}
	pkt := packet.NewTCP(clientAddr, serverAddr, 40000, 443, packet.FlagsPSHACK, 1000, 5000, chPayload("twitter.com"))
	if act := c.Handle(pipe, pkt, netem.AtoB); act != netem.Drop {
		t.Fatalf("blocked SNI not consumed: %v", act)
	}
	if len(pipe.injected) != 2 {
		t.Fatalf("want RST pair, got %d injections", len(pipe.injected))
	}
	toSender, toReceiver := pipe.injected[0], pipe.injected[1]
	if !toSender.TCP.Flags.Has(packet.FlagRST) || !toReceiver.TCP.Flags.Has(packet.FlagRST) {
		t.Fatal("injected packets are not RSTs")
	}
	if toSender.IP.Dst != clientAddr || pipe.dirs[0] != netem.BtoA {
		t.Fatal("first RST must travel back to the sender")
	}
	if toReceiver.IP.Dst != serverAddr || pipe.dirs[1] != netem.AtoB {
		t.Fatal("second RST must continue to the receiver")
	}
	// Sequence numbers must land in both endpoints' windows (§5.2): the RST
	// to the sender speaks with the receiver's voice (seq = sender's ack),
	// the RST to the receiver with the sender's (seq = sender's seq).
	if toSender.TCP.Seq != 5000 {
		t.Fatalf("toSender seq = %d, want peer ack 5000", toSender.TCP.Seq)
	}
	if want := uint32(1000 + len(pkt.TCP.Payload)); toSender.TCP.Ack != want {
		t.Fatalf("toSender ack = %d, want %d", toSender.TCP.Ack, want)
	}
	if toReceiver.TCP.Seq != 1000 || toReceiver.TCP.Ack != 5000 {
		t.Fatalf("toReceiver seq/ack = %d/%d, want 1000/5000", toReceiver.TCP.Seq, toReceiver.TCP.Ack)
	}
	if c.RSTInjections != 2 {
		t.Fatalf("RSTInjections = %d, want 2", c.RSTInjections)
	}
}

// TestBidirectional is the TMC's defining property (§3.1): the same trigger
// fires on traffic flowing into the country.
func TestBidirectional(t *testing.T) {
	c := New()
	pipe := &capturePipe{}
	pkt := packet.NewTCP(serverAddr, clientAddr, 443, 40000, packet.FlagsPSHACK, 5000, 1000, chPayload("twitter.com"))
	if act := c.Handle(pipe, pkt, netem.BtoA); act != netem.Drop {
		t.Fatalf("reverse-direction trigger not consumed: %v", act)
	}
	if len(pipe.injected) != 2 {
		t.Fatalf("want RST pair on reverse direction, got %d", len(pipe.injected))
	}
}

func TestHTTPHostTrigger(t *testing.T) {
	c := New()
	pipe := &capturePipe{}
	req := []byte("GET / HTTP/1.1\r\nHost: facebook.com\r\n\r\n")
	pkt := packet.NewTCP(clientAddr, serverAddr, 40000, 80, packet.FlagsPSHACK, 1, 1, req)
	if act := c.Handle(pipe, pkt, netem.AtoB); act != netem.Drop {
		t.Fatalf("blocked Host not consumed: %v", act)
	}
	benign := packet.NewTCP(clientAddr, serverAddr, 40000, 80, packet.FlagsPSHACK, 1, 1,
		[]byte("GET / HTTP/1.1\r\nHost: example.org\r\n\r\n"))
	if act := c.Handle(pipe, benign, netem.AtoB); act != netem.Pass {
		t.Fatalf("benign Host interfered with: %v", act)
	}
}

func TestDNSInjectionRacesQuery(t *testing.T) {
	c := New()
	pipe := &capturePipe{}
	wire, err := dnsx.NewQuery(42, "youtube.com").Encode()
	if err != nil {
		t.Fatal(err)
	}
	q := packet.NewUDP(clientAddr, serverAddr, 5353, 53, wire)
	if act := c.Handle(pipe, q, netem.AtoB); act != netem.Pass {
		t.Fatalf("query must be forwarded (the race), got %v", act)
	}
	if len(pipe.injected) != 1 {
		t.Fatalf("want one forged answer, got %d", len(pipe.injected))
	}
	forged, err := dnsx.Decode(pipe.injected[0].UDP.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !forged.Response || forged.ID != 42 {
		t.Fatal("forged answer does not match the query")
	}
	if len(forged.Answers) == 0 || forged.Answers[0].Addr != BlockedAnswer {
		t.Fatalf("forged answer must point at %v", BlockedAnswer)
	}
	if pipe.dirs[0] != netem.BtoA {
		t.Fatal("forged answer must travel back toward the querier")
	}
}

func TestFragmentsPassUninspected(t *testing.T) {
	c := New()
	pipe := &capturePipe{}
	pkt := packet.NewTCP(clientAddr, serverAddr, 40000, 443, packet.FlagsPSHACK, 1, 1, chPayload("twitter.com"))
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
		t.Fatal("fragments must evade (§6.2)")
	}
}

// TestDefaultTableDivergence pins the list-divergence rows (§7.1): the three
// mechanism lists overlap but are not identical.
func TestDefaultTableDivergence(t *testing.T) {
	r := DefaultRules()
	if v := r.Classify("signal.org"); !v.DNS || v.HTTP || v.SNI {
		t.Fatalf("signal.org must be DNS-only, got %+v", v)
	}
	if v := r.Classify("protonvpn.com"); v.DNS || !v.HTTP || !v.SNI {
		t.Fatalf("protonvpn.com must be HTTP/SNI-only, got %+v", v)
	}
	if v := r.Classify("azathabar.com"); !v.DNS || !v.HTTP || !v.SNI {
		t.Fatalf("azathabar.com must be fully blocked, got %+v", v)
	}
	// Subdomain wildcarding applies to every mechanism (§7.1).
	if v := r.Classify("www.facebook.com"); !v.DNS || !v.HTTP || !v.SNI {
		t.Fatalf("subdomain must inherit, got %+v", v)
	}
}

func TestTableCitationsPresent(t *testing.T) {
	for _, row := range defaultRows {
		if !strings.Contains(row.Citation, "arXiv:2304.04835") {
			t.Errorf("row %s cites %q, want the TM paper", row.Domain, row.Citation)
		}
	}
	if len(BoundaryRows()) != len(defaultRows) {
		t.Fatal("BoundaryRows must cover the whole table")
	}
}
