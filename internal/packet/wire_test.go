package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

var (
	srcA = MustAddr("10.1.0.2")
	dstA = MustAddr("203.0.113.10")
)

func TestTCPRoundTrip(t *testing.T) {
	p := NewTCP(srcA, dstA, 43210, 443, FlagsPSHACK, 1000, 2000, []byte("hello tls"))
	p.IP.ID = 777
	p.IP.TTL = 57
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.TCP == nil {
		t.Fatal("parsed packet has no TCP layer")
	}
	if q.IP != p.IP {
		t.Fatalf("IP mismatch: %+v vs %+v", q.IP, p.IP)
	}
	if q.TCP.SrcPort != 43210 || q.TCP.DstPort != 443 || q.TCP.Seq != 1000 ||
		q.TCP.Ack != 2000 || q.TCP.Flags != FlagsPSHACK || !bytes.Equal(q.TCP.Payload, []byte("hello tls")) {
		t.Fatalf("TCP mismatch: %+v", q.TCP)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 1200)
	p := NewUDP(srcA, dstA, 5000, 443, payload)
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.UDP == nil || !bytes.Equal(q.UDP.Payload, payload) {
		t.Fatal("UDP payload mismatch")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	p := NewICMPEcho(srcA, dstA, 9, 3)
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.ICMP == nil || q.ICMP.Type != ICMPEchoRequest || q.ICMP.ID != 9 || q.ICMP.Seq != 3 {
		t.Fatalf("ICMP mismatch: %+v", q.ICMP)
	}
}

func TestCorruptionDetected(t *testing.T) {
	p := NewTCP(srcA, dstA, 1, 2, FlagSYN, 0, 0, nil)
	b, _ := p.Marshal()
	// Flip a bit in the IP header.
	b[8] ^= 0xff
	if _, err := Parse(b); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("IP corruption not detected: %v", err)
	}
	b2, _ := p.Marshal()
	// Flip a bit in the TCP segment.
	b2[25] ^= 0x01
	if _, err := Parse(b2); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("TCP corruption not detected: %v", err)
	}
}

func TestParseTruncated(t *testing.T) {
	if _, err := Parse([]byte{0x45, 0x00}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	p := NewTCP(srcA, dstA, 1, 2, FlagSYN, 0, 0, nil)
	b, _ := p.Marshal()
	b[0] = 0x65 // version 6
	if _, err := Parse(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
}

func TestTCPOptionsValidation(t *testing.T) {
	p := NewTCP(srcA, dstA, 1, 2, FlagSYN, 0, 0, nil)
	p.TCP.Options = []byte{1, 2, 3} // not multiple of 4
	if _, err := p.Marshal(); err == nil {
		t.Fatal("odd options length accepted")
	}
	p.TCP.Options = bytes.Repeat([]byte{1}, 44) // > 40
	if _, err := p.Marshal(); err == nil {
		t.Fatal("oversized options accepted")
	}
	p.TCP.Options = []byte{2, 4, 0x05, 0xb4} // MSS option
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.TCP.Options, p.TCP.Options) {
		t.Fatal("options round-trip mismatch")
	}
}

func TestPropertyTCPRoundTrip(t *testing.T) {
	f := func(sport, dport uint16, seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := NewTCP(srcA, dstA, sport, dport, TCPFlags(flags), seq, ack, payload)
		p.TCP.Window = win
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Parse(b)
		if err != nil {
			return false
		}
		return q.TCP.SrcPort == sport && q.TCP.DstPort == dport &&
			q.TCP.Seq == seq && q.TCP.Ack == ack &&
			q.TCP.Flags == TCPFlags(flags) && q.TCP.Window == win &&
			bytes.Equal(q.TCP.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyChecksumZero(t *testing.T) {
	// The Internet checksum of any marshalled header must verify to zero.
	f := func(id uint16, ttl uint8, payload []byte) bool {
		if len(payload) > 600 {
			payload = payload[:600]
		}
		p := NewUDP(srcA, dstA, 1234, 5678, payload)
		p.IP.ID = id
		if ttl == 0 {
			ttl = 1
		}
		p.IP.TTL = ttl
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		return checksum(b[:20]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewTCP(srcA, dstA, 1, 2, FlagsPSHACK, 5, 6, []byte{1, 2, 3})
	q := p.Clone()
	q.TCP.Payload[0] = 99
	q.IP.TTL = 1
	if p.TCP.Payload[0] != 1 || p.IP.TTL != 64 {
		t.Fatal("Clone aliases original")
	}
}

func TestFlowKeys(t *testing.T) {
	k := FlowKey4Of(NewTCP(srcA, dstA, 1111, 443, FlagSYN, 0, 0, nil))
	if FlowKey4For(ProtoTCP, srcA, dstA, 1111, 443) != k {
		t.Fatal("FlowKey4For disagrees with FlowKey4Of")
	}
	if FlowKey4For(ProtoTCP, dstA, srcA, 443, 1111) != k {
		t.Fatal("directions canonicalize differently")
	}
	// ICMP shares a portless key.
	e := FlowKey4Of(NewICMPEcho(srcA, dstA, 1, 1))
	if e != FlowKey4For(ProtoICMP, srcA, dstA, 0, 0) || e != FlowKey4Of(NewICMPEcho(srcA, dstA, 2, 7)) {
		t.Fatal("ICMP flow key has ports")
	}
}

func TestFlowCanonicalSameAddr(t *testing.T) {
	a := MustAddr("10.0.0.1")
	if FlowKey4For(ProtoTCP, a, a, 9000, 80) != FlowKey4For(ProtoTCP, a, a, 80, 9000) {
		t.Fatal("same-addr flow canonicalization broken")
	}
}

func TestFlagStrings(t *testing.T) {
	if s := FlagsSYNACK.String(); s != "SYN/ACK" {
		t.Fatalf("SYNACK = %q", s)
	}
	if s := TCPFlags(0).String(); s != "NULL" {
		t.Fatalf("zero flags = %q", s)
	}
	if !FlagsRSTACK.Has(FlagRST) || FlagsRSTACK.Has(FlagSYN) {
		t.Fatal("Has broken")
	}
}

func TestStringSummary(t *testing.T) {
	p := NewTCP(srcA, dstA, 1, 443, FlagSYN, 7, 0, nil)
	s := p.String()
	for _, want := range []string{"10.1.0.2", "203.0.113.10", "SYN", "ttl=64"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func TestMustAddrPanics(t *testing.T) {
	for _, bad := range []string{"nonsense", "2001:db8::1"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MustAddr(%q) did not panic", bad)
				}
			}()
			MustAddr(bad)
		}()
	}
}

func TestRawProtocolRoundTrip(t *testing.T) {
	p := &Packet{
		IP:         IPv4{TTL: 64, Protocol: Protocol(47), Src: srcA, Dst: dstA},
		RawPayload: []byte{0xde, 0xad},
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.RawPayload, p.RawPayload) {
		t.Fatal("raw payload mismatch")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoTCP.String() != "TCP" || ProtoUDP.String() != "UDP" || ProtoICMP.String() != "ICMP" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(99).String() != "proto(99)" {
		t.Fatal("unknown protocol name wrong")
	}
}

func TestCanonicalOrdering(t *testing.T) {
	lo, hi := MustAddr("1.1.1.1"), MustAddr("2.2.2.2")
	k := FlowKey4For(ProtoTCP, hi, lo, 1, 2)
	if src, dst := uint32(k.hi>>32), uint32(k.hi); src != addr4(lo) || dst != addr4(hi) {
		t.Fatalf("canonical did not order addrs: %08x > %08x", src, dst)
	}
	if ports := uint32(k.lo); ports != 2<<16|1 {
		t.Fatalf("canonical ports = %08x, want the lower endpoint's port first", ports)
	}
}
