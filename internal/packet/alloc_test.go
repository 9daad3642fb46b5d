package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

// The allocation budgets pinned here are what the device benchmarks rely on:
// a packet round-tripped through MarshalAppend/ParseInto with recycled
// buffers must not touch the heap, and neither may CloneInto or FlowKey4Of.

func allocTestPacket() *Packet {
	src := MustAddr("10.0.0.2")
	dst := MustAddr("203.0.113.10")
	payload := bytes.Repeat([]byte{0xab}, 1400)
	p := NewTCP(src, dst, 40000, 443, FlagsPSHACK, 1000, 2000, payload)
	p.IP.TTL = 64
	return p
}

func TestMarshalAppendParseIntoRoundTripNoAllocs(t *testing.T) {
	p := allocTestPacket()
	var buf []byte
	scratch := new(Packet)
	// Warm up: grow buf and scratch's transport buffers once.
	var err error
	if buf, err = p.MarshalAppend(buf[:0]); err != nil {
		t.Fatal(err)
	}
	if err := ParseInto(scratch, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		buf, err = p.MarshalAppend(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseInto(scratch, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Marshal/Parse round trip allocates %v/op, want 0", allocs)
	}
	if scratch.TCP == nil || !bytes.Equal(scratch.TCP.Payload, p.TCP.Payload) {
		t.Fatal("round trip corrupted payload")
	}
}

// TestParseIntoMixedProtocolsNoAllocs: one scratch Packet parsing a stream
// that changes protocol packet to packet (TCP with and without payload, UDP,
// ICMP, fragments) keeps each transport header and buffer it has held, so
// once warm a pass over the stream allocates nothing.
func TestParseIntoMixedProtocolsNoAllocs(t *testing.T) {
	src, dst := MustAddr("10.0.0.2"), MustAddr("203.0.113.10")
	data := NewTCP(src, dst, 40000, 8080, FlagsPSHACK, 1, 1, bytes.Repeat([]byte{0xab}, 600))
	frags, err := Fragment(data, 256)
	if err != nil {
		t.Fatal(err)
	}
	pkts := []*Packet{
		NewTCP(src, dst, 40000, 443, FlagSYN, 1, 0, nil),
		NewUDP(src, dst, 40000, 443, bytes.Repeat([]byte{0xcd}, 1200)),
		allocTestPacket(),
		NewICMPEcho(src, dst, 7, 1),
		frags[1],
		NewUDP(src, dst, 40000, 53, []byte("query")),
		frags[2],
		NewTCP(dst, src, 443, 40000, FlagsSYNACK, 1, 2, nil),
	}
	var wires [][]byte
	for _, p := range pkts {
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, b)
	}
	scratch := new(Packet)
	pass := func() {
		for _, b := range wires {
			if err := ParseInto(scratch, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm up: each header and buffer is allocated once
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Fatalf("a mixed-protocol pass through ParseInto allocates %v times, want 0", allocs)
	}
	if scratch.TCP == nil || scratch.TCP.Flags != FlagsSYNACK || scratch.UDP != nil || scratch.RawPayload != nil {
		t.Fatalf("last parse left %v", scratch)
	}
}

// TestSetMethodsReuseHeaders: a packet cycled through SetTCP, SetUDP and
// SetICMP, as a recycled network packet is, stops allocating once it has
// carried each protocol and payload size, and an empty payload is nil.
func TestSetMethodsReuseHeaders(t *testing.T) {
	src, dst := MustAddr("10.0.0.2"), MustAddr("203.0.113.10")
	hello, quic := bytes.Repeat([]byte{0xab}, 500), bytes.Repeat([]byte{0xcd}, 1200)
	p := new(Packet)
	cycle := func() {
		p.SetTCP(src, dst, 1, 2, FlagSYN, 1, 0, nil)
		if p.TCP.Payload != nil || p.UDP != nil {
			t.Fatalf("SetTCP with no payload left %v", p)
		}
		p.SetTCP(src, dst, 1, 2, FlagsPSHACK, 2, 1, hello)
		p.SetUDP(src, dst, 1, 443, quic)
		p.SetICMP(dst, src, ICMPEchoReply, 7, 1, nil)
		p.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a Set cycle allocates %v times, want 0", allocs)
	}
	p.SetUDP(src, dst, 1, 443, quic)
	quic[0] = 0
	if p.UDP.Payload[0] != 0xcd || p.TCP != nil || p.ICMP != nil {
		t.Fatal("SetUDP aliased its payload or left another transport")
	}
}

func TestCloneIntoNoAllocs(t *testing.T) {
	p := allocTestPacket()
	dst := new(Packet)
	p.CloneInto(dst) // warm up: allocate dst's transport struct and slices
	allocs := testing.AllocsPerRun(500, func() {
		p.CloneInto(dst)
	})
	if allocs != 0 {
		t.Fatalf("CloneInto allocates %v/op, want 0", allocs)
	}
	if !bytes.Equal(dst.TCP.Payload, p.TCP.Payload) || dst.TCP.SrcPort != p.TCP.SrcPort {
		t.Fatal("CloneInto corrupted packet")
	}
	// Deep copy: mutating the clone must not touch the original.
	dst.TCP.Payload[0] ^= 0xff
	if p.TCP.Payload[0] == dst.TCP.Payload[0] {
		t.Fatal("CloneInto aliased the payload")
	}
}

func TestCloneIntoPreservesRawPayloadNilness(t *testing.T) {
	p := allocTestPacket()
	dst := new(Packet)
	dst.RawPayload = []byte{1, 2, 3}
	p.CloneInto(dst)
	if dst.RawPayload != nil {
		t.Fatal("CloneInto left stale RawPayload on a nil-RawPayload source")
	}
}

func TestFlowKey4OfNoAllocs(t *testing.T) {
	p := allocTestPacket()
	allocs := testing.AllocsPerRun(500, func() {
		_ = FlowKey4Of(p)
	})
	if allocs != 0 {
		t.Fatalf("FlowKey4Of allocates %v/op, want 0", allocs)
	}
}

// TestFlowKey4Equivalence property-checks that FlowKey4Of partitions
// packets into exactly the classes of an independent reference: two packets
// share a key iff they share a protocol and one's 5-tuple equals the other's
// or its exact reverse. Addresses and ports are drawn from three values each
// on the narrow cases, so equal and reversed tuples occur often, and from
// the full range otherwise.
func TestFlowKey4Equivalence(t *testing.T) {
	type tuple struct {
		udp      bool
		src, dst netip.Addr
		sp, dp   uint16
	}
	mk := func(x tuple) *Packet {
		if x.udp {
			return NewUDP(x.src, x.dst, x.sp, x.dp, nil)
		}
		return NewTCP(x.src, x.dst, x.sp, x.dp, FlagSYN, 1, 0, nil)
	}
	f := func(a1, a2 [4]byte, sp1, dp1, sp2, dp2 uint16, udp1, udp2, narrow bool) bool {
		if narrow {
			a1, a2 = [4]byte{10, 0, 0, a1[3] % 3}, [4]byte{10, 0, 0, a2[3] % 3}
			sp1, dp1, sp2, dp2 = sp1%3, dp1%3, sp2%3, dp2%3
		}
		x := tuple{udp1, netip.AddrFrom4(a1), netip.AddrFrom4(a2), sp1, dp1}
		y := tuple{udp2, netip.AddrFrom4(a2), netip.AddrFrom4(a1), sp2, dp2}
		yRev := tuple{y.udp, y.dst, y.src, y.dp, y.sp}
		sameRef := x == y || x == yRev
		return sameRef == (FlowKey4Of(mk(x)) == FlowKey4Of(mk(y)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowKey4DirectionIndependent pins the canonicalization directly: a
// packet and its reversed twin share a key; distinct flows do not.
func TestFlowKey4DirectionIndependent(t *testing.T) {
	a, b := MustAddr("10.0.0.2"), MustAddr("203.0.113.10")
	fwd := NewTCP(a, b, 40000, 443, FlagSYN, 1, 0, nil)
	rev := NewTCP(b, a, 443, 40000, FlagsSYNACK, 1, 2, nil)
	if FlowKey4Of(fwd) != FlowKey4Of(rev) {
		t.Fatal("two directions of one flow got different keys")
	}
	other := NewTCP(a, b, 40001, 443, FlagSYN, 1, 0, nil)
	if FlowKey4Of(fwd) == FlowKey4Of(other) {
		t.Fatal("distinct flows collided")
	}
	u := NewUDP(a, b, 40000, 443, nil)
	if FlowKey4Of(fwd) == FlowKey4Of(u) {
		t.Fatal("TCP and UDP flows on the same tuple collided")
	}
}
