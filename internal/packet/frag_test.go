package packet

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func bigTCP(n int) *Packet {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	p := NewTCP(srcA, dstA, 40000, 443, FlagsPSHACK, 100, 200, payload)
	p.IP.ID = 4242
	return p
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	p := bigTCP(3000)
	frags, err := Fragment(p, 1400*8/8) // 1400 not multiple of 8
	if err == nil && 1400%8 != 0 {
		t.Fatal("expected error for non-multiple-of-8 mtu")
	}
	frags, err = Fragment(p, 1400-(1400%8))
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("expected multiple fragments, got %d", len(frags))
	}
	for i, f := range frags {
		if (i == len(frags)-1) == f.IP.MF {
			t.Fatalf("fragment %d MF flag wrong", i)
		}
		if f.IP.ID != p.IP.ID {
			t.Fatal("fragment lost IP ID")
		}
	}
	whole, err := Reassemble(frags)
	if err != nil {
		t.Fatal(err)
	}
	if whole.TCP == nil || !bytes.Equal(whole.TCP.Payload, p.TCP.Payload) {
		t.Fatal("reassembled payload mismatch")
	}
	if whole.TCP.Seq != p.TCP.Seq || whole.TCP.Flags != p.TCP.Flags {
		t.Fatal("reassembled header mismatch")
	}
}

func TestFragmentSmallPacketPassthrough(t *testing.T) {
	p := NewTCP(srcA, dstA, 1, 2, FlagSYN, 0, 0, nil)
	frags, err := Fragment(p, 576)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0].IsFragment() {
		t.Fatal("small packet should not be fragmented")
	}
}

func TestFragmentDFRefused(t *testing.T) {
	p := bigTCP(3000)
	p.IP.DF = true
	if _, err := Fragment(p, 1392); err == nil {
		t.Fatal("DF packet fragmented")
	}
}

func TestFragmentCountExact(t *testing.T) {
	for _, n := range []int{2, 3, 10, 45, 46} {
		p := NewTCP(srcA, dstA, 33000, 7547, FlagSYN, 1, 0, nil)
		frags, err := FragmentCount(p, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(frags) != n {
			t.Fatalf("n=%d: got %d fragments", n, len(frags))
		}
		for i, f := range frags {
			if (i == len(frags)-1) == f.IP.MF {
				t.Fatalf("n=%d fragment %d MF wrong", n, i)
			}
			if i > 0 && f.IP.FragOffset%8 != 0 {
				t.Fatalf("n=%d fragment %d offset %d not 8-aligned", n, i, f.IP.FragOffset)
			}
		}
		whole, err := Reassemble(frags)
		if err != nil {
			t.Fatalf("n=%d reassemble: %v", n, err)
		}
		if whole.TCP == nil || !whole.TCP.Flags.Has(FlagSYN) || whole.TCP.DstPort != 7547 {
			t.Fatalf("n=%d reassembled SYN wrong", n)
		}
	}
}

func TestReassembleDetectsGap(t *testing.T) {
	p := bigTCP(4000)
	frags, _ := Fragment(p, 1000-(1000%8))
	missing := append([]*Packet(nil), frags[:1]...)
	missing = append(missing, frags[2:]...)
	if _, err := Reassemble(missing); err == nil {
		t.Fatal("gap not detected")
	}
}

func TestReassembleDetectsMissingLast(t *testing.T) {
	p := bigTCP(4000)
	frags, _ := Fragment(p, 992)
	if _, err := Reassemble(frags[:len(frags)-1]); err == nil {
		t.Fatal("missing last fragment not detected")
	}
}

func TestReassembleDetectsOverlap(t *testing.T) {
	p := bigTCP(4000)
	frags, _ := Fragment(p, 992)
	dup := append([]*Packet(nil), frags...)
	dup = append(dup, frags[1].Clone())
	if _, err := Reassemble(dup); err == nil {
		t.Fatal("duplicate fragment not detected")
	}
}

func TestFragmentsAreWireRealistic(t *testing.T) {
	// Every fragment must marshal and parse as an independent IP packet.
	p := bigTCP(5000)
	frags, _ := Fragment(p, 1480)
	for i, f := range frags {
		b, err := f.Marshal()
		if err != nil {
			t.Fatalf("fragment %d marshal: %v", i, err)
		}
		q, err := Parse(b)
		if err != nil {
			t.Fatalf("fragment %d parse: %v", i, err)
		}
		if q.IP.FragOffset != f.IP.FragOffset || q.IP.MF != f.IP.MF {
			t.Fatalf("fragment %d lost frag fields", i)
		}
	}
}

func TestFirstFragmentKeepsTransportBytes(t *testing.T) {
	// First fragment (offset 0, MF=1) of a TCP packet must start with the
	// TCP header so a DPI can read ports without reassembly.
	p := bigTCP(3000)
	frags, _ := Fragment(p, 1480)
	first := frags[0]
	if !first.IsFirstFragment() {
		t.Fatal("first fragment flags wrong")
	}
	if len(first.RawPayload) < 20 {
		t.Fatal("first fragment too short for TCP header")
	}
	sport := uint16(first.RawPayload[0])<<8 | uint16(first.RawPayload[1])
	dport := uint16(first.RawPayload[2])<<8 | uint16(first.RawPayload[3])
	if sport != 40000 || dport != 443 {
		t.Fatalf("first fragment ports %d>%d", sport, dport)
	}
}

func TestPropertyFragmentReassemble(t *testing.T) {
	f := func(size uint16, mtu8 uint8) bool {
		n := int(size)%4000 + 100
		mtu := (int(mtu8)%180 + 4) * 8 // 32..1464
		p := bigTCP(n)
		frags, err := Fragment(p, mtu)
		if err != nil {
			return false
		}
		whole, err := Reassemble(frags)
		if err != nil {
			return false
		}
		return whole.TCP != nil && bytes.Equal(whole.TCP.Payload, p.TCP.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFragmentCoverage(t *testing.T) {
	// Fragments must partition [0, len) with 8-aligned non-final sizes.
	f := func(size uint16) bool {
		n := int(size)%3000 + 1500
		p := bigTCP(n)
		frags, err := Fragment(p, 512)
		if err != nil {
			return false
		}
		expect := 0
		for i, fr := range frags {
			if int(fr.IP.FragOffset) != expect {
				return false
			}
			if i < len(frags)-1 && len(fr.RawPayload)%8 != 0 {
				return false
			}
			expect += len(fr.RawPayload)
		}
		return expect == 20+len(p.TCP.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// timerQueue is a scheduler for Reassembler.Add that holds every timeout
// until the test fires it.
type timerQueue []func()

func (q *timerQueue) after(_ time.Duration, fn func()) { *q = append(*q, fn) }

// TestReassembler drives the shared reassembler through scripted steps: each
// step adds fragment frag of the case's packet, or, with fire, runs the
// oldest unfired timeout, then checks Add's results and the queue count.
func TestReassembler(t *testing.T) {
	type step struct {
		frag    int
		fire    bool
		whole   bool // Add returns the reassembled packet
		poison  bool // Add reports that this fragment poisoned its queue
		pending int
	}
	for _, tc := range []struct {
		name  string
		limit int
		n     int // fragments of the packet
		steps []step
	}{
		{"out-of-order completion", 0, 4, []step{
			{frag: 3, pending: 1}, {frag: 1, pending: 1}, {frag: 0, pending: 1},
			{frag: 2, whole: true, pending: 0},
		}},
		{"at limit completes", 4, 4, []step{
			{frag: 0, pending: 1}, {frag: 1, pending: 1}, {frag: 2, pending: 1},
			{frag: 3, whole: true, pending: 0},
		}},
		{"over limit poisons until timeout", 4, 5, []step{
			{frag: 0, pending: 1}, {frag: 1, pending: 1}, {frag: 2, pending: 1}, {frag: 3, pending: 1},
			{frag: 4, poison: true, pending: 1},
			{frag: 0, pending: 1}, // a poisoned queue swallows its retransmits
			{fire: true, pending: 0},
			{frag: 0, pending: 1}, {frag: 1, pending: 1}, {frag: 2, pending: 1}, {frag: 3, pending: 1},
		}},
		{"completed queue's timeout spares a newer queue", 0, 3, []step{
			{frag: 0, pending: 1}, {frag: 1, pending: 1}, {frag: 2, whole: true, pending: 0},
			{frag: 1, pending: 1},    // same FragKey, new queue
			{fire: true, pending: 1}, // the completed queue's timer
			{fire: true, pending: 0}, // the new queue's own timer
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := bigTCP(200)
			frags, err := FragmentCount(p, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			r := Reassembler{Limit: tc.limit}
			var timers timerQueue
			fired := 0
			for i, s := range tc.steps {
				var whole *Packet
				var poisoned bool
				if s.fire {
					timers[fired]()
					fired++
				} else {
					whole, poisoned = r.Add(frags[s.frag], timers.after)
				}
				if (whole != nil) != s.whole || poisoned != s.poison || r.Pending() != s.pending {
					t.Fatalf("step %d: whole %v, poisoned %v, pending %d; want %v, %v, %d",
						i, whole != nil, poisoned, r.Pending(), s.whole, s.poison, s.pending)
				}
				if whole != nil && !bytes.Equal(whole.TCP.Payload, p.TCP.Payload) {
					t.Fatalf("step %d: reassembled payload differs from the original", i)
				}
			}
		})
	}
}
