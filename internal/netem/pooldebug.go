//go:build pooldebug

package netem

import (
	"net/netip"

	"tspusim/internal/packet"
)

// Retention check (-tags=pooldebug), the runtime check of the retention
// contract (link.go): at every far-end delivery the next hop gets a fresh
// deep copy of the packet, and every released packet (release) — the
// original at a handoff, a packet a link's chain drops or loses, the copy an
// endpoint was handed once its handler returns, and every other end of
// life — is scribbled: struct, transport headers and every payload byte. A
// middlebox, capture or endpoint that kept a pointer into a packet past its
// hop then reads 0xDD garbage instead of the bytes it expected, and a golden
// or a check downstream changes. Releasing a scribbled packet again panics.
// The normal build skips the copies and the scribbling (pooldebug_off.go).
//
// Scribbled packets are parked in a ring and only go to the free list, to
// be reused, once retainRing later packets have been parked. Reusing them at
// once would refill a kept alias with the same packet one hop later and hide
// the fault; parking them keeps the check allocation-free once the ring is
// full.
const retainRing = 32

// retention is the per-network state of the check.
type retention struct {
	ring [retainRing]*packet.Packet
	next int
}

// scribbleAddr marks a scribbled packet's addresses.
var scribbleAddr = netip.AddrFrom4([4]byte{0xDD, 0xDD, 0xDD, 0xDD})

// handoff returns the packet the next hop receives in place of pkt: a deep
// copy into a packet from the free list, after which pkt is released.
func (n *Network) handoff(pkt *packet.Packet) *packet.Packet {
	fresh := n.NewPacket()
	pkt.CloneInto(fresh)
	n.release(pkt)
	return fresh
}

// release scribbles pkt and parks it in the slot of the oldest parked
// packet, which goes to the free list.
func (n *Network) release(pkt *packet.Packet) {
	if pkt.IP.Src == scribbleAddr && pkt.IP.Dst == scribbleAddr {
		panic("netem: packet released twice")
	}
	scribble(pkt)
	r := &n.retention
	if old := r.ring[r.next]; old != nil {
		n.free(old)
	}
	r.ring[r.next] = pkt
	r.next = (r.next + 1) % retainRing
}

// scribble overwrites every field and payload byte of p in place, keeping
// its shape (which transport headers are present, slice lengths), so a
// stale reader sees garbage rather than a nil dereference.
func scribble(p *packet.Packet) {
	p.IP = packet.IPv4{TOS: 0xDD, ID: 0xDDDD, TTL: 0xDD, Protocol: p.IP.Protocol, Src: scribbleAddr, Dst: scribbleAddr}
	if t := p.TCP; t != nil {
		t.SrcPort, t.DstPort, t.Seq, t.Ack = 0xDDDD, 0xDDDD, 0xDDDDDDDD, 0xDDDDDDDD
		t.Flags, t.Window, t.Urgent = 0xDD, 0xDDDD, 0xDDDD
		fill(t.Options)
		fill(t.Payload)
	}
	if u := p.UDP; u != nil {
		u.SrcPort, u.DstPort = 0xDDDD, 0xDDDD
		fill(u.Payload)
	}
	if ic := p.ICMP; ic != nil {
		ic.Type, ic.Code, ic.ID, ic.Seq = 0xDD, 0xDD, 0xDDDD, 0xDDDD
		fill(ic.Payload)
	}
	fill(p.RawPayload)
}

func fill(b []byte) {
	for i := range b {
		b[i] = 0xDD
	}
}
