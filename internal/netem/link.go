package netem

import (
	"time"

	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// Direction is the travel direction of a packet over a link, expressed in
// the link's own A→B frame.
//
//tspuvet:closedenum
type Direction int

// Link directions.
const (
	AtoB Direction = iota
	BtoA
)

func (d Direction) String() string {
	if d == AtoB {
		return "a>b"
	}
	return "b>a"
}

// Reverse flips the direction.
func (d Direction) Reverse() Direction {
	if d == AtoB {
		return BtoA
	}
	return AtoB
}

// Action is a middlebox verdict for one packet, in the XDP style.
//
//tspuvet:closedenum
type Action int

// Verdicts.
const (
	// Pass forwards the (possibly mutated) packet onward.
	Pass Action = iota
	// Drop discards the packet. A middlebox that buffered the packet for
	// later release also returns Drop and re-emits via Pipe.Inject.
	Drop
)

// Middlebox is an in-path device attached to a link. Handle is called for
// every packet crossing the link in either direction; the device may mutate
// pkt in place, return a verdict, and inject packets through the pipe now or
// later.
//
// Retention contract (the canonical statement — everything else refers here):
// ownership of a packet is sequential. The same *packet.Packet instance
// traverses every link on the path; whoever holds it at the moment owns it,
// and routers forward it in place rather than copying per hop. A middlebox
// that keeps the packet — or anything aliasing its payload — past its Handle
// return MUST deep-copy first (Clone/CloneInto/Marshal), because the original
// is mutated and re-sent by downstream hops the moment Handle returns; a
// packet the chain drops is dead and may not be kept either. The same holds
// for endpoints: a Handler may not keep a delivered packet, or its payload,
// after it returns. Every end of a packet's life (a Drop, link loss, a
// handler returning, a host that does not forward, TTL expiry, no route)
// puts it on the network's free list, and the next origination
// (Network.NewPacket, Node.Send's copy) refills it. The -tags=pooldebug
// build checks this at run time (make pooldebug): each hop gets a fresh copy
// and every released packet is scribbled before reuse — the original, every
// packet a link drops, the copy a handler was given — so a kept packet reads
// garbage and a golden or a test downstream changes (pooldebug.go).
type Middlebox interface {
	Name() string
	Handle(pipe Pipe, pkt *packet.Packet, dir Direction) Action
}

// Pipe lets a middlebox emit packets from its own position on the link and
// schedule work on the virtual clock.
type Pipe interface {
	// Inject sends pkt onward in dir from this middlebox's chain position,
	// as if the device transmitted it.
	Inject(pkt *packet.Packet, dir Direction)
	// Now returns the current virtual time.
	Now() time.Duration
	// After schedules fn on the virtual clock.
	After(d time.Duration, fn func())
}

// Link is a full-duplex connection between two interfaces with an in-order
// middlebox chain, traversed as Chain describes.
type Link struct {
	net   *Network
	a, b  *Iface
	delay time.Duration
	// pos is the link's position in Network.Links.
	pos int
	// chain is the one-lane middlebox chain; its sink is the link itself
	// (linkSink), which schedules far-end delivery.
	chain Chain
	taps  []*Capture
	// loss drops packets at wire entry with the given probability, driven
	// by a seeded stream so lossy runs stay reproducible. The paper repeats
	// every measurement >5 times precisely because real paths lose packets
	// and routes flap (§3); loss lets tests exercise that methodology.
	loss    float64
	lossRng *sim.Rand
	// Lost counts packets dropped by loss.
	Lost int
}

// SetLoss enables random packet loss on the link (both directions).
func (l *Link) SetLoss(p float64, rng *sim.Rand) {
	l.loss = p
	l.lossRng = rng
}

// A returns the A-side interface.
func (l *Link) A() *Iface { return l.a }

// B returns the B-side interface.
func (l *Link) B() *Iface { return l.b }

// Attach appends a middlebox to the chain (closest to B among those already
// attached).
func (l *Link) Attach(mb Middlebox) { l.chain.attach(mb) }

// Middleboxes returns the live chain in physical order: writing its
// elements rewires the link.
func (l *Link) Middleboxes() []Middlebox { return l.chain.mbs }

// Tap attaches a capture to the link, recording every packet that enters the
// link (before the middlebox chain) and every packet delivered from it.
func (l *Link) Tap(c *Capture) { l.taps = append(l.taps, c) }

// transmit is called by the node owning `from` to put a packet on the wire.
func (l *Link) transmit(from *Iface, pkt *packet.Packet) {
	dir := AtoB
	if from == l.b {
		dir = BtoA
	}
	for _, t := range l.taps {
		t.record(l, pkt, dir, true)
	}
	if l.loss > 0 && l.lossRng != nil && l.lossRng.Bool(l.loss) {
		l.Lost++
		l.net.release(pkt)
		return
	}
	if l.chain.Run(0, pkt, dir, packet.FlowKey4{}) == Drop {
		l.net.release(pkt)
	}
}

// linkSink is a Link in its role as the sink of its own chain.
type linkSink Link

// Deliver schedules a chain survivor's arrival at the far end.
func (s *linkSink) Deliver(_ int, pkt *packet.Packet, dir Direction) {
	l := (*Link)(s)
	dst := l.b
	if dir == BtoA {
		dst = l.a
	}
	dv := l.net.newDelivery()
	// The pooled in-flight delivery owns the packet until the propagation
	// timer fires; fire clears it before recycling.
	dv.link, dv.pkt, dv.dir, dv.dst = l, pkt, dir, dst
	l.net.Sim.After(l.delay, dv.run)
}

func (s *linkSink) After(_ int, d time.Duration, fn func()) { s.net.Sim.After(d, fn) }
