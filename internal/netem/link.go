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
// is mutated and re-sent by downstream hops the moment Handle returns. The
// retaincheck analyzer in tspu-vet enforces this mechanically: any store of a
// packet-aliasing value that outlives Handle is a diagnostic unless the line
// carries a //tspuvet:retains annotation explaining who owns the copy.
type Middlebox interface {
	Name() string
	Handle(pipe Pipe, pkt *packet.Packet, dir Direction) Action
}

// Pipe lets a middlebox emit packets from its own position on the link and
// schedule work on the virtual clock.
type Pipe interface {
	// Inject sends pkt onward in dir, entering the chain after (for the
	// forward sense of dir) this middlebox, as if the device transmitted it.
	Inject(pkt *packet.Packet, dir Direction)
	// Now returns the current virtual time.
	Now() time.Duration
	// After schedules fn on the virtual clock.
	After(d time.Duration, fn func())
}

// Link is a full-duplex connection between two interfaces with an in-order
// middlebox chain. Chain order is physical, from the A side to the B side:
// packets traveling AtoB traverse index 0 first; BtoA traverse the highest
// index first.
type Link struct {
	net   *Network
	a, b  *Iface
	delay time.Duration
	mbs   []Middlebox
	// pipes holds one pipe per chain position, built at Attach, so a packet
	// crossing the chain allocates nothing. A middlebox may keep its pipe
	// (tspu fragment queues do), so each pointer stays fixed for the link's
	// lifetime.
	pipes []*linkPipe
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

// Delay returns the one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// Attach appends a middlebox to the chain (closest to B among those already
// attached).
func (l *Link) Attach(mb Middlebox) {
	l.pipes = append(l.pipes, &linkPipe{link: l, idx: len(l.mbs)})
	l.mbs = append(l.mbs, mb)
}

// Middleboxes returns the chain in physical order.
func (l *Link) Middleboxes() []Middlebox { return l.mbs }

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
		return
	}
	start := l.entryIndex(dir)
	l.process(pkt, dir, start)
}

// entryIndex returns the first chain index a packet entering the link in dir
// must traverse.
func (l *Link) entryIndex(dir Direction) int {
	if dir == AtoB {
		return 0
	}
	return len(l.mbs) - 1
}

// process runs the chain from index idx (inclusive) in dir and, if the packet
// survives, schedules delivery at the far end.
func (l *Link) process(pkt *packet.Packet, dir Direction, idx int) {
	step := 1
	if dir == BtoA {
		step = -1
	}
	for ; idx >= 0 && idx < len(l.mbs); idx += step {
		if l.mbs[idx].Handle(l.pipes[idx], pkt, dir) == Drop {
			return
		}
	}
	dst := l.b
	if dir == BtoA {
		dst = l.a
	}
	dv := l.net.newDelivery()
	//tspuvet:retains pooled in-flight delivery owns the packet until the propagation timer fires; run clears it before recycling
	dv.link, dv.pkt, dv.dir, dv.dst = l, pkt, dir, dst
	l.net.Sim.After(l.delay, dv.run)
}

// linkPipe implements Pipe for the middlebox at one chain position.
type linkPipe struct {
	link *Link
	idx  int
}

func (p *linkPipe) Inject(pkt *packet.Packet, dir Direction) {
	// AtoB traverses increasing chain indices, BtoA decreasing; in both
	// cases the injected packet enters the chain one position past this
	// middlebox in its direction of travel.
	next := p.idx + 1
	if dir == BtoA {
		next = p.idx - 1
	}
	p.link.process(pkt, dir, next)
}

func (p *linkPipe) Now() time.Duration { return p.link.net.Sim.Now() }

func (p *linkPipe) After(d time.Duration, fn func()) { p.link.net.Sim.After(d, fn) }
