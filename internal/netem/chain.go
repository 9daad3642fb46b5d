package netem

import (
	"fmt"
	"time"

	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// ShardedMiddlebox is a Middlebox whose state is split into lanes by
// canonical host pair. A multi-lane Chain calls HandleSharded, passing the
// flow key its caller already computed and the lane that key hashes to.
type ShardedMiddlebox interface {
	Middlebox
	NumLanes() int
	HandleSharded(pipe Pipe, pkt *packet.Packet, dir Direction, key packet.FlowKey4, lane int) Action
}

// Sink receives what leaves a Chain, tagged with the lane it left: the
// packets that survive traversal, and the clock work middleboxes schedule
// through Pipe.After.
type Sink interface {
	Deliver(lane int, pkt *packet.Packet, dir Direction)
	After(lane int, d time.Duration, fn func())
}

// Chain is the one middlebox-chain executor: a Link is a one-lane chain
// calling Handle, the batch engine a multi-lane chain calling HandleSharded.
// AtoB enters position 0 and BtoA the highest position (positions run from
// the A side); a Drop verdict stops traversal; Pipe.Inject re-enters one
// position past the injector in the injected packet's direction; survivors
// and Pipe.After go to the Sink, tagged with their lane.
type Chain struct {
	sim  *sim.Sim
	sink Sink
	// mbs is read at traversal time, so writing its elements rewires a
	// one-lane chain. sharded holds the same middleboxes on a multi-lane
	// chain and is nil on a one-lane chain.
	mbs     []Middlebox
	sharded []ShardedMiddlebox
	// pipes[lane*len(mbs)+pos] is prebuilt, so traversal allocates nothing,
	// and never moves: middleboxes keep pipes (tspu fragment queues do).
	pipes []Pipe
}

// NewChain returns a one-lane chain over mbs delivering to sink.
func NewChain(s *sim.Sim, sink Sink, mbs ...Middlebox) *Chain {
	c := &Chain{sim: s, sink: sink}
	for _, mb := range mbs {
		c.attach(mb)
	}
	return c
}

// NewShardedChain returns a chain over mbs with the given number of lanes,
// delivering to sink. It panics unless every middlebox has that many lanes.
func NewShardedChain[M ShardedMiddlebox](s *sim.Sim, sink Sink, lanes int, mbs []M) *Chain {
	c := &Chain{sim: s, sink: sink}
	for _, mb := range mbs {
		if mb.NumLanes() != lanes {
			panic(fmt.Sprintf("netem: middlebox %q has %d lanes, want %d", mb.Name(), mb.NumLanes(), lanes))
		}
		c.mbs = append(c.mbs, mb)
		c.sharded = append(c.sharded, mb)
	}
	for l := 0; l < lanes; l++ {
		for pos := range mbs {
			c.pipes = append(c.pipes, &chainPipe{c: c, lane: int32(l), pos: int32(pos)})
		}
	}
	return c
}

// attach appends mb to a one-lane chain, closest to the B side.
func (c *Chain) attach(mb Middlebox) {
	c.pipes = append(c.pipes, &chainPipe{c: c, pos: int32(len(c.mbs))})
	c.mbs = append(c.mbs, mb)
}

// Run sends pkt through lane from dir's entry end and reports whether it
// survived. key is pkt's flow key on a multi-lane chain; a one-lane chain
// ignores it.
func (c *Chain) Run(lane int, pkt *packet.Packet, dir Direction, key packet.FlowKey4) Action {
	from := -1
	if dir == BtoA {
		from = len(c.mbs)
	}
	return c.walk(lane, pkt, dir, key, from)
}

// walk runs pkt from one position past from, in dir, to the chain's end.
func (c *Chain) walk(lane int, pkt *packet.Packet, dir Direction, key packet.FlowKey4, from int) Action {
	step := 1
	if dir == BtoA {
		step = -1
	}
	pipes := c.pipes[lane*len(c.mbs):]
	for pos := from + step; pos >= 0 && pos < len(c.mbs); pos += step {
		if c.sharded != nil {
			if c.sharded[pos].HandleSharded(pipes[pos], pkt, dir, key, lane) == Drop {
				return Drop
			}
		} else if c.mbs[pos].Handle(pipes[pos], pkt, dir) == Drop {
			return Drop
		}
	}
	c.sink.Deliver(lane, pkt, dir)
	return Pass
}

// chainPipe is the Pipe of one (lane, position). Middleboxes call it from
// the lane's worker, so its methods are lane entry points.
type chainPipe struct {
	c         *Chain
	lane, pos int32
}

// Inject continues on the injector's lane: an injected packet shares its
// flow's host pair, hence the lane.
func (p *chainPipe) Inject(pkt *packet.Packet, dir Direction) {
	p.c.walk(int(p.lane), pkt, dir, packet.FlowKey4Of(pkt), int(p.pos))
}

func (p *chainPipe) Now() time.Duration { return p.c.sim.Now() }

func (p *chainPipe) After(d time.Duration, fn func()) { p.c.sink.After(int(p.lane), d, fn) }
