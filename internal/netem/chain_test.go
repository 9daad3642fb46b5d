package netem

import (
	"fmt"
	"testing"
	"time"

	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

const testLanes = 4

var (
	chainAddrA = packet.MustAddr("10.0.0.1")
	chainAddrB = packet.MustAddr("10.0.0.2")
)

// chainHarness drives three scripted middleboxes m0, m1, m2 (A side to B
// side) through either a Link or a multi-lane Chain and records what the
// chain did: every Handle call, every survivor, every fired After.
type chainHarness struct {
	t       *testing.T
	sharded bool
	lane    int // the lane the current packet belongs to (multi-lane only)
	trace   []string
	out     []string
	fired   []time.Duration
	run     func(pkt *packet.Packet, dir Direction)
}

// scriptMB is a lane-aware fake. Its action applies to the original packet
// (IP ID 1) only; what it injects carries IP ID 2.
type scriptMB struct {
	h     *chainHarness
	pos   int
	lanes int
	act   string // "", "drop", "fwd", "rev", or "after"
}

func (m *scriptMB) Name() string  { return fmt.Sprintf("m%d", m.pos) }
func (m *scriptMB) NumLanes() int { return m.lanes }

func (m *scriptMB) Handle(p Pipe, pkt *packet.Packet, dir Direction) Action {
	if m.h.sharded {
		m.h.t.Errorf("%s: Handle called on a multi-lane chain", m.Name())
	}
	return m.handle(p, pkt, dir)
}

func (m *scriptMB) HandleSharded(p Pipe, pkt *packet.Packet, dir Direction, key packet.FlowKey4, lane int) Action {
	if !m.h.sharded {
		m.h.t.Errorf("%s: HandleSharded called on a one-lane chain", m.Name())
	}
	if key != packet.FlowKey4Of(pkt) || lane != m.h.lane {
		m.h.t.Errorf("%s: HandleSharded(key %v, lane %d), want key %v on lane %d", m.Name(), key, lane, packet.FlowKey4Of(pkt), m.h.lane)
	}
	return m.handle(p, pkt, dir)
}

func (m *scriptMB) handle(p Pipe, pkt *packet.Packet, dir Direction) Action {
	m.h.trace = append(m.h.trace, fmt.Sprintf("%s %d %v", m.Name(), pkt.IP.ID, dir))
	if pkt.IP.ID != 1 {
		return Pass
	}
	switch m.act {
	case "drop":
		return Drop
	case "fwd": // buffer and re-emit, as a fragment queue release does
		cp := pkt.Clone()
		cp.IP.ID = 2
		p.Inject(cp, dir)
		return Drop
	case "rev": // reply toward the sender, as an injected RST does
		r := pkt.Clone()
		r.IP.ID = 2
		r.IP.Src, r.IP.Dst = r.IP.Dst, r.IP.Src
		r.TCP.SrcPort, r.TCP.DstPort = r.TCP.DstPort, r.TCP.SrcPort
		p.Inject(r, dir.Reverse())
	case "after":
		p.After(5*time.Millisecond, func() { m.h.fired = append(m.h.fired, p.Now()) })
	}
	return Pass
}

func (h *chainHarness) survivor(pkt *packet.Packet, dir Direction) {
	h.out = append(h.out, fmt.Sprintf("%d %v", pkt.IP.ID, dir))
}

func (h *chainHarness) scripted(lanes int, acts map[int]string) []*scriptMB {
	mbs := make([]*scriptMB, 3)
	for i := range mbs {
		mbs[i] = &scriptMB{h: h, pos: i, lanes: lanes, act: acts[i]}
	}
	return mbs
}

// newLinkHarness runs the chain as a Link between two hosts; survivors are
// what the far-end hosts receive.
func newLinkHarness(t *testing.T, acts map[int]string) *chainHarness {
	h := &chainHarness{t: t}
	s := sim.New()
	n := New(s)
	a, b := n.AddHost("a"), n.AddHost("b")
	link := n.Connect(a.AddIface(chainAddrA), b.AddIface(chainAddrB), time.Millisecond)
	for _, m := range h.scripted(1, acts) {
		link.Attach(m)
	}
	a.SetHandler(func(p *packet.Packet) { h.survivor(p, BtoA) })
	b.SetHandler(func(p *packet.Packet) { h.survivor(p, AtoB) })
	h.run = func(pkt *packet.Packet, dir Direction) {
		from := link.A()
		if dir == BtoA {
			from = link.B()
		}
		link.transmit(from, pkt)
		s.Run()
	}
	return h
}

// shardedSink is the multi-lane harness's sink: survivors are recorded
// directly, After goes straight to the simulator, and both must arrive
// tagged with the packet's lane.
type shardedSink struct {
	h *chainHarness
	s *sim.Sim
}

func (k shardedSink) Deliver(lane int, pkt *packet.Packet, dir Direction) {
	if lane != k.h.lane {
		k.h.t.Errorf("survivor left lane %d, want lane %d", lane, k.h.lane)
	}
	k.h.survivor(pkt, dir)
}

func (k shardedSink) After(lane int, d time.Duration, fn func()) {
	if lane != k.h.lane {
		k.h.t.Errorf("After came from lane %d, want lane %d", lane, k.h.lane)
	}
	k.s.After(d, fn)
}

// newShardedHarness runs the chain as a multi-lane Chain, entering each
// packet on the lane its flow key hashes to.
func newShardedHarness(t *testing.T, acts map[int]string) *chainHarness {
	h := &chainHarness{t: t, sharded: true}
	s := sim.New()
	chain := NewShardedChain(s, shardedSink{h: h, s: s}, testLanes, h.scripted(testLanes, acts))
	h.run = func(pkt *packet.Packet, dir Direction) {
		key := packet.FlowKey4Of(pkt)
		h.lane = int(key.PairHash() % testLanes)
		if h.lane == 0 {
			t.Fatal("test addresses hash to lane 0; pick a pair that exercises lane indexing")
		}
		chain.Run(h.lane, pkt, dir, key)
		s.Run()
	}
	return h
}

// TestChainSemantics pins the chain executor's rules — entry order per
// direction, Drop stopping traversal, where forward and reverse injections
// re-enter, and After landing on the virtual clock — once through a Link and
// once through a multi-lane chain.
func TestChainSemantics(t *testing.T) {
	cases := []struct {
		name  string
		dir   Direction
		acts  map[int]string // chain position -> scripted action
		trace []string       // Handle calls: middlebox, IP ID, direction
		out   []string       // survivors: IP ID, direction
		fired []time.Duration
	}{
		{name: "a>b order", dir: AtoB,
			trace: []string{"m0 1 a>b", "m1 1 a>b", "m2 1 a>b"}, out: []string{"1 a>b"}},
		{name: "b>a order", dir: BtoA,
			trace: []string{"m2 1 b>a", "m1 1 b>a", "m0 1 b>a"}, out: []string{"1 b>a"}},
		{name: "drop stops a>b", dir: AtoB, acts: map[int]string{1: "drop"},
			trace: []string{"m0 1 a>b", "m1 1 a>b"}},
		{name: "drop stops b>a", dir: BtoA, acts: map[int]string{1: "drop"},
			trace: []string{"m2 1 b>a", "m1 1 b>a"}},
		{name: "inject forward from first", dir: AtoB, acts: map[int]string{0: "fwd"},
			trace: []string{"m0 1 a>b", "m1 2 a>b", "m2 2 a>b"}, out: []string{"2 a>b"}},
		{name: "inject forward from middle", dir: BtoA, acts: map[int]string{1: "fwd"},
			trace: []string{"m2 1 b>a", "m1 1 b>a", "m0 2 b>a"}, out: []string{"2 b>a"}},
		{name: "inject forward from last", dir: AtoB, acts: map[int]string{2: "fwd"},
			trace: []string{"m0 1 a>b", "m1 1 a>b", "m2 1 a>b"}, out: []string{"2 a>b"}},
		{name: "inject reverse from first", dir: AtoB, acts: map[int]string{0: "rev"},
			trace: []string{"m0 1 a>b", "m1 1 a>b", "m2 1 a>b"}, out: []string{"2 b>a", "1 a>b"}},
		{name: "inject reverse from middle", dir: AtoB, acts: map[int]string{1: "rev"},
			trace: []string{"m0 1 a>b", "m1 1 a>b", "m0 2 b>a", "m2 1 a>b"}, out: []string{"2 b>a", "1 a>b"}},
		{name: "inject reverse from last", dir: AtoB, acts: map[int]string{2: "rev"},
			trace: []string{"m0 1 a>b", "m1 1 a>b", "m2 1 a>b", "m1 2 b>a", "m0 2 b>a"}, out: []string{"2 b>a", "1 a>b"}},
		{name: "inject reverse from first b>a", dir: BtoA, acts: map[int]string{2: "rev"},
			trace: []string{"m2 1 b>a", "m1 1 b>a", "m0 1 b>a"}, out: []string{"2 a>b", "1 b>a"}},
		{name: "after on the virtual clock", dir: AtoB, acts: map[int]string{1: "after"},
			trace: []string{"m0 1 a>b", "m1 1 a>b", "m2 1 a>b"}, out: []string{"1 a>b"},
			fired: []time.Duration{5 * time.Millisecond}},
	}
	harnesses := []struct {
		name string
		new  func(*testing.T, map[int]string) *chainHarness
	}{
		{"link", newLinkHarness},
		{"sharded", newShardedHarness},
	}
	for _, hn := range harnesses {
		for _, tc := range cases {
			t.Run(hn.name+"/"+tc.name, func(t *testing.T) {
				h := hn.new(t, tc.acts)
				src, dst := chainAddrA, chainAddrB
				if tc.dir == BtoA {
					src, dst = dst, src
				}
				pkt := packet.NewTCP(src, dst, 40000, 443, packet.FlagSYN, 1, 0, nil)
				pkt.IP.ID = 1
				h.run(pkt, tc.dir)
				if fmt.Sprint(h.trace) != fmt.Sprint(tc.trace) {
					t.Errorf("Handle calls = %q, want %q", h.trace, tc.trace)
				}
				if fmt.Sprint(h.out) != fmt.Sprint(tc.out) {
					t.Errorf("survivors = %q, want %q", h.out, tc.out)
				}
				if fmt.Sprint(h.fired) != fmt.Sprint(tc.fired) {
					t.Errorf("After fired at %v, want %v", h.fired, tc.fired)
				}
			})
		}
	}
	t.Run("sharded/lane count mismatch panics", func(t *testing.T) {
		defer func() {
			want := `netem: middlebox "m1" has 2 lanes, want 4`
			if r := recover(); r != want {
				t.Fatalf("panic = %v, want %q", r, want)
			}
		}()
		h := &chainHarness{t: t, sharded: true}
		mbs := []*scriptMB{
			{h: h, pos: 0, lanes: testLanes},
			{h: h, pos: 1, lanes: 2},
		}
		NewShardedChain(sim.New(), nil, testLanes, mbs)
	})
}
