package tspu

import (
	"testing"
	"time"

	"tspusim/internal/hostnet"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
)

// sendFragments pushes pre-built fragments from the lab client with the
// given inter-fragment spacing.
func (l *lab) sendFragments(frags []*packet.Packet, gap time.Duration) {
	for i, f := range frags {
		f := f
		l.sim.After(time.Duration(i)*gap, func() { l.client.Send(f) })
	}
}

func fragmentedSYN(t *testing.T, l *lab, n int, id uint16) []*packet.Packet {
	t.Helper()
	p := packet.NewTCP(l.client.Addr(), l.server.Addr(), 41000, 7547, packet.FlagSYN, 1, 0, nil)
	p.IP.ID = id
	frags, err := packet.FragmentCount(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return frags
}

func TestFragmentsBufferedUntilLast(t *testing.T) {
	l := newLab(t, nil)
	var arrivals []time.Duration
	l.server.Tap(func(p *packet.Packet) { arrivals = append(arrivals, l.sim.Now()) })
	frags := fragmentedSYN(t, l, 3, 900)
	l.sendFragments(frags, 100*time.Millisecond)
	l.sim.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d, want 3 fragments", len(arrivals))
	}
	// All fragments must arrive together (after the last was sent), not
	// spaced by the sending gap.
	if arrivals[2]-arrivals[0] > time.Millisecond {
		t.Fatalf("fragments not released together: %v", arrivals)
	}
	if arrivals[0] < 200*time.Millisecond {
		t.Fatal("fragments released before the last arrived")
	}
}

func TestFragmentsNotReassembled(t *testing.T) {
	l := newLab(t, nil)
	count := 0
	l.server.Tap(func(p *packet.Packet) {
		if p.IsFragment() {
			count++
		}
	})
	frags := fragmentedSYN(t, l, 4, 901)
	l.sendFragments(frags, time.Millisecond)
	l.sim.Run()
	if count != 4 {
		t.Fatalf("server saw %d fragments, want 4 individually forwarded", count)
	}
}

func TestFragmentTTLRewrite(t *testing.T) {
	// Fig. 3: the second fragment is forwarded with the TTL of the first as
	// seen at the device.
	l := newLab(t, nil)
	var ttls []uint8
	l.server.Tap(func(p *packet.Packet) { ttls = append(ttls, p.IP.TTL) })
	frags := fragmentedSYN(t, l, 2, 902)
	frags[0].IP.TTL = 64
	frags[1].IP.TTL = 12 // would survive, but must be rewritten anyway
	l.sendFragments(frags, time.Millisecond)
	l.sim.Run()
	if len(ttls) != 2 {
		t.Fatalf("got %d fragments", len(ttls))
	}
	if ttls[0] != ttls[1] {
		t.Fatalf("TTLs differ after device: %v", ttls)
	}
	// Client→r1 decrements nothing (host send), r1 decrements to 63; device
	// rewrites both to 63; border decrements to 62.
	if ttls[0] != 62 {
		t.Fatalf("TTL = %d, want 62", ttls[0])
	}
}

func TestFragmentTTLRewriteEnablesLocalization(t *testing.T) {
	// A second fragment with TTL just large enough to reach the device gets
	// boosted; with TTL too small it dies en route and the queue times out.
	l := newLab(t, nil)
	received := 0
	l.server.Tap(func(p *packet.Packet) { received++ })

	frags := fragmentedSYN(t, l, 2, 903)
	frags[1].IP.TTL = 2 // reaches device (1 router before it)
	l.sendFragments(frags, time.Millisecond)
	l.sim.Run()
	if received != 2 {
		t.Fatalf("TTL=2 probe: received %d, want both fragments", received)
	}

	received = 0
	frags = fragmentedSYN(t, l, 2, 904)
	frags[1].IP.TTL = 1 // dies at r1
	l.sendFragments(frags, time.Millisecond)
	l.sim.Run()
	if received != 0 {
		t.Fatalf("TTL=1 probe: received %d, want 0", received)
	}
}

func TestFragmentLimit45(t *testing.T) {
	l := newLab(t, nil)
	received := 0
	l.server.Tap(func(p *packet.Packet) { received++ })

	// 45 fragments: accepted and forwarded.
	frags := fragmentedSYN(t, l, 45, 905)
	l.sendFragments(frags, time.Millisecond)
	l.sim.Run()
	if received != 45 {
		t.Fatalf("45-fragment packet: received %d", received)
	}

	// 46 fragments: queue discarded, nothing arrives.
	received = 0
	frags = fragmentedSYN(t, l, 46, 906)
	l.sendFragments(frags, time.Millisecond)
	l.sim.Run()
	if received != 0 {
		t.Fatalf("46-fragment packet: received %d, want 0", received)
	}
}

func TestDuplicateFragmentDiscardsQueue(t *testing.T) {
	l := newLab(t, nil)
	received := 0
	l.server.Tap(func(p *packet.Packet) { received++ })
	frags := fragmentedSYN(t, l, 3, 907)
	seq := []*packet.Packet{frags[0], frags[1].Clone(), frags[1], frags[2]}
	l.sendFragments(seq, time.Millisecond)
	l.sim.Run()
	if received != 0 {
		t.Fatalf("duplicate: received %d, want 0 (RFC 5722 says ignore, TSPU discards)", received)
	}
	if l.device.fragDiscards() == 0 {
		t.Fatal("no discard recorded")
	}
}

func TestOverlappingFragmentDiscardsQueue(t *testing.T) {
	l := newLab(t, nil)
	received := 0
	l.server.Tap(func(p *packet.Packet) { received++ })
	frags := fragmentedSYN(t, l, 3, 908)
	// Craft an overlap: shift the second fragment's offset back by 8.
	overlap := frags[1].Clone()
	overlap.IP.FragOffset -= 8
	seq := []*packet.Packet{frags[0], frags[1], overlap, frags[2]}
	l.sendFragments(seq, time.Millisecond)
	l.sim.Run()
	if received != 0 {
		t.Fatalf("overlap: received %d, want 0", received)
	}
}

func TestFragmentQueueTimeout(t *testing.T) {
	l := newLab(t, nil)
	received := 0
	l.server.Tap(func(p *packet.Packet) { received++ })
	frags := fragmentedSYN(t, l, 3, 909)
	// Send only the first two; the last never arrives.
	l.sendFragments(frags[:2], time.Millisecond)
	l.sim.RunUntil(10 * time.Second)
	if received != 0 {
		t.Fatal("incomplete queue leaked fragments")
	}
	if l.device.PendingFragQueues() != 0 {
		t.Fatal("queue not discarded after 5s timeout")
	}
	// A late completion after the timeout starts a fresh (incomplete) queue.
	l.client.Send(frags[2])
	l.sim.RunUntil(20 * time.Second)
	if received != 0 {
		t.Fatal("stale fragment delivered")
	}
}

func TestFragmentOutOfOrderDelivery(t *testing.T) {
	l := newLab(t, nil)
	var offsets []uint16
	l.server.Tap(func(p *packet.Packet) { offsets = append(offsets, p.IP.FragOffset) })
	frags := fragmentedSYN(t, l, 4, 910)
	seq := []*packet.Packet{frags[2], frags[0], frags[3], frags[1]}
	l.sendFragments(seq, time.Millisecond)
	l.sim.Run()
	if len(offsets) != 4 {
		t.Fatalf("received %d fragments", len(offsets))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			t.Fatalf("fragments forwarded out of offset order: %v", offsets)
		}
	}
}

func TestFragmentedCHEvadesSNIBlocking(t *testing.T) {
	// §8: IP fragmentation bypasses the TSPU because content inspection
	// never sees fragments.
	l := newLab(t, nil)
	var serverConn *hostnet.TCPConn
	l.server.Listen(443, hostnet.ListenOptions{OnConnect: func(c *hostnet.TCPConn) { serverConn = c }})
	conn := l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
	l.sim.Run()
	if conn.State != hostnet.StateEstablished {
		t.Fatal("handshake failed")
	}
	// Build the CH packet manually and fragment it.
	ch := clientHello("facebook.com")
	p := packet.NewTCP(conn.LocalAddr, conn.RemoteAddr, conn.LocalPort, conn.RemotePort,
		packet.FlagsPSHACK, conn.SndNxt, conn.RcvNxt, ch)
	p.IP.ID = l.client.NextIPID()
	frags, err := packet.Fragment(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("CH did not fragment (%d fragments)", len(frags))
	}
	for _, f := range frags {
		l.client.Send(f)
	}
	l.sim.Run()
	if l.device.Stats().Triggers[SNI1] != 0 {
		t.Fatal("fragmented CH triggered SNI blocking")
	}
	if serverConn == nil || serverConn.Segments != 0 {
		// Fragments arrive unreassembled; our mini-TCP does not reassemble
		// either, so the server sees raw fragments, not a data segment.
		// What matters is that they were delivered (not dropped).
	}
	delivered := 0
	for _, r := range l.tspuCap.Delivered() {
		if r.Pkt.IsFragment() {
			delivered++
		}
	}
	if delivered != len(frags) {
		t.Fatalf("delivered %d fragments of %d", delivered, len(frags))
	}
}

func TestFragmentsFromRemoteSideAlsoBuffered(t *testing.T) {
	// §5.3.1: behaviors are observable in either direction.
	l := newLab(t, nil)
	received := 0
	l.client.Tap(func(p *packet.Packet) { received++ })
	p := packet.NewTCP(l.server.Addr(), l.client.Addr(), 443, 41000, packet.FlagSYN, 1, 0, nil)
	p.IP.ID = 911
	frags, err := packet.FragmentCount(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frags {
		f := f
		l.sim.After(time.Duration(i)*time.Millisecond, func() { l.server.Send(f) })
	}
	l.sim.Run()
	if received != 3 {
		t.Fatalf("downstream fragments received = %d", received)
	}
}

func TestFragEngineStatsAndVerdicts(t *testing.T) {
	l := newLab(t, nil)
	frags := fragmentedSYN(t, l, 2, 912)
	l.sendFragments(frags, time.Millisecond)
	l.sim.Run()
	if l.device.fragForwarded() != 1 {
		t.Fatalf("forwarded queues = %d", l.device.fragForwarded())
	}
	if l.device.Stats().FragBuffers != 2 {
		t.Fatalf("FragBuffers = %d", l.device.Stats().FragBuffers)
	}
}

// Verify the middlebox interface contract directly for fragments: Handle
// returns Drop (buffered), never Pass.
func TestFragHandleAlwaysDrops(t *testing.T) {
	l := newLab(t, nil)
	frags := fragmentedSYN(t, l, 2, 913)
	pipe := fakePipe{sim: l.sim}
	if l.device.Handle(pipe, frags[0], netem.AtoB) != netem.Drop {
		t.Fatal("fragment not buffered")
	}
}

type fakePipe struct {
	sim interface{ Now() time.Duration }
}

func (f fakePipe) Inject(pkt *packet.Packet, dir netem.Direction) {}
func (f fakePipe) Now() time.Duration                             { return f.sim.Now() }
func (f fakePipe) After(d time.Duration, fn func())               {}
