package engine

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/tspu"
)

// The engine's contract is byte-equivalence: batching, sharding, and worker
// fan-out are performance structure, not behavior. Every test here drives
// the same seeded trace through the batch pipeline and a sequential
// reference and requires identical verdicts, wire bytes, and survivors.

var (
	testLocal   = packet.MustAddr("10.0.0.2")
	testBlocked = packet.MustAddr("198.51.100.7")
)

func testRemotes() []netip.Addr {
	remotes := make([]netip.Addr, 0, 16)
	for i := 1; i <= 16; i++ {
		remotes = append(remotes, packet.MustAddr(fmt.Sprintf("203.0.113.%d", i)))
	}
	return remotes
}

// testStream covers the datapath branches across many host pairs, so
// packets spread over all lanes. Fragment pairs come complete (released
// through Pipe.Inject) and incomplete (left queued).
func testStream(seed uint64, n int) []*packet.Packet {
	rng := sim.NewRand(seed)
	fragID := uint16(0)
	remotes := testRemotes()
	snis := []string{
		"facebook.com", "api.twitter.com", "TWITTER.COM",
		"play.google.com", "fbcdn.net", "meduza.io", "example.org", "",
	}
	pkts := make([]*packet.Packet, 0, n)
	for len(pkts) < n {
		remote := remotes[rng.Intn(len(remotes))]
		sport := uint16(20000 + rng.Intn(32))
		switch rng.Intn(10) {
		case 0:
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagSYN, 1, 0, nil))
		case 1:
			pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagsSYNACK, 1, 2, nil))
		case 2:
			spec := &tlsx.ClientHelloSpec{ServerName: snis[rng.Intn(len(snis))]}
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2, 2, spec.Build()))
		case 3:
			soup := make([]byte, 1+rng.Intn(512))
			for i := range soup {
				soup[i] = byte(rng.Uint64())
			}
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2, 2, soup))
		case 4:
			pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagsPSHACK, 9, 9, []byte("HTTP/1.1 200 OK")))
		case 5:
			pay := make([]byte, 1200)
			pay[0] = 0xc0
			for i := 1; i < 16; i++ {
				pay[i] = byte(rng.Uint64())
			}
			pkts = append(pkts, packet.NewUDP(testLocal, remote, sport, 443, pay))
		case 6:
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 9, 9, make([]byte, rng.Intn(1400))))
		case 7:
			pkts = append(pkts, packet.NewTCP(testLocal, testBlocked, sport, 443, packet.FlagSYN, 1, 0, nil))
		case 8:
			if rng.Bool(0.5) {
				pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagACK, 5, 5, nil))
			} else {
				pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagSYN, 5, 0, nil))
			}
		case 9:
			var p *packet.Packet
			if rng.Bool(0.5) {
				spec := &tlsx.ClientHelloSpec{ServerName: snis[rng.Intn(len(snis))]}
				p = packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2, 2, spec.Build())
			} else {
				p = packet.NewTCP(remote, testLocal, 443, sport, packet.FlagsPSHACK, 9, 9, []byte("HTTP/1.1 200 OK"))
			}
			fragID++
			p.IP.ID = fragID
			frags, err := packet.FragmentCount(p, 2)
			if err != nil {
				panic(err)
			}
			if rng.Bool(0.25) {
				frags = frags[rng.Intn(2):][:1]
			}
			pkts = append(pkts, frags...)
		}
	}
	return pkts
}

func testDir(p *packet.Packet) netem.Direction {
	if p.IP.Src == testLocal {
		return netem.AtoB
	}
	return netem.BtoA
}

// testDevice builds a per-flow-random device: random outcomes depend only on
// flow identity, which is what makes batch order irrelevant.
func testDevice(s *sim.Sim, name string, shards int, flowSeed uint64) *tspu.Device {
	d := tspu.NewDevice(tspu.Config{
		Name:        name,
		Sim:         s,
		LocalDir:    netem.AtoB,
		Shards:      shards,
		PerFlowRand: true,
		FlowSeed:    flowSeed,
		FailureRates: map[tspu.BlockType]float64{
			tspu.SNI1: 0.05, tspu.SNI2: 0.05, tspu.SNI4: 0.03, tspu.QUICBlock: 0.06, tspu.IPBlock: 0.02,
		},
	})
	ctl := tspu.NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *tspu.Policy) {
		p.SNI1Domains.Add("facebook.com", "twitter.com", "meduza.io")
		p.SNI2Domains.Add("play.google.com")
		p.SNI4Domains.Add("twitter.com", "fbcdn.net")
		p.BlockedIPs[testBlocked] = true
	})
	return d
}

// trace is one run's observable output: the per-item verdict+wire log in
// push order, and the chain survivors grouped per flow — the engine flushes
// survivors in lane order, so only each flow's own order is fixed.
type trace struct {
	log []string
	out map[packet.FlowKey4][]string
	// frags counts surviving fragments, which only released queues produce.
	frags int
}

func newTrace() *trace { return &trace{out: map[packet.FlowKey4][]string{}} }

func (tr *trace) deliver(pkt *packet.Packet, dir netem.Direction) {
	if pkt.IsFragment() {
		tr.frags++
	}
	wire, _ := pkt.Marshal()
	k := packet.FlowKey4Of(pkt)
	tr.out[k] = append(tr.out[k], fmt.Sprintf("%v %x", dir, wire))
}

func (tr *trace) verdict(act netem.Action, pkt *packet.Packet) {
	wire, _ := pkt.Marshal()
	tr.log = append(tr.log, fmt.Sprintf("%v %x", act, wire))
}

// directSink is the sequential reference's chain sink, configured as a
// Link's: scheduling goes straight to the simulator and survivors are
// recorded as they leave the chain.
type directSink struct {
	s  *sim.Sim
	tr *trace
}

func (d directSink) Deliver(_ int, pkt *packet.Packet, dir netem.Direction) { d.tr.deliver(pkt, dir) }
func (d directSink) After(_ int, dt time.Duration, fn func())               { d.s.After(dt, fn) }

// runSequential produces the reference trace: the devices as a one-lane
// netem chain, one packet at a time through Device.Handle.
func runSequential(devs []*tspu.Device, s *sim.Sim, stream []*packet.Packet) *trace {
	tr := newTrace()
	mbs := make([]netem.Middlebox, len(devs))
	for i, d := range devs {
		mbs[i] = d
	}
	chain := netem.NewChain(s, directSink{s: s, tr: tr}, mbs...)
	for _, src := range stream {
		p := src.Clone()
		tr.verdict(chain.Run(0, p, testDir(p), packet.FlowKey4{}), p)
	}
	return tr
}

// runBatched produces the engine trace, processing in batches of batchSize.
func runBatched(cfg Config, stream []*packet.Packet, batchSize int) *trace {
	tr := newTrace()
	cfg.Deliver = tr.deliver
	e := New(cfg)
	flush := func() {
		for _, it := range e.Process() {
			tr.verdict(it.Verdict, it.Pkt)
		}
	}
	queued := 0
	for _, src := range stream {
		p := src.Clone()
		if !e.Push(p, testDir(p)) {
			flush()
			queued = 0
			e.Push(p, testDir(p))
		}
		queued++
		if queued == batchSize {
			flush()
			queued = 0
		}
	}
	flush()
	return tr
}

func compareTraces(t *testing.T, label string, ref, got *trace) {
	t.Helper()
	if len(ref.log) != len(got.log) {
		t.Fatalf("%s: %d reference packets, %d engine packets", label, len(ref.log), len(got.log))
	}
	for i := range ref.log {
		if ref.log[i] != got.log[i] {
			t.Fatalf("%s: packet %d diverged:\nsequential: %s\nbatched:    %s", label, i, ref.log[i], got.log[i])
		}
	}
	if len(ref.out) != len(got.out) {
		t.Fatalf("%s: survivors in %d reference flows, %d engine flows", label, len(ref.out), len(got.out))
	}
	for k, want := range ref.out {
		have := got.out[k]
		if len(have) != len(want) {
			t.Fatalf("%s: flow %v: %d reference survivors, %d engine survivors", label, k, len(want), len(have))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s: flow %v survivor %d diverged:\nsequential: %s\nbatched:    %s", label, k, i, want[i], have[i])
			}
		}
	}
}

// TestBatchSequentialEquivalence is the core property: the batch pipeline is
// byte-equivalent to packet-at-a-time Device.Handle, across batch sizes.
func TestBatchSequentialEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, batchSize := range []int{1, 7, 64, 512} {
			stream := testStream(seed, 1500)
			seqSim := sim.New()
			seqDev := testDevice(seqSim, "seq", 8, seed)
			ref := runSequential([]*tspu.Device{seqDev}, seqSim, stream)
			if ref.frags == 0 || seqDev.PendingFragQueues() == 0 {
				t.Fatalf("seed=%d: %d fragments released, %d queues left open; the stream must do both", seed, ref.frags, seqDev.PendingFragQueues())
			}

			batSim := sim.New()
			batDev := testDevice(batSim, "bat", 8, seed)
			got := runBatched(Config{Sim: batSim, Devices: []*tspu.Device{batDev}}, stream, batchSize)
			compareTraces(t, fmt.Sprintf("seed=%d batch=%d", seed, batchSize), ref, got)
		}
	}
}

// TestMultiDeviceChainEquivalence runs a two-TSPU chain (the asymmetric
// multi-device path of §7) batched vs sequential, including direction-
// dependent traversal order.
func TestMultiDeviceChainEquivalence(t *testing.T) {
	stream := testStream(11, 1500)
	seqSim := sim.New()
	seqDevs := []*tspu.Device{
		testDevice(seqSim, "edge", 4, 100),
		testDevice(seqSim, "core", 4, 200),
	}
	ref := runSequential(seqDevs, seqSim, stream)

	batSim := sim.New()
	batDevs := []*tspu.Device{
		testDevice(batSim, "edge", 4, 100),
		testDevice(batSim, "core", 4, 200),
	}
	got := runBatched(Config{Sim: batSim, Devices: batDevs}, stream, 64)
	compareTraces(t, "two-device chain", ref, got)
}

// TestWorkerCountDeterminism pins that the worker count changes wall-clock
// structure only: 1, 2, and 8 workers produce one verdict stream. Run under
// -race this also exercises the lane-disjointness claim.
func TestWorkerCountDeterminism(t *testing.T) {
	stream := testStream(5, 2000)
	var ref *trace
	for _, workers := range []int{1, 2, 8} {
		s := sim.New()
		d := testDevice(s, "w", 8, 5)
		got := runBatched(Config{Sim: s, Devices: []*tspu.Device{d}, Workers: workers}, stream, 256)
		if ref == nil {
			ref = got
			continue
		}
		compareTraces(t, fmt.Sprintf("workers=%d", workers), ref, got)
	}
}

// TestEngineMultiWorkerRace forces Workers well past 1 with a stream large
// enough for the race detector to see real lane interleaving; the verdict
// stream must still match the single-worker reference. Under -race (make
// race-lanes) it checks the lane-isolation contract of the datapath
// testStream drives; TestEngineLaneBranchesRace covers the other branches.
func TestEngineMultiWorkerRace(t *testing.T) {
	stream := testStream(7, 4000)
	var ref *trace
	for _, workers := range []int{1, 8} {
		s := sim.New()
		d := testDevice(s, "mw", 8, 7)
		got := runBatched(Config{Sim: s, Devices: []*tspu.Device{d}, Workers: workers}, stream, 256)
		if ref == nil {
			ref = got
			continue
		}
		compareTraces(t, fmt.Sprintf("workers=%d", workers), ref, got)
	}
}

// TestShardCountDeterminism pins that lane count is invisible in behavior.
func TestShardCountDeterminism(t *testing.T) {
	stream := testStream(6, 2000)
	var ref *trace
	for _, shards := range []int{1, 4, 8} {
		s := sim.New()
		d := testDevice(s, "s", shards, 6)
		got := runBatched(Config{Sim: s, Devices: []*tspu.Device{d}}, stream, 256)
		if ref == nil {
			ref = got
			continue
		}
		compareTraces(t, fmt.Sprintf("shards=%d", shards), ref, got)
	}
}

// TestFragmentReleaseAndTimeout exercises the buffered Pipe: fragment
// queues fill across batches, the completed queue re-enters the chain via
// Inject and reaches Deliver with rewritten TTLs, and the timeout scheduled
// through the buffered After discards an incomplete queue when the engine
// advances the clock.
func TestFragmentReleaseAndTimeout(t *testing.T) {
	s := sim.New()
	d := testDevice(s, "frag", 4, 9)
	var delivered []*packet.Packet
	e := New(Config{
		Sim:     s,
		Devices: []*tspu.Device{d},
		Deliver: func(pkt *packet.Packet, dir netem.Direction) { delivered = append(delivered, pkt) },
	})

	mk := func(id uint16, ttl0, ttl1 uint8) []*packet.Packet {
		p := packet.NewTCP(testLocal, packet.MustAddr("203.0.113.9"), 41000, 7547, packet.FlagSYN, 1, 0, nil)
		p.IP.ID = id
		frags, err := packet.FragmentCount(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		frags[0].IP.TTL = ttl0
		frags[1].IP.TTL = ttl1
		return frags
	}

	// Complete queue: both fragments delivered together, TTLs equalized.
	frags := mk(900, 64, 12)
	e.Push(frags[0], netem.AtoB)
	for _, it := range e.Process() {
		if it.Verdict != netem.Drop {
			t.Fatalf("buffered fragment verdict = %v, want Drop", it.Verdict)
		}
	}
	if len(delivered) != 0 {
		t.Fatal("fragments released before the queue completed")
	}
	e.Push(frags[1], netem.AtoB)
	e.Process()
	if len(delivered) != 2 {
		t.Fatalf("delivered %d fragments, want 2", len(delivered))
	}
	if delivered[0].IP.TTL != delivered[1].IP.TTL || delivered[0].IP.TTL != 64 {
		t.Fatalf("TTLs after release: %d, %d — want both 64 (first fragment's)", delivered[0].IP.TTL, delivered[1].IP.TTL)
	}

	// Incomplete queue: discarded by the timeout flushed through the
	// buffered pipe once the clock advances past the 5 s fragment timeout.
	delivered = delivered[:0]
	frags = mk(901, 64, 64)
	e.Push(frags[0], netem.AtoB)
	e.Process()
	if d.PendingFragQueues() != 1 {
		t.Fatalf("open fragment queues = %d, want 1", d.PendingFragQueues())
	}
	e.Advance(10*time.Second, 0)
	if d.PendingFragQueues() != 0 {
		t.Fatalf("fragment queue survived its timeout: %d open", d.PendingFragQueues())
	}
	if len(delivered) != 0 {
		t.Fatal("incomplete queue delivered fragments")
	}
}

// TestPushRingFull pins the backpressure contract.
func TestPushRingFull(t *testing.T) {
	s := sim.New()
	d := testDevice(s, "ring", 1, 1)
	e := New(Config{Sim: s, Devices: []*tspu.Device{d}, BatchSize: 4})
	p := packet.NewTCP(testLocal, packet.MustAddr("203.0.113.1"), 40000, 443, packet.FlagSYN, 1, 0, nil)
	for i := 0; i < 4; i++ {
		if !e.Push(p.Clone(), netem.AtoB) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if e.Push(p.Clone(), netem.AtoB) {
		t.Fatal("push accepted beyond capacity")
	}
	if got := len(e.Process()); got != 4 {
		t.Fatalf("processed %d, want 4", got)
	}
	if !e.Push(p.Clone(), netem.AtoB) {
		t.Fatal("push refused after Process drained the ring")
	}
}

// TestProcessSteadyStateDoesNotAllocate pins the engine's own per-batch
// bookkeeping (scatter queues, pipes, counters) and the device datapath into
// the zero-allocation contract, over warmed flows that pass: upstream data,
// ClientHellos for unlisted names, non-QUIC UDP on port 443 and downstream
// data. The names are longer than the 32-byte stack buffer the compiler gives
// a non-escaping string conversion or concatenation, so such an allocation on
// the SNI path fails here rather than hiding below the buffer size.
func TestProcessSteadyStateDoesNotAllocate(t *testing.T) {
	s := sim.New()
	d := testDevice(s, "alloc", 8, 3)
	e := New(Config{Sim: s, Devices: []*tspu.Device{d}, BatchSize: 64})
	remotes := testRemotes()
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		remote, sport := remotes[i%len(remotes)], uint16(20000+i)
		switch i % 4 {
		case 0:
			pkts[i] = packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 9, 9, []byte("not a client hello, just bytes"))
		case 1:
			spec := &tlsx.ClientHelloSpec{ServerName: fmt.Sprintf("STATIC.XX.CDN-EDGE-%04d.IMAGES.EXAMPLE.ORG", i)}
			pkts[i] = packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2, 2, spec.Build())
		case 2:
			pkts[i] = packet.NewUDP(testLocal, remote, sport, 443, make([]byte, 1200))
		case 3:
			pkts[i] = packet.NewTCP(remote, testLocal, 443, sport, packet.FlagsPSHACK, 9, 9, []byte("HTTP/1.1 200 OK"))
		}
	}
	run := func() {
		for _, p := range pkts {
			e.Push(p, testDir(p))
		}
		for _, it := range e.Process() {
			if it.Verdict != netem.Pass {
				t.Fatalf("verdict %v for %v, want every packet to pass", it.Verdict, packet.FlowKey4Of(it.Pkt))
			}
		}
	}
	for i := 0; i < 16; i++ {
		run() // warm flow entries, lane queues, and pools
	}
	if allocs := testing.AllocsPerRun(300, run); allocs != 0 {
		t.Fatalf("steady-state Process allocates %v/op, want 0", allocs)
	}
}

// laneBranchDevice is testDevice with every optional lane branch switched
// on: SNI-III throttling, datapath-piggybacked sweeps, a bounded flow table
// (pressure evictions), and, when reassemble is set, per-lane TCP
// reassembly with strict roles.
func laneBranchDevice(s *sim.Sim, name string, flowSeed uint64, reassemble bool) *tspu.Device {
	d := tspu.NewDevice(tspu.Config{
		Name:          name,
		Sim:           s,
		LocalDir:      netem.AtoB,
		Shards:        8,
		PerFlowRand:   true,
		FlowSeed:      flowSeed,
		ReassembleTCP: reassemble,
		StrictRoles:   reassemble,
		FailureRates: map[tspu.BlockType]float64{
			tspu.SNI1: 0.05, tspu.SNI2: 0.05, tspu.SNI3: 0.05, tspu.SNI4: 0.03, tspu.QUICBlock: 0.06, tspu.IPBlock: 0.02,
		},
	})
	ctl := tspu.NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *tspu.Policy) {
		p.SNI1Domains.Add("facebook.com", "meduza.io")
		p.SNI2Domains.Add("play.google.com")
		p.SNI4Domains.Add("fbcdn.net")
		p.ThrottleDomains.Add("twitter.com")
		p.ThrottleActive = true
		p.BlockedIPs[testBlocked] = true
	})
	d.EnableAutoSweep(time.Second)
	d.SetMaxFlows(256)
	return d
}

// laneBranchStream is testStream plus the packets that reach the lane
// branches testStream does not: ICMP (passed, and dropped for a blocked
// address), response-shaped packets to a blocked address (rewritten),
// connections from a blocked address (let through), and ClientHellos split
// over two segments (reassembled) and followed by bulk data (throttled).
func laneBranchStream(seed uint64, n int) []*packet.Packet {
	rng := sim.NewRand(seed ^ 0x1a4e)
	remotes := testRemotes()
	base := testStream(seed, n)
	pkts := make([]*packet.Packet, 0, 2*n)
	for i, p := range base {
		pkts = append(pkts, p)
		if i%2 == 1 {
			continue
		}
		remote := remotes[rng.Intn(len(remotes))]
		sport := uint16(20000 + rng.Intn(32))
		switch rng.Intn(5) {
		case 0:
			pkts = append(pkts, packet.NewICMPEcho(testLocal, remote, sport, 1))
		case 1:
			pkts = append(pkts, packet.NewICMPEcho(testLocal, testBlocked, sport, 1))
		case 2:
			pkts = append(pkts, packet.NewTCP(testLocal, testBlocked, sport, 443, packet.FlagsPSHACK, 9, 9, []byte("reply")))
		case 3:
			pkts = append(pkts, packet.NewTCP(testBlocked, testLocal, 443, sport, packet.FlagSYN, 1, 0, nil))
		case 4:
			ch := (&tlsx.ClientHelloSpec{ServerName: []string{"twitter.com", "facebook.com", "example.org"}[rng.Intn(3)]}).Build()
			cut := 1 + rng.Intn(len(ch)-1)
			seq := 2 + uint32(len(ch))
			pkts = append(pkts,
				packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2, 2, ch[:cut:cut]),
				packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2+uint32(cut), 2, ch[cut:]),
				// Two full segments overrun a throttled flow's burst.
				packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, seq, 2, make([]byte, 1200)),
				packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, seq+1200, 2, make([]byte, 1200)))
		}
	}
	return pkts
}

// TestEngineLaneBranchesRace is the race-lanes driver for the lane branches
// the other engine tests leave cold: it runs laneBranchStream through a
// two-device chain of laneBranchDevices at 1 and 8 workers, advancing the
// clock between batches so sweeps and fragment timeouts fire, and requires
// one verdict stream. Under -race a lane touching another lane's state or a
// shared word shows up as a data race. The branch counters checked at the
// end keep the stream honest about what it drives.
func TestEngineLaneBranchesRace(t *testing.T) {
	stream := laneBranchStream(13, 3000)
	var ref *trace
	for _, workers := range []int{1, 8} {
		s := sim.New()
		devs := []*tspu.Device{laneBranchDevice(s, "edge", 13, false), laneBranchDevice(s, "reasm", 14, true)}
		tr := newTrace()
		e := New(Config{Sim: s, Devices: devs, Workers: workers, BatchSize: 128, Deliver: tr.deliver})
		for start := 0; start < len(stream); start += 128 {
			for _, src := range stream[start:min(start+128, len(stream))] {
				p := src.Clone()
				e.Push(p, testDir(p))
			}
			for _, it := range e.Process() {
				tr.verdict(it.Verdict, it.Pkt)
			}
			s.RunUntil(s.Now() + 10*time.Second)
		}
		if ref == nil {
			ref = tr
			edge, reasm := devs[0].Stats(), devs[1].Stats()
			switch {
			case edge.Throttled == 0 || edge.Rewritten == 0 || edge.Triggers[tspu.IPBlock] == 0:
				t.Fatalf("edge device: throttled %d, rewritten %d, IP triggers %d; want all nonzero", edge.Throttled, edge.Rewritten, edge.Triggers[tspu.IPBlock])
			case reasm.Triggers[tspu.SNI1] == 0:
				t.Fatal("reassembling device never triggered SNI-I")
			case devs[0].PressureEvictions() == 0 || devs[0].ConntrackEvictions() == 0:
				t.Fatalf("pressure evictions %d, timeout evictions %d; want both nonzero", devs[0].PressureEvictions(), devs[0].ConntrackEvictions())
			}
			continue
		}
		compareTraces(t, fmt.Sprintf("workers=%d", workers), ref, tr)
	}
}
