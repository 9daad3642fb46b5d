package main

import (
	"fmt"
	"math"
	"net/netip"
	"os"
	"time"

	"tspusim/internal/engine"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/quicx"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/tspu"
)

// line-rate replays a seeded wire-byte corpus pass after pass: every packet
// is parsed with packet.ParseInto into a reusable slot and pushed through the
// engine, and the virtual clock steps at each batch boundary. The op is one
// packet. Each pass ends by ageing every flow out, so passes are equal work.
const (
	corpusFlows = 24000
	activeFlows = 4096 // flows interleaved at any point of the corpus
	passVirtual = 60 * time.Second
	// passPeriod is the virtual time between pass starts; it exceeds every
	// conntrack and block lifetime after a pass's last packet.
	passPeriod  = 1200 * time.Second
	probeSample = 8192    // corpus packets the unit-cost probes use
	probeCalls  = 1 << 20 // calls each probe times
)

// corpus is the line-rate input: wire bytes of every packet, back to back.
type corpus struct {
	wire []byte
	ends []int32 // packet i ends at ends[i]
	dirs []netem.Direction
	// Packets bound for the device's slow paths: ClientHellos, QUIC long
	// headers and IP fragments.
	hellos, quic, frags int
	// sniCandidates are upstream TCP/443 packets with payload, the packets
	// the device parses for an SNI.
	sniCandidates int
}

func (c *corpus) len() int { return len(c.ends) }

func (c *corpus) packet(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.wire[start:c.ends[i]]
}

func (c *corpus) slowPathShare() float64 {
	return float64(c.hellos+c.quic+c.frags) / float64(c.len())
}

// flowScript is one flow's packets in order.
type flowScript struct {
	pkts []*packet.Packet
	dirs []netem.Direction
	pos  int
}

func (f *flowScript) add(p *packet.Packet, dir netem.Direction) {
	f.pkts = append(f.pkts, p)
	f.dirs = append(f.dirs, dir)
}

// genCorpus generates the corpus from seed: corpusFlows flows, activeFlows
// of them interleaved at a time in a seeded random order.
func genCorpus(seed uint64, bl *blocklist) (*corpus, error) {
	r := sim.NewRand(sim.StreamSeed(seed, "perfbench/line-rate"))
	c := &corpus{}
	active := make([]*flowScript, 0, activeFlows)
	for next := 0; next < corpusFlows || len(active) > 0; {
		for len(active) < activeFlows && next < corpusFlows {
			f, err := genFlow(r, bl, next)
			if err != nil {
				return nil, fmt.Errorf("flow %d: %w", next, err)
			}
			active = append(active, f)
			next++
		}
		k := r.Intn(len(active))
		f := active[k]
		p, dir := f.pkts[f.pos], f.dirs[f.pos]
		if f.pos++; f.pos == len(f.pkts) {
			active[k] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		var err error
		if c.wire, err = p.MarshalAppend(c.wire); err != nil {
			return nil, err
		}
		c.ends = append(c.ends, int32(len(c.wire)))
		c.dirs = append(c.dirs, dir)
		switch {
		case p.IsFragment():
			c.frags++
		case p.UDP != nil && p.UDP.DstPort == 443 && quicx.Version(p.UDP.Payload) != 0:
			c.quic++
		case p.TCP != nil && dir == netem.AtoB && p.TCP.DstPort == 443 && len(p.TCP.Payload) > 0:
			c.sniCandidates++
			if _, ok := tlsx.ExtractSNI(p.TCP.Payload); ok {
				c.hellos++
			}
		}
	}
	return c, nil
}

// genFlow scripts flow i. Shares of flows: 80% TLS to port 443 (a
// ClientHello whose SNI is a registry name one time in five, else a Tranco
// name), 12% HTTP, 4% QUIC (half v1, which the filter blocks), 3% a TCP
// segment sent as IP fragments, 1% SYNs to a blocked IP. Data packets are
// mostly minimum size. These shares are assumptions, not measurements: no
// source gives a traffic mix at a TSPU, and the only constraint they meet is
// that about 10% of packets are ClientHellos.
func genFlow(r *sim.Rand, bl *blocklist, i int) (*flowScript, error) {
	client := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	server := netip.AddrFrom4([4]byte{198, 18, byte(r.Intn(256)), byte(1 + r.Intn(254))})
	sport := uint16(20000 + r.Intn(40000))
	f := &flowScript{}
	handshake := func(dport uint16) {
		f.add(packet.NewTCP(client, server, sport, dport, packet.FlagSYN, 1000, 0, nil), netem.AtoB)
		f.add(packet.NewTCP(server, client, dport, sport, packet.FlagsSYNACK, 5000, 1001, nil), netem.BtoA)
		f.add(packet.NewTCP(client, server, sport, dport, packet.FlagACK, 1001, 5001, nil), netem.AtoB)
	}
	tcp := func(dport uint16, first []byte) {
		handshake(dport)
		f.add(packet.NewTCP(client, server, sport, dport, packet.FlagsPSHACK, 1001, 5001, first), netem.AtoB)
		seq, ack := uint32(5001), uint32(1001+len(first))
		for n := 1 + r.Intn(3); n > 0; n-- {
			data := make([]byte, r.Intn(48))
			f.add(packet.NewTCP(server, client, dport, sport, packet.FlagsPSHACK, seq, ack, data), netem.BtoA)
			seq += uint32(len(data))
			f.add(packet.NewTCP(client, server, sport, dport, packet.FlagACK, ack, seq, nil), netem.AtoB)
		}
	}
	switch x := r.Float64(); {
	case x < 0.80:
		name := sim.Pick(r, bl.tranco)
		if r.Bool(0.2) {
			name = sim.Pick(r, bl.registry)
		}
		tcp(443, (&tlsx.ClientHelloSpec{ServerName: name}).Build())
	case x < 0.92:
		tcp(80, []byte("GET / HTTP/1.1\r\nHost: "+sim.Pick(r, bl.tranco)+"\r\n\r\n"))
	case x < 0.96:
		version := quicx.Version1
		if r.Bool(0.5) {
			version = quicx.VersionDraft29
		}
		f.add(packet.NewUDP(client, server, sport, 443, quicx.BuildInitial(version, 1200)), netem.AtoB)
		f.add(packet.NewUDP(client, server, sport, 443, make([]byte, 40)), netem.AtoB)
		f.add(packet.NewUDP(server, client, 443, sport, make([]byte, 40)), netem.BtoA)
		f.add(packet.NewUDP(client, server, sport, 443, make([]byte, 40)), netem.AtoB)
	case x < 0.99:
		// A first fragment carries the transport header, which wire parsing
		// accepts for TCP: the datagram is a TCP segment.
		handshake(8080)
		d := packet.NewTCP(client, server, sport, 8080, packet.FlagsPSHACK, 1001, 5001, make([]byte, 600))
		d.IP.ID = uint16(i)
		frags, err := packet.Fragment(d, 256)
		if err != nil {
			return nil, err
		}
		for _, fr := range frags {
			f.add(fr, netem.AtoB)
		}
		f.add(packet.NewTCP(server, client, 8080, sport, packet.FlagACK, 5001, 1601, nil), netem.BtoA)
	default:
		ip := sim.Pick(r, bl.ips)
		for n := 0; n < 3; n++ {
			f.add(packet.NewTCP(client, ip, sport, 443, packet.FlagSYN, 1000, 0, nil), netem.AtoB)
		}
	}
	return f, nil
}

// digestSeed starts a pass digest (FNV-1a offset basis).
const digestSeed = 14695981039346656037

// mixVerdict folds one packet's verdict, and the device's rewrite of it,
// into a pass digest.
func mixVerdict(h uint64, act netem.Action, p *packet.Packet) uint64 {
	v := uint64(act)
	if p.TCP != nil {
		v |= uint64(p.TCP.Flags)<<8 | uint64(len(p.TCP.Payload))<<16
	}
	return (h ^ v) * 1099511628211
}

// passResult identifies what one corpus pass did.
type passResult struct {
	digest    uint64
	delivered int64 // packets that survived the chain, fragment releases included
}

// lineRate is the workload's running state.
type lineRate struct {
	c         *corpus
	s         *sim.Sim
	dev       *tspu.Device
	e         *engine.Engine
	slots     []packet.Packet
	delivered int64
	peak      int // largest flow table seen at a batch boundary
	sp        *lineRateSpans
	// fast records every batch, and the age-out step, as a segment.
	fast *fastest
}

// lineRateSpans are the traced run's spans; nil when untraced.
type lineRateSpans struct{ pass, parse, push, process, advance, ageOut *span }

func newLineRate(c *corpus, seed uint64, bl *blocklist) *lineRate {
	w := &lineRate{c: c, s: sim.New(), slots: make([]packet.Packet, batchSize), fast: &fastest{}}
	w.dev = newDevice(w.s, "line-rate", seed, bl, lineRateFailures)
	w.e = newEngine(w.s, w.dev, func(*packet.Packet, netem.Direction) { w.delivered++ })
	return w
}

// batchStep is the virtual time one batch of the corpus spans.
func (c *corpus) batchStep() time.Duration {
	return passVirtual / time.Duration((c.len()+batchSize-1)/batchSize)
}

// pass replays the corpus once, then moves the clock to the next pass
// period and sweeps, so the next pass starts from an empty flow table.
func (w *lineRate) pass() (passResult, error) {
	sp := w.sp
	var t0, t time.Time
	if sp != nil {
		t0 = time.Now()
	}
	n := w.c.len()
	start, step := w.s.Now(), w.c.batchStep()
	d0 := w.delivered
	h := uint64(digestSeed)
	b := 0
	for i := 0; i < n; b, i = b+1, i+batchSize {
		m := min(batchSize, n-i)
		seg := time.Now()
		if sp != nil {
			t = seg
		}
		for j := 0; j < m; j++ {
			if err := packet.ParseInto(&w.slots[j], w.c.packet(i+j)); err != nil {
				return passResult{}, fmt.Errorf("parsing packet %d: %w", i+j, err)
			}
		}
		if sp != nil {
			t = sp.parse.lap(t, sp.pass)
		}
		for j := 0; j < m; j++ {
			w.e.Push(&w.slots[j], w.c.dirs[i+j])
		}
		if sp != nil {
			t = sp.push.lap(t, sp.pass)
		}
		items := w.e.Process()
		if sp != nil {
			t = sp.process.lap(t, sp.pass)
		}
		for k := range items {
			h = mixVerdict(h, items[k].Verdict, items[k].Pkt)
		}
		if sp != nil {
			t = time.Now()
		}
		stepClock(w.e, w.s, start+time.Duration(b+1)*step)
		if sp != nil {
			sp.advance.lap(t, sp.pass)
		}
		if sz := w.dev.ConntrackSize(); sz > w.peak {
			w.peak = sz
		}
		w.fast.observe(b, time.Since(seg))
	}
	seg := time.Now()
	if sp != nil {
		t = seg
	}
	stepClock(w.e, w.s, start+passPeriod)
	w.dev.Sweep()
	w.fast.observe(b, time.Since(seg))
	if sp != nil {
		sp.ageOut.lap(t, sp.pass)
		sp.pass.add(time.Since(t0), nil)
	}
	return passResult{digest: h, delivered: w.delivered - d0}, nil
}

// seqPipe is the netem.Pipe of a device driven packet-at-a-time with no
// chain after it: injected packets leave the chain, so they are counted as
// delivered.
type seqPipe struct {
	s        *sim.Sim
	injected int64
}

func (p *seqPipe) Inject(*packet.Packet, netem.Direction) { p.injected++ }
func (p *seqPipe) Now() time.Duration                     { return p.s.Now() }
func (p *seqPipe) After(d time.Duration, fn func())       { p.s.After(d, fn) }

// referencePass replays the corpus once packet-at-a-time through
// Device.Handle on an identically configured device, stepping the clock at
// the batch boundaries the engine pass uses. It returns the pass result and
// the device's counters.
func referencePass(c *corpus, seed uint64, bl *blocklist) (passResult, string, error) {
	s := sim.New()
	dev := newDevice(s, "line-rate", seed, bl, lineRateFailures)
	pipe := &seqPipe{s: s}
	var p packet.Packet
	step := c.batchStep()
	h := uint64(digestSeed)
	var passed int64
	for i := 0; i < c.len(); i++ {
		if err := packet.ParseInto(&p, c.packet(i)); err != nil {
			return passResult{}, "", fmt.Errorf("parsing packet %d: %w", i, err)
		}
		act := dev.Handle(pipe, &p, c.dirs[i])
		if act == netem.Pass {
			passed++
		}
		h = mixVerdict(h, act, &p)
		if (i+1)%batchSize == 0 || i == c.len()-1 {
			s.RunUntil(time.Duration(i/batchSize+1) * step)
		}
	}
	s.RunUntil(passPeriod)
	dev.Sweep()
	return passResult{digest: h, delivered: passed + pipe.injected}, fmt.Sprint(dev.Stats()), nil
}

func runLineRate(a args) (*outcome, error) {
	bl := genBlocklist(a.seed)
	c, err := genCorpus(a.seed, bl)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	out := newOutcome()
	setup := newSetupProbe(a.budget(), deviceBuilds, func() {
		s := sim.New()
		newEngine(s, newDevice(s, "line-rate", a.seed, bl, lineRateFailures), nil)
	})

	ref, refStats, err := referencePass(c, a.seed, bl)
	if err != nil {
		return nil, err
	}
	w := newLineRate(c, a.seed, bl)
	first, err := w.pass() // also the warm-up: grows the pools and maps
	if err != nil {
		return nil, err
	}
	out.check(first == ref, "engine pass %+v differs from the packet-at-a-time Device.Handle pass %+v", first, ref)
	if got := fmt.Sprint(w.dev.Stats()); got != refStats {
		out.check(false, "engine device counters %s differ from Device.Handle counters %s", got, refStats)
	}

	n := int64(c.len())
	chunk := func() int64 {
		out.attempted += n
		got, err := w.pass()
		if err != nil || got != first {
			out.failed += n
			out.check(false, "pass %+v (err %v) differs from the first pass %+v", got, err, first)
		}
		return n
	}
	w.fast = &fastest{}
	p := runPhase(a.budget(), 3, chunk, setup)
	out.endToEndValues(setup.seconds(), p, w.fast)
	if !a.trace {
		return out, nil
	}

	tr := newTracer()
	w.sp = &lineRateSpans{
		pass:    tr.span("line-rate.pass", ""),
		parse:   tr.span("packet.ParseInto", "line-rate.pass"),
		push:    tr.span("engine.Push", "line-rate.pass"),
		process: tr.span("engine.Process", "line-rate.pass"),
		advance: tr.span("engine.Advance", "line-rate.pass"),
		ageOut:  tr.span("tspu.Device.Sweep", "line-rate.pass"),
	}
	trig0, events0 := triggers(w.dev), w.s.Processed()
	_, _, drops0 := w.e.Totals()
	w.peak = 0
	cpu0, wall0 := threadCPU(), time.Now()
	tp := runPhase(a.budget(), 3, chunk, nil)
	tr.scale(float64(threadCPU()-cpu0) / float64(time.Since(wall0)))
	_, _, drops1 := w.e.Totals()

	flowkey, extract, match, err := probeUnitCosts(c, w.dev.Policy().SNI1Domains)
	if err != nil {
		return nil, err
	}
	pkts := float64(tp.ops)
	perPkt := func(s *span) float64 { return float64(s.total) / pkts }
	sniShare := float64(c.sniCandidates) / float64(c.len())
	// Each SNI found is matched against the SNI-I, SNI-II and SNI-IV sets.
	matchShare := 3 * float64(c.hellos) / float64(c.len())
	v := out.values
	v["packet.parse_ns"] = perPkt(w.sp.parse)
	v["engine.process_ns_per_pkt"] = perPkt(w.sp.process)
	v["sim.advance_ns_per_pkt"] = perPkt(w.sp.advance)
	v["sim.events_per_kpkt"] = 1000 * float64(w.s.Processed()-events0) / pkts
	v["packet.flowkey_ns"] = flowkey
	v["tlsx.extract_sni_ns"] = extract
	v["tspu.match_ns"] = match
	v["tspu.slowpath_share"] = c.slowPathShare()
	v["tspu.triggers_per_kpkt"] = 1000 * float64(triggers(w.dev)-trig0) / pkts
	v["engine.drop_share"] = float64(drops1-drops0) / pkts
	v["tspu.conntrack_flows"] = float64(w.peak)

	l := &ledger{workload: "line-rate", op: "packet", traced: tp.cpuPerOp(), untraced: p.cpuPerOp()}
	l.add("packet.ParseInto", perPkt(w.sp.parse), 1)
	l.add("engine.Push", perPkt(w.sp.push), 1)
	l.add("engine.Process", perPkt(w.sp.process), 1)
	l.detail("packet.FlowKey4Of (probe)", flowkey, 1)
	l.detail("tlsx.ExtractSNI (probe)", extract, sniShare)
	l.detail("DomainSet.Match (probe)", match, matchShare)
	l.add("engine.Advance + clock step", perPkt(w.sp.advance), 1)
	l.add("tspu.Device.Sweep (pass age-out)", perPkt(w.sp.ageOut), 1)
	l.add("go GC, background workers", float64(tp.gcBackground)/pkts, 1)
	out.runtimeValues(tp, l)

	tr.write(os.Stderr)
	l.write(os.Stderr)
	fmt.Fprintf(os.Stderr, "residual = the pass loop itself: verdict digest, flow-table size sampling, GC assists\n")
	return out, nil
}

// triggers sums the device's trigger counters.
func triggers(d *tspu.Device) int64 {
	n := 0
	for _, c := range d.Stats().Triggers {
		n += c
	}
	return int64(n)
}

// Probe results are stored here so the compiler keeps the probed calls.
var (
	sinkKey packet.FlowKey4
	sinkSNI []byte
	sinkHit bool
)

// probeUnitCosts times three per-packet primitives on the corpus's own
// packets, outside the pipeline: FlowKey4Of on a sample of packets,
// ExtractSNI on the sample's upstream TCP/443 payloads, and DomainSet.Match
// on the SNIs those yield. It returns nanoseconds per call.
func probeUnitCosts(c *corpus, set *tspu.DomainSet) (flowkey, extract, match float64, err error) {
	pkts := make([]packet.Packet, min(probeSample, c.len()))
	var payloads, snis [][]byte
	for i := range pkts {
		p := &pkts[i]
		if err := packet.ParseInto(p, c.packet(i)); err != nil {
			return 0, 0, 0, fmt.Errorf("parsing packet %d: %w", i, err)
		}
		if p.TCP != nil && c.dirs[i] == netem.AtoB && p.TCP.DstPort == 443 && len(p.TCP.Payload) > 0 {
			payloads = append(payloads, p.TCP.Payload)
			if sni, ok := tlsx.ExtractSNI(p.TCP.Payload); ok {
				snis = append(snis, sni)
			}
		}
	}
	flowkey = timePerCall(len(pkts), func() {
		for i := range pkts {
			sinkKey = packet.FlowKey4Of(&pkts[i])
		}
	})
	extract = timePerCall(len(payloads), func() {
		for _, b := range payloads {
			sinkSNI, _ = tlsx.ExtractSNI(b)
		}
	})
	match = timePerCall(len(snis), func() {
		for _, s := range snis {
			sinkHit = set.Match(s)
		}
	})
	return flowkey, extract, match, nil
}

// timePerCall runs loop, which makes calls calls, until about probeCalls
// calls have been made, and returns the nanoseconds per call of the fastest
// repetition.
func timePerCall(calls int, loop func()) float64 {
	if calls == 0 {
		return 0
	}
	best := time.Duration(math.MaxInt64)
	for r := max(1, probeCalls/calls); r > 0; r-- {
		t := time.Now()
		loop()
		best = min(best, time.Since(t))
	}
	return float64(best) / float64(calls)
}
