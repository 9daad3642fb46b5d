package tspu

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
)

// Sharded-conntrack invariants: the shard count is an implementation knob,
// never a behavior knob. The same trace must produce the same verdict stream
// at 1, 4, and 8 shards; the timeout wheel must reclaim exactly what the
// full-table scan would; and the per-shard entry pools must conserve entries
// under churn (nothing leaks, nothing is double-freed).

// multiPairStream is equivStream spread over many canonical host pairs so
// packets land on different lanes/shards (equivStream's single pair maps to
// exactly one). Flow state still accumulates: ports and remotes are drawn
// from small sets.
func multiPairStream(seed uint64, n int) []*packet.Packet {
	rng := sim.NewRand(seed)
	local := packet.MustAddr("10.0.0.2")
	remotes := make([]netip.Addr, 0, 16)
	for i := 1; i <= 16; i++ {
		remotes = append(remotes, packet.MustAddr(fmt.Sprintf("203.0.113.%d", i)))
	}
	snis := []string{
		"facebook.com", "api.twitter.com", "TWITTER.COM", "twitter.com.",
		"play.google.com", "fbcdn.net", "meduza.io", "example.org", "",
	}
	pkts := make([]*packet.Packet, 0, n)
	for len(pkts) < n {
		remote := remotes[rng.Intn(len(remotes))]
		sport := uint16(20000 + rng.Intn(32))
		switch rng.Intn(8) {
		case 0:
			pkts = append(pkts, packet.NewTCP(local, remote, sport, 443, packet.FlagSYN, 1, 0, nil))
		case 1:
			pkts = append(pkts, packet.NewTCP(remote, local, 443, sport, packet.FlagsSYNACK, 1, 2, nil))
		case 2:
			spec := &tlsx.ClientHelloSpec{ServerName: snis[rng.Intn(len(snis))]}
			if rng.Bool(0.3) {
				spec.PaddingLen = rng.Intn(600)
			}
			pkts = append(pkts, packet.NewTCP(local, remote, sport, 443, packet.FlagsPSHACK, 2, 2, spec.Build()))
		case 3:
			soup := make([]byte, 1+rng.Intn(512))
			for i := range soup {
				soup[i] = byte(rng.Uint64())
			}
			pkts = append(pkts, packet.NewTCP(local, remote, sport, 443, packet.FlagsPSHACK, 2, 2, soup))
		case 4:
			pkts = append(pkts, packet.NewTCP(remote, local, 443, sport, packet.FlagsPSHACK, 9, 9, []byte("HTTP/1.1 200 OK")))
		case 5:
			pay := make([]byte, 1200)
			pay[0] = 0xc0
			for i := 1; i < 16; i++ {
				pay[i] = byte(rng.Uint64())
			}
			pkts = append(pkts, packet.NewUDP(local, remote, sport, 443, pay))
		case 6:
			pkts = append(pkts, packet.NewTCP(local, remote, sport, 443, packet.FlagsPSHACK, 9, 9, make([]byte, rng.Intn(1400))))
		case 7:
			if rng.Bool(0.5) {
				pkts = append(pkts, packet.NewTCP(remote, local, 443, sport, packet.FlagACK, 5, 5, nil))
			} else {
				pkts = append(pkts, packet.NewTCP(remote, local, 443, sport, packet.FlagSYN, 5, 0, nil))
			}
		}
	}
	return pkts
}

func multiPairDir(p *packet.Packet) netem.Direction {
	if p.IP.Src == packet.MustAddr("10.0.0.2") {
		return netem.AtoB
	}
	return netem.BtoA
}

// shardEquivDevice builds a device with the given shard count whose random
// outcomes are per-flow (order- and shard-independent by construction).
func shardEquivDevice(shards int, flowSeed uint64) *Device {
	s := sim.New()
	d := NewDevice(Config{
		Sim:         s,
		LocalDir:    netem.AtoB,
		Shards:      shards,
		PerFlowRand: true,
		FlowSeed:    flowSeed,
		FailureRates: map[BlockType]float64{
			SNI1: 0.05, SNI2: 0.05, SNI4: 0.03, QUICBlock: 0.06, IPBlock: 0.02,
		},
	})
	ctl := NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *Policy) {
		p.SNI1Domains.Add("facebook.com", "twitter.com", "meduza.io")
		p.SNI2Domains.Add("play.google.com")
		p.SNI4Domains.Add("twitter.com", "fbcdn.net")
	})
	return d
}

func runShardEquiv(d *Device, stream []*packet.Packet) []string {
	pipe := nullPipe{s: d.cfg.Sim}
	log := make([]string, 0, len(stream))
	for _, src := range stream {
		p := src.Clone()
		act := d.Handle(pipe, p, multiPairDir(p))
		wire, err := p.Marshal()
		if err != nil {
			wire = []byte(err.Error())
		}
		log = append(log, fmt.Sprintf("%v %x", act, wire))
	}
	return log
}

// TestShardCountEquivalence pins cross-shard determinism: one trace, one
// verdict stream, whether the conntrack is monolithic or split 4 or 8 ways.
func TestShardCountEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			stream := multiPairStream(seed, 1500)
			ref := runShardEquiv(shardEquivDevice(1, seed), stream)
			for _, shards := range []int{4, 8} {
				got := runShardEquiv(shardEquivDevice(shards, seed), stream)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("shards=%d packet %d diverged:\n1 shard: %s\n%d shards: %s",
							shards, i, ref[i], shards, got[i])
					}
				}
			}
		})
	}
}

// TestHandleShardedMatchesHandle pins that the batch entry point — key and
// lane precomputed by the caller — is the same datapath as Handle.
func TestHandleShardedMatchesHandle(t *testing.T) {
	stream := multiPairStream(7, 1500)
	seq := shardEquivDevice(8, 7)
	bat := shardEquivDevice(8, 7)
	seqPipe := nullPipe{s: seq.cfg.Sim}
	batPipe := nullPipe{s: bat.cfg.Sim}
	for i, src := range stream {
		ps, pb := src.Clone(), src.Clone()
		dir := multiPairDir(src)
		as := seq.Handle(seqPipe, ps, dir)
		key := packet.FlowKey4Of(pb)
		ab := bat.HandleSharded(batPipe, pb, dir, key, bat.LaneOf(key))
		ws, _ := ps.Marshal()
		wb, _ := pb.Marshal()
		if as != ab || string(ws) != string(wb) {
			t.Fatalf("packet %d: Handle %v %x, HandleSharded %v %x", i, as, ws, ab, wb)
		}
	}
}

// TestShardLaneParallelRace drives HandleSharded with one goroutine per
// lane — the batch engine's concurrency contract, stripped to the device —
// and checks the per-lane verdict streams against a sequential reference.
// Its real payload is `go test -race` (make race-lanes): any cross-lane
// touch shows up here as a data race.
func TestShardLaneParallelRace(t *testing.T) {
	stream := multiPairStream(11, 4000)
	seq := shardEquivDevice(8, 99)
	par := shardEquivDevice(8, 99)
	lanes := seq.NumLanes()

	byLane := make([][]*packet.Packet, lanes)
	for _, p := range stream {
		l := seq.LaneOf(packet.FlowKey4Of(p))
		byLane[l] = append(byLane[l], p)
	}

	runLanePkts := func(d *Device, lane int, pkts []*packet.Packet) []string {
		pipe := nullPipe{s: d.cfg.Sim}
		log := make([]string, 0, len(pkts))
		for _, src := range pkts {
			p := src.Clone()
			key := packet.FlowKey4Of(p)
			act := d.HandleSharded(pipe, p, multiPairDir(p), key, lane)
			wire, err := p.Marshal()
			if err != nil {
				wire = []byte(err.Error())
			}
			log = append(log, fmt.Sprintf("%v %x", act, wire))
		}
		return log
	}

	ref := make([][]string, lanes)
	for l := 0; l < lanes; l++ {
		ref[l] = runLanePkts(seq, l, byLane[l])
	}

	got := make([][]string, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[l] = runLanePkts(par, l, byLane[l])
		}()
	}
	wg.Wait()

	for l := 0; l < lanes; l++ {
		if len(got[l]) != len(ref[l]) {
			t.Fatalf("lane %d: %d verdicts parallel, %d sequential", l, len(got[l]), len(ref[l]))
		}
		for i := range ref[l] {
			if got[l][i] != ref[l][i] {
				t.Fatalf("lane %d packet %d diverged:\nsequential: %s\nparallel:   %s", l, i, ref[l][i], got[l][i])
			}
		}
	}
}

// sweepScan reclaims expired entries by scanning every table. It is the
// equivalence oracle for the timeout wheel: after either sweep, no entry with
// expires <= now remains, and both report the same reclaim count on the same
// table state. It walks a snapshot: expiring deletes from the index, whose
// backward shift moves later entries under a live walk of the slots.
func (ct *conntrack) sweepScan(now time.Duration) int {
	n := 0
	for i := range ct.shards {
		sh := &ct.shards[i]
		for _, e := range sh.table.entries() {
			if now >= e.expires {
				sh.expire(e)
				n++
			}
		}
	}
	return n
}

// checkLists verifies the shard-list invariant every eviction and expiry path
// relies on: the insertion-order list and the union of the wheel-slot lists
// each hold exactly the table's entries, once each, with consistent
// back-links and slot indexes. A node linked twice with consistent back-links
// closes a cycle, so walks are bounded by the table size instead of keeping a
// visited set; a wheel node is a table entry iff it is linked into the
// insertion list, which the walk before has matched to the table.
func checkLists(t testing.TB, ct *conntrack) {
	t.Helper()
	for i := range ct.shards {
		sh := &ct.shards[i]
		n := 0
		var prev *flowEntry
		for e := sh.cap.oldest; e != nil; e = e.newer {
			if n++; n > sh.table.len() {
				t.Fatalf("shard %d: insertion list longer than the table's %d entries", i, sh.table.len())
			}
			if e.older != prev || sh.table.get(e.key) != e {
				t.Fatalf("shard %d: insertion list entry %d (%v) is mislinked or not the table's", i, n, e.key)
			}
			prev = e
		}
		if n != sh.table.len() || sh.cap.newest != prev {
			t.Fatalf("shard %d: insertion list holds %d entries, table %d", i, n, sh.table.len())
		}
		n = 0
		for slot, head := range sh.wheel.slots {
			prev = nil
			for e := head; e != nil; e = e.wnext {
				if n++; n > sh.table.len() {
					t.Fatalf("shard %d: wheel holds more than the table's %d entries", i, sh.table.len())
				}
				inserted := (e.older == nil && sh.cap.oldest == e) || (e.older != nil && e.older.newer == e)
				if e.wprev != prev || int(e.wslot) != slot || !inserted {
					t.Fatalf("shard %d: wheel slot %d entry %v is mislinked or not the table's", i, slot, e.key)
				}
				prev = e
			}
		}
		if n != sh.table.len() {
			t.Fatalf("shard %d: wheel holds %d entries, table %d", i, n, sh.table.len())
		}
	}
}

// observeStream drives an identical randomized observe/sweep history into a
// conntrack, sweeping with the given function at the given times and checking
// the list invariant after every step.
func observeStream(t testing.TB, ct *conntrack, seed uint64, steps int, sweep func(now time.Duration) int, sweepEvery int) (reclaims int, finalNow time.Duration) {
	rng := sim.NewRand(seed)
	local := packet.MustAddr("10.0.0.2")
	now := time.Duration(0)
	for i := 0; i < steps; i++ {
		now += time.Duration(rng.Intn(2000)) * time.Millisecond
		remote := packet.MustAddr(fmt.Sprintf("203.0.113.%d", 1+rng.Intn(32)))
		sport := uint16(20000 + rng.Intn(64))
		var p *packet.Packet
		switch rng.Intn(3) {
		case 0:
			p = packet.NewTCP(local, remote, sport, 443, packet.FlagSYN, 1, 0, nil)
		case 1:
			p = packet.NewTCP(remote, local, 443, sport, packet.FlagsSYNACK, 1, 2, nil)
		case 2:
			p = packet.NewTCP(local, remote, sport, 443, packet.FlagsPSHACK, 2, 2, []byte("x"))
		}
		e := ct.observe(p, p.IP.Src == local, now)
		// Occasionally install a block so long (clamped-past-the-wheel-
		// horizon) expiries and extension re-bucketing get exercised.
		if rng.Bool(0.05) {
			ct.setBlock(e, SNI2, now, 5, nil)
		}
		if sweepEvery > 0 && i%sweepEvery == 0 {
			reclaims += sweep(now)
		}
		checkLists(t, ct)
	}
	reclaims += sweep(now + 600*time.Second) // final: everything expires
	checkLists(t, ct)
	return reclaims, now + 600*time.Second
}

func tableKeys(ct *conntrack) map[packet.FlowKey4]bool {
	keys := make(map[packet.FlowKey4]bool)
	for i := range ct.shards {
		for _, e := range ct.shards[i].table.entries() {
			keys[e.key] = true
		}
	}
	return keys
}

// boundConntrack sets the same per-shard flow bound on every shard.
func boundConntrack(ct *conntrack, perShard int) *conntrack {
	for i := range ct.shards {
		ct.shards[i].cap.maxFlows = perShard
	}
	return ct
}

// TestWheelSweepEquivalence pins the timeout wheel against the full-table
// scan: same observe history, same sweep times, same reclaim counts, same
// surviving entries — unbounded, and under a bound small enough that
// pressure eviction interleaves with expiry.
func TestWheelSweepEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, sweepEvery := range []int{7, 113} { // frequent and rare (rare forces slot clamping)
			for _, bound := range []int{0, 24} {
				wheelCT := boundConntrack(newShardedConntrack(DefaultTimeouts(), 4), bound)
				scanCT := boundConntrack(newShardedConntrack(DefaultTimeouts(), 4), bound)
				wr, _ := observeStream(t, wheelCT, seed, 4000, wheelCT.Sweep, sweepEvery)
				sr, _ := observeStream(t, scanCT, seed, 4000, scanCT.sweepScan, sweepEvery)
				if wr != sr {
					t.Fatalf("seed=%d every=%d bound=%d: wheel reclaimed %d, scan %d", seed, sweepEvery, bound, wr, sr)
				}
				wk, sk := tableKeys(wheelCT), tableKeys(scanCT)
				if len(wk) != len(sk) {
					t.Fatalf("seed=%d every=%d bound=%d: wheel table %d entries, scan %d", seed, sweepEvery, bound, len(wk), len(sk))
				}
				for k := range wk {
					if !sk[k] {
						t.Fatalf("seed=%d every=%d bound=%d: wheel kept a key the scan evicted", seed, sweepEvery, bound)
					}
				}
				if wheelCT.evictionCount() != scanCT.evictionCount() {
					t.Fatalf("seed=%d every=%d bound=%d: evictions wheel=%d scan=%d",
						seed, sweepEvery, bound, wheelCT.evictionCount(), scanCT.evictionCount())
				}
			}
		}
	}
}

// TestShardPoolConservation is the leak check: under heavy churn with
// sweeping, every entry ever allocated is either live in a table or parked
// in a freelist — and steady-state churn is served by reuse, not growth.
func TestShardPoolConservation(t *testing.T) {
	ct := newShardedConntrack(DefaultTimeouts(), 8)
	local := packet.MustAddr("10.0.0.2")
	now := time.Duration(0)
	var allocsAfterWarmup uint64
	for round := 0; round < 6; round++ {
		for i := 0; i < 800; i++ {
			remote := packet.MustAddr(fmt.Sprintf("203.0.%d.%d", i/250, 1+i%250))
			ct.observe(packet.NewTCP(local, remote, uint16(30000+i%500), 443, packet.FlagSYN, 1, 0, nil), true, now)
			checkLists(t, ct)
		}
		allocs, _, pooled := ct.poolStats()
		if live := ct.size(); int(allocs) != live+pooled {
			t.Fatalf("round %d: %d allocs but %d live + %d pooled — entries leaked or double-freed", round, allocs, live, pooled)
		}
		now += 700 * time.Second // beyond every timeout
		ct.Sweep(now)
		checkLists(t, ct)
		if got := ct.size(); got != 0 {
			t.Fatalf("round %d: %d entries survived a sweep past all timeouts", round, got)
		}
		allocs, _, pooled = ct.poolStats()
		if int(allocs) != pooled {
			t.Fatalf("round %d: after full expiry %d allocs != %d pooled", round, allocs, pooled)
		}
		if round == 0 {
			allocsAfterWarmup = allocs
		}
	}
	allocs, reuses, _ := ct.poolStats()
	if allocs != allocsAfterWarmup {
		t.Fatalf("pool grew after warmup: %d allocs, want %d — churn is not being served from the freelists", allocs, allocsAfterWarmup)
	}
	if reuses == 0 {
		t.Fatal("pool reuse counter never moved")
	}
}

// TestShardLanesShareOnePolicy has several goroutines, as the lanes of a
// sharded device or of the batch engine do, classify mixed-case SNIs against
// one controller's Policy at once. Matching must only read the policy: under
// `go test -race` (make race-lanes) a lookup that writes shared state, such
// as a case-folding buffer kept in the set, shows up as a data race. Every
// verdict must also equal the string reference Classify's.
func TestShardLanesShareOnePolicy(t *testing.T) {
	ctl := NewController(nil)
	ctl.Update(func(p *Policy) {
		p.SNI1Domains.Add("facebook.com", "rferl.org")
		p.SNI2Domains.Add("play.google.com")
		p.SNI4Domains.Add("fbcdn.net")
		p.ThrottleDomains.Add("twitter.com")
		p.ThrottleActive = true
	})
	p := ctl.Policy()
	names := []string{"WWW.Facebook.COM", "Play.Google.Com.", "static.xx.FBCDN.NET",
		"API.TWITTER.COM", "example.ORG", "RFERL.org", longSNI}
	sni := make([][]byte, len(names))
	want := make([]Classification, len(names))
	for i, n := range names {
		sni[i] = []byte(n)
		want[i] = p.Classify(n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				for i := range sni {
					if got := p.ClassifyBytes(sni[i]); got != want[i] {
						t.Errorf("goroutine %d: ClassifyBytes(%q) = %+v, want %+v", g, names[i], got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
