package tspusim

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benchmarks DESIGN.md calls out and datapath microbenchmarks.
// Regeneration benches measure the cost of rebuilding the artifact from a
// fresh deterministic lab; ablations compare design choices of the device.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tspusim/internal/fleet"
	"tspusim/internal/hostnet"
	"tspusim/internal/measure"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

func benchOpts(seed uint64) Options {
	return Options{Seed: seed, Endpoints: 200, ASes: 12, EchoServers: 50, TrancoN: 200, RegistryN: 200}
}

// benchExperiment runs one registry experiment per iteration on a fresh lab.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		lab := NewLab(benchOpts(uint64(i + 1)))
		out, err := Run(lab, id)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkTable1_TriggerReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := NewLab(benchOpts(uint64(i + 1)))
		res := measure.Reliability(lab, 500)
		if len(res.Failures) != 3 {
			b.Fatal("missing vantages")
		}
	}
}

func BenchmarkTable2_StateTimeouts(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3_DomainBehaviors(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4_EchoMeasurements(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5_Correlation(b *testing.B)       { benchExperiment(b, "table5") }
func BenchmarkTable7_ConntrackProfiles(b *testing.B) { benchExperiment(b, "table7") }
func BenchmarkTable8_SequenceTimeouts(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkFig2_Behaviors(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkFig3_Fragmentation(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig6_DomainSets(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7_Categories(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig8_PartialVisibility(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9_PortScan(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10_Traceroutes(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig12_HopHistogram(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13_CHFuzz(b *testing.B)             { benchExperiment(b, "fig13") }
func BenchmarkFig14_QUICFingerprint(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkSNI3_Throttle(b *testing.B)            { benchExperiment(b, "sni3") }
func BenchmarkLocalize_TTL(b *testing.B)             { benchExperiment(b, "localize") }
func BenchmarkUSValidation_FragLimits(b *testing.B)  { benchExperiment(b, "usval") }
func BenchmarkCircumvention_Matrix(b *testing.B)     { benchExperiment(b, "circum") }

func BenchmarkFig4_Sequences(b *testing.B) {
	// Length 2 keeps the per-iteration cost sane; the full length-3 tree is
	// the fig4 experiment.
	for i := 0; i < b.N; i++ {
		lab := NewLab(benchOpts(uint64(i + 1)))
		res := measure.ExploreSequences(lab, topo.ERTelecom, 2)
		if len(res.Verdicts) == 0 {
			b.Fatal("no verdicts")
		}
	}
}

// --- Datapath microbenchmarks -------------------------------------------

// benchPipe is a no-op pipe for direct Device.Handle calls.
type benchPipe struct{ s *sim.Sim }

func (p benchPipe) Inject(pkt *packet.Packet, dir netem.Direction) {}
func (p benchPipe) Now() time.Duration                             { return p.s.Now() }
func (p benchPipe) After(d time.Duration, fn func())               {}

func benchDevice(cfg func(*tspu.Config)) (*tspu.Device, *sim.Sim) {
	s := sim.New()
	c := tspu.Config{Sim: s, LocalDir: netem.AtoB}
	if cfg != nil {
		cfg(&c)
	}
	d := tspu.NewDevice(c)
	ctl := tspu.NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *tspu.Policy) { p.SNI1Domains.Add("facebook.com") })
	return d, s
}

var benchSrc = packet.MustAddr("10.0.0.2")
var benchDst = packet.MustAddr("203.0.113.10")

func BenchmarkDevice_PassThroughData(b *testing.B) {
	d, s := benchDevice(nil)
	pipe := benchPipe{s}
	pkt := packet.NewTCP(benchSrc, benchDst, 40000, 443, packet.FlagsPSHACK, 1, 1, make([]byte, 1400))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Handle(pipe, pkt, netem.AtoB)
	}
}

func BenchmarkDevice_TriggerDetection(b *testing.B) {
	d, s := benchDevice(nil)
	pipe := benchPipe{s}
	ch := (&tlsx.ClientHelloSpec{ServerName: "not-blocked.example"}).Build()
	pkt := packet.NewTCP(benchSrc, benchDst, 40000, 443, packet.FlagsPSHACK, 1, 1, ch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Handle(pipe, pkt, netem.AtoB)
	}
}

func BenchmarkDevice_ManyFlows(b *testing.B) {
	d, s := benchDevice(nil)
	pipe := benchPipe{s}
	pkts := make([]*packet.Packet, 1024)
	for i := range pkts {
		pkts[i] = packet.NewTCP(benchSrc, benchDst, uint16(20000+i), 443, packet.FlagSYN, 1, 0, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Handle(pipe, pkts[i%len(pkts)], netem.AtoB)
	}
}

// --- Ablations (DESIGN.md) ----------------------------------------------

// BenchmarkAblation_FragForwarding compares the TSPU's hold-and-release
// fragment forwarding against a reassembling middlebox on the same fragment
// stream.
func BenchmarkAblation_FragForwarding(b *testing.B) {
	mk := func() []*packet.Packet {
		p := packet.NewTCP(benchSrc, benchDst, 40000, 443, packet.FlagSYN, 1, 0, make([]byte, 1024))
		frags, err := packet.FragmentCount(p, 8)
		if err != nil {
			b.Fatal(err)
		}
		return frags
	}
	b.Run("tspu-hold-and-release", func(b *testing.B) {
		d, s := benchDevice(nil)
		pipe := benchPipe{s}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frags := mk()
			for j, f := range frags {
				f.IP.ID = uint16(i) // fresh queue per iteration
				_ = j
				d.Handle(pipe, f, netem.AtoB)
			}
		}
	})
	b.Run("reassembling-middlebox", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frags := mk()
			for _, f := range frags {
				f.IP.ID = uint16(i)
			}
			if _, err := packet.Reassemble(frags); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_SNIMatch compares structural ClientHello parsing (what
// the TSPU does, per Fig. 13) against naive whole-payload substring search.
func BenchmarkAblation_SNIMatch(b *testing.B) {
	ch := (&tlsx.ClientHelloSpec{ServerName: "facebook.com", PaddingLen: 400}).Build()
	b.Run("structural-parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			info, err := tlsx.ParseClientHello(ch)
			if err != nil || info.ServerName == "" {
				b.Fatal("parse failed")
			}
		}
	})
	b.Run("substring-scan", func(b *testing.B) {
		needle := []byte("facebook.com")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !containsSub(ch, needle) {
				b.Fatal("miss")
			}
		}
	})
}

func containsSub(hay, needle []byte) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		j := 0
		for ; j < len(needle) && hay[i+j] == needle[j]; j++ {
		}
		if j == len(needle) {
			return true
		}
	}
	return false
}

// BenchmarkAblation_RoleInference measures the split-handshake evasion rate
// with the production role heuristic vs the StrictRoles patch.
func BenchmarkAblation_RoleInference(b *testing.B) {
	run := func(b *testing.B, strict bool) {
		evaded := 0
		for i := 0; i < b.N; i++ {
			s := sim.New()
			n := netem.New(s)
			client := n.AddHost("c")
			server := n.AddHost("s")
			ci := client.AddIface(packet.MustAddr("10.0.0.2"))
			si := server.AddIface(packet.MustAddr("203.0.113.10"))
			link := n.Connect(ci, si, time.Millisecond)
			client.AddDefaultRoute(ci)
			server.AddDefaultRoute(si)
			d := tspu.NewDevice(tspu.Config{Sim: s, LocalDir: netem.AtoB, StrictRoles: strict})
			ctl := tspu.NewController(nil)
			ctl.Register(d)
			ctl.Update(func(p *tspu.Policy) { p.SNI1Domains.Add("meduza.io") })
			link.Attach(d)
			cs := hostnet.NewStack(n, client)
			ss := hostnet.NewStack(n, server)
			ss.Listen(443, hostnet.ListenOptions{SplitHandshake: true,
				OnData: func(c *hostnet.TCPConn, data []byte) { c.Send([]byte("OK")) }})
			conn := cs.Dial(ss.Addr(), 443, hostnet.DialOptions{})
			conn.OnEstablished = func() {
				conn.Send((&tlsx.ClientHelloSpec{ServerName: "meduza.io"}).Build())
			}
			s.Run()
			if !conn.ResetSeen && len(conn.Received) > 0 {
				evaded++
			}
		}
		b.ReportMetric(float64(evaded)/float64(b.N), "evasion-rate")
	}
	b.Run("syn-heuristic", func(b *testing.B) { run(b, false) })
	b.Run("strict-roles", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_TCPReassembly compares per-packet SNI inspection (the
// TSPU) against stream reassembly (GFW-style) on segmented ClientHellos:
// the reassembling device catches them, at a per-flow buffering cost.
func BenchmarkAblation_TCPReassembly(b *testing.B) {
	run := func(b *testing.B, reassemble bool) {
		caught := 0
		d, s := benchDevice(func(c *tspu.Config) { c.ReassembleTCP = reassemble })
		pipe := benchPipe{s}
		ch := (&tlsx.ClientHelloSpec{ServerName: "facebook.com", PaddingLen: 300}).Build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sport := uint16(20000 + i%30000)
			seg := 64
			for off := 0; off < len(ch); off += seg {
				end := off + seg
				if end > len(ch) {
					end = len(ch)
				}
				pkt := packet.NewTCP(benchSrc, benchDst, sport, 443, packet.FlagsPSHACK, uint32(off), 1, ch[off:end])
				d.Handle(pipe, pkt, netem.AtoB)
			}
		}
		b.StopTimer()
		if d.Stats().Triggers[tspu.SNI1] > 0 {
			caught = d.Stats().Triggers[tspu.SNI1]
		}
		b.ReportMetric(float64(caught)/float64(b.N), "detections/op")
	}
	b.Run("per-packet", func(b *testing.B) { run(b, false) })
	b.Run("stream-reassembly", func(b *testing.B) { run(b, true) })
}

// BenchmarkLabBuild measures topology construction cost at the default
// laptop scale.
func BenchmarkLabBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab := NewLab(benchOpts(uint64(i + 1)))
		if len(lab.Endpoints) == 0 {
			b.Fatal("empty lab")
		}
	}
}

// BenchmarkTable1Replica is one Table 1 fleet job: a default-scale lab and
// 100 trials per cell on it. It reports the build and the trials as separate
// metrics (time, heap allocations and heap bytes per lab build and per
// trial), so a change shows which half it moved. Bytes are reported beside
// the counts because the GC's cost follows bytes allocated.
func BenchmarkTable1Replica(b *testing.B) {
	const trialsPerCell = 100
	trials := len(measure.Vantages) * len(measure.ReliabilityTypes) * trialsPerCell
	var ms runtime.MemStats
	heap := func() (mallocs, bytes uint64) {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs, ms.TotalAlloc
	}
	var build, run time.Duration
	var buildAllocs, runAllocs, buildBytes, runBytes uint64
	for i := 0; i < b.N; i++ {
		m0, by0 := heap()
		t0 := time.Now()
		lab := topo.Build(topo.Options{Seed: uint64(i + 1)})
		t1 := time.Now()
		m1, by1 := heap()
		res := measure.Reliability(lab, trialsPerCell)
		t2 := time.Now()
		m2, by2 := heap()
		if len(res.Failures) != len(measure.Vantages) {
			b.Fatal("missing vantages")
		}
		build += t1.Sub(t0)
		run += t2.Sub(t1)
		buildAllocs += m1 - m0
		runAllocs += m2 - m1
		buildBytes += by1 - by0
		runBytes += by2 - by1
	}
	n := float64(b.N)
	b.ReportMetric(build.Seconds()*1e3/n, "build_ms")
	b.ReportMetric(run.Seconds()*1e6/(n*float64(trials)), "trial_us")
	b.ReportMetric(float64(buildAllocs)/n, "build_allocs")
	b.ReportMetric(float64(runAllocs)/(n*float64(trials)), "trial_allocs")
	b.ReportMetric(float64(buildBytes)/n, "build_bytes")
	b.ReportMetric(float64(runBytes)/(n*float64(trials)), "trial_bytes")
}

// BenchmarkAblation_InspectDepth sweeps the SNI parser's inspection depth
// and reports whether the padding-before-SNI evasion survives at each: the
// paper's padding strategy works only because the real device's inspection
// is bounded; a deeper parser patches it at linear extra cost.
func BenchmarkAblation_InspectDepth(b *testing.B) {
	padded := (&tlsx.ClientHelloSpec{
		ServerName: "facebook.com",
		ExtraExts:  []tlsx.Extension{{Type: tlsx.ExtensionPadding, Data: make([]byte, 600)}},
	}).Build()
	for _, depth := range []int{256, 512, 1024, 4096} {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			d, s := benchDevice(func(c *tspu.Config) { c.InspectDepth = depth })
			pipe := benchPipe{s}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pkt := packet.NewTCP(benchSrc, benchDst, uint16(20000+i%30000), 443,
					packet.FlagsPSHACK, 1, 1, padded)
				d.Handle(pipe, pkt, netem.AtoB)
			}
			b.StopTimer()
			caught := d.Stats().Triggers[tspu.SNI1] > 0
			evaded := 0.0
			if !caught {
				evaded = 1.0
			}
			b.ReportMetric(evaded, "padding-evades")
		})
	}
}

// --- Fleet orchestration ------------------------------------------------

// BenchmarkFleet_AllExperiments fans the full experiment registry across the
// worker pool, one whole-simulation job per experiment. The workers=1 case
// is the sequential baseline; on an 8-core runner workers=8 should finish
// the sweep ≥3× faster (jobs are independent CPU-bound simulations). The
// internal speedup estimate (summed job time / elapsed) is reported as a
// benchmark metric so the perf trajectory tracks parallel efficiency too.
func BenchmarkFleet_AllExperiments(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			speedup := 0.0
			for i := 0; i < b.N; i++ {
				opts := benchOpts(uint64(i + 1))
				rep := RunFleet(opts, IDs(), 1, 1, fleet.Config{Workers: workers})
				if n := len(rep.Failed()); n > 0 {
					b.Fatalf("%d jobs failed: %v", n, rep.Failed()[0].Err)
				}
				speedup += rep.Metrics.Speedup()
			}
			b.ReportMetric(speedup/float64(b.N), "speedup")
		})
	}
}

// BenchmarkFleet_MultiSeedTable1 is the paper-scale axis: Table 1's failure
// rates across many derived seeds (20 seeds × 2,000 trials ≈ the paper's
// 20,000-trial estimates) — the workload -seeds/-workers exist for.
func BenchmarkFleet_MultiSeedTable1(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := benchOpts(uint64(i + 1))
				rep := RunFleet(opts, []string{"table1"}, 8, 1, fleet.Config{Workers: workers})
				if len(rep.Failed()) > 0 {
					b.Fatal(rep.Failed()[0].Err)
				}
			}
		})
	}
}

// Extension-experiment benches: regeneration cost of the artifacts that go
// beyond the paper (DESIGN.md "Extensions").
func BenchmarkExt_Observatory(b *testing.B) { benchExperiment(b, "observatory") }
func BenchmarkExt_Timeline(b *testing.B)    { benchExperiment(b, "timeline") }
func BenchmarkExt_Exhaust(b *testing.B)     { benchExperiment(b, "exhaust") }
func BenchmarkExt_Evolve(b *testing.B)      { benchExperiment(b, "evolve") }
func BenchmarkExt_Residual(b *testing.B)    { benchExperiment(b, "residual") }
func BenchmarkExt_WebConn(b *testing.B)     { benchExperiment(b, "webconn") }
func BenchmarkExt_Propagation(b *testing.B) { benchExperiment(b, "propagation") }
