package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tspusim/internal/dnsx"
	"tspusim/internal/hostnet"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/registry"
	"tspusim/internal/tlsx"
)

func smallLab(t *testing.T) *Lab {
	t.Helper()
	return Build(Options{Seed: 1, Endpoints: 200, ASes: 12, EchoServers: 30, TrancoN: 300, RegistryN: 300})
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(Options{Seed: 5, Endpoints: 100, ASes: 8, TrancoN: 100, RegistryN: 100})
	b := Build(Options{Seed: 5, Endpoints: 100, ASes: 8, TrancoN: 100, RegistryN: 100})
	if len(a.Endpoints) != len(b.Endpoints) {
		t.Fatal("endpoint counts differ")
	}
	for i := range a.Endpoints {
		ea, eb := a.Endpoints[i], b.Endpoints[i]
		if ea.Addr != eb.Addr || ea.Port != eb.Port || ea.BehindTSPU != eb.BehindTSPU {
			t.Fatalf("endpoint %d differs: %+v vs %+v", i, ea, eb)
		}
	}
	if len(a.Devices) != len(b.Devices) {
		t.Fatal("device counts differ")
	}
}

func TestVantagesReachUS(t *testing.T) {
	l := smallLab(t)
	l.US1.Listen(443, hostnet.ListenOptions{})
	for name, v := range l.Vantages {
		conn := v.Stack.Dial(l.US1.Addr(), 443, hostnet.DialOptions{})
		l.Sim.Run()
		if conn.State != hostnet.StateEstablished {
			t.Fatalf("%s cannot reach US measurement machine: %v", name, conn.State)
		}
		conn.Close()
	}
}

func TestVantagesBlockedOnTriggerSNI(t *testing.T) {
	l := smallLab(t)
	l.US1.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) { c.Send([]byte("SERVERHELLO")) },
	})
	ch := (&tlsx.ClientHelloSpec{ServerName: "twitter.com"}).Build()
	for name, v := range l.Vantages {
		conn := v.Stack.Dial(l.US1.Addr(), 443, hostnet.DialOptions{})
		conn.OnEstablished = func() { conn.Send(ch) }
		l.Sim.Run()
		if !conn.ResetSeen {
			t.Fatalf("%s: twitter.com CH not blocked", name)
		}
		conn.Close()
	}
}

func TestControlDomainUnblocked(t *testing.T) {
	l := smallLab(t)
	l.US1.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) { c.Send([]byte("SERVERHELLO")) },
	})
	ch := (&tlsx.ClientHelloSpec{ServerName: "control-not-blocked.example"}).Build()
	for name, v := range l.Vantages {
		conn := v.Stack.Dial(l.US1.Addr(), 443, hostnet.DialOptions{})
		conn.OnEstablished = func() { conn.Send(ch) }
		l.Sim.Run()
		if conn.ResetSeen || len(conn.Received) == 0 {
			t.Fatalf("%s: control domain interfered with", name)
		}
		conn.Close()
	}
}

func TestUniformBlockingAcrossVantages(t *testing.T) {
	// The same registry domain must be blocked (or not) identically at all
	// three vantages: the §5.1 uniformity criterion.
	l := smallLab(t)
	l.US1.Listen(443, hostnet.ListenOptions{})
	for _, d := range l.Registry[:40] {
		verdicts := map[string]bool{}
		for name, v := range l.Vantages {
			ch := (&tlsx.ClientHelloSpec{ServerName: d.Name}).Build()
			conn := v.Stack.Dial(l.US1.Addr(), 443, hostnet.DialOptions{})
			conn.OnEstablished = func() { conn.Send(ch) }
			l.Sim.Run()
			verdicts[name] = conn.ResetSeen
			conn.Close()
		}
		if verdicts[Rostelecom] != verdicts[ERTelecom] || verdicts[ERTelecom] != verdicts[OBIT] {
			t.Fatalf("domain %s verdicts differ: %v", d.Name, verdicts)
		}
	}
}

func TestTorIPBlocked(t *testing.T) {
	l := smallLab(t)
	for name, v := range l.Vantages {
		conn := v.Stack.Dial(l.TorAddr, 9001, hostnet.DialOptions{})
		l.Sim.Run()
		if len(conn.Packets) != 0 {
			t.Fatalf("%s reached the blocked Tor IP", name)
		}
		conn.Close()
	}
	// The Paris measurement machine in the same DC is NOT blocked (control).
	l.Paris.Listen(9001, hostnet.ListenOptions{})
	v := l.Vantages[ERTelecom]
	conn := v.Stack.Dial(l.Paris.Addr(), 9001, hostnet.DialOptions{})
	l.Sim.Run()
	if conn.State != hostnet.StateEstablished {
		t.Fatal("Paris control machine unreachable")
	}
}

func TestISPResolverBlockpages(t *testing.T) {
	l := smallLab(t)
	v := l.Vantages[OBIT]
	cl := dnsx.NewClient(v.Stack, v.ResolverAddr)
	// Pick a domain on the ISP blocklist.
	var target string
	for _, d := range l.Registry {
		if v.ISPBlocklist().Contains(d.Name) {
			target = d.Name
			break
		}
	}
	if target == "" {
		t.Fatal("ISP blocklist empty")
	}
	var got *dnsx.Message
	cl.Lookup(target, func(m *dnsx.Message) { got = m })
	l.Sim.Run()
	if got == nil || len(got.Answers) == 0 || got.Answers[0].Addr != v.Blockpage {
		t.Fatalf("blockpage not returned: %+v", got)
	}
}

func TestBlockpageServesHTML(t *testing.T) {
	l := smallLab(t)
	v := l.Vantages[ERTelecom]
	conn := v.Stack.Dial(v.Blockpage, 80, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send([]byte("GET / HTTP/1.1\r\n\r\n")) }
	l.Sim.Run()
	if len(conn.Received) == 0 {
		t.Fatal("no blockpage content")
	}
}

func TestISPBlocklistsAreStaleSubsets(t *testing.T) {
	l := smallLab(t)
	rt := l.Vantages[Rostelecom].ISPBlocklist().Len()
	obit := l.Vantages[OBIT].ISPBlocklist().Len()
	ert := l.Vantages[ERTelecom].ISPBlocklist().Len()
	if !(rt < obit && obit < ert) {
		t.Fatalf("blocklist sizes rt=%d obit=%d ert=%d, want rt < obit < ert", rt, obit, ert)
	}
	if l.RegistryTSPUBlocked <= ert {
		t.Fatalf("TSPU coverage %d not above best ISP %d", l.RegistryTSPUBlocked, ert)
	}
}

func TestVantageDeviceCounts(t *testing.T) {
	l := smallLab(t)
	if n := len(l.Vantages[ERTelecom].Devices); n != 1 {
		t.Fatalf("ER-Telecom devices = %d, want 1", n)
	}
	if n := len(l.Vantages[Rostelecom].Devices); n != 2 {
		t.Fatalf("Rostelecom devices = %d, want 2", n)
	}
	if n := len(l.Vantages[OBIT].Devices); n != 3 {
		t.Fatalf("OBIT devices = %d, want 3 (sym + two transit)", n)
	}
}

func TestEndpointsRespondToProbes(t *testing.T) {
	l := smallLab(t)
	responded := 0
	for _, ep := range l.Endpoints[:50] {
		conn := l.Paris.Dial(ep.Addr, ep.Port, hostnet.DialOptions{})
		l.Sim.Run()
		if conn.State == hostnet.StateEstablished {
			responded++
		}
		conn.Close()
	}
	if responded != 50 {
		t.Fatalf("only %d/50 endpoints respond to plain SYN", responded)
	}
}

func TestEndpointPopulationShape(t *testing.T) {
	l := Build(Options{Seed: 3, Endpoints: 4000, ASes: 160, TrancoN: 100, RegistryN: 100})
	behind := 0
	byPort := map[uint16]int{}
	byPortTSPU := map[uint16]int{}
	echo := 0
	for _, ep := range l.Endpoints {
		if ep.BehindTSPU {
			behind++
			byPortTSPU[ep.Port]++
		}
		byPort[ep.Port]++
		if ep.Echo {
			echo++
		}
	}
	frac := float64(behind) / float64(len(l.Endpoints))
	if frac < 0.15 || frac > 0.38 {
		t.Fatalf("TSPU-positive fraction = %.3f, want near the paper's 0.2531", frac)
	}
	if byPort[7547] == 0 || byPort[80] == 0 {
		t.Fatal("missing port populations")
	}
	frac7547 := float64(byPortTSPU[7547]) / float64(byPort[7547])
	frac80 := float64(byPortTSPU[80]) / float64(byPort[80])
	// Fig. 9: hosts with port 7547 open are far more likely to sit behind a
	// TSPU than hosts on server ports like 80 (paper: >3x at 4M endpoints;
	// at lab scale the per-AS sampling noise admits ~1.5x as the floor).
	if frac7547 < 1.5*frac80 {
		t.Fatalf("port 7547 rate %.2f not strongly above port 80 rate %.2f", frac7547, frac80)
	}
	if echo < 20 {
		t.Fatalf("echo servers = %d", echo)
	}
}

func TestDeviceDepthDistribution(t *testing.T) {
	l := Build(Options{Seed: 9, Endpoints: 4000, ASes: 150, TrancoN: 100, RegistryN: 100})
	within2, total := 0, 0
	for _, ep := range l.Endpoints {
		if ep.DeviceHops > 0 && ep.BehindTSPU {
			total++
			if ep.DeviceHops <= 2 {
				within2++
			}
		}
	}
	if total == 0 {
		t.Fatal("no devices placed")
	}
	frac := float64(within2) / float64(total)
	if frac < 0.45 || frac > 0.95 {
		t.Fatalf("within-2-hops fraction = %.2f, want near the paper's ~0.69", frac)
	}
}

func TestEchoServersEcho(t *testing.T) {
	l := smallLab(t)
	var echoEp *Endpoint
	for _, ep := range l.Endpoints {
		if ep.Echo && !ep.BehindTSPU && !ep.BehindUpstreamOnly {
			echoEp = ep
			break
		}
	}
	if echoEp == nil {
		t.Skip("no clean echo endpoint in this seed")
	}
	conn := l.Paris.Dial(echoEp.Addr, 7, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send([]byte("probe")) }
	l.Sim.Run()
	if string(conn.Received) != "probe" {
		t.Fatalf("echo = %q", conn.Received)
	}
}

func TestFragScanGroundTruthSignal(t *testing.T) {
	// For a symmetric-TSPU endpoint: fragmented SYN with 45 fragments gets a
	// SYN/ACK, 46 gets silence. For a clean endpoint both respond.
	l := smallLab(t)
	var tspuEp, cleanEp *Endpoint
	for _, ep := range l.Endpoints {
		if ep.BehindTSPU && tspuEp == nil {
			tspuEp = ep
		}
		if !ep.BehindTSPU && !ep.BehindUpstreamOnly && cleanEp == nil {
			cleanEp = ep
		}
	}
	if tspuEp == nil || cleanEp == nil {
		t.Fatal("missing endpoint types")
	}
	probe := func(ep *Endpoint, frags int, id uint16) bool {
		got := false
		sport := l.Paris.EphemeralPort()
		p := packet.NewTCP(l.Paris.Addr(), ep.Addr, sport, ep.Port, packet.FlagSYN, 1, 0, nil)
		p.IP.ID = id
		fs, err := packet.FragmentCount(p, frags)
		if err != nil {
			t.Fatal(err)
		}
		l.Paris.ClearTaps()
		l.Paris.Tap(func(pk *packet.Packet) {
			if pk.TCP != nil && pk.TCP.Flags.Has(packet.FlagsSYNACK) && pk.IP.Src == ep.Addr && pk.TCP.DstPort == sport {
				got = true
			}
		})
		for _, f := range fs {
			l.Paris.Send(f)
		}
		l.Sim.Run()
		return got
	}
	if !probe(tspuEp, 45, 1001) {
		t.Fatal("TSPU endpoint: 45 fragments got no response")
	}
	if probe(tspuEp, 46, 1002) {
		t.Fatal("TSPU endpoint: 46 fragments got a response")
	}
	if !probe(cleanEp, 45, 1003) || !probe(cleanEp, 46, 1004) {
		t.Fatal("clean endpoint failed 45/46 control")
	}
}

// registryDumpDigest is the SHA-256 of smallLab's marshalled registry dump,
// recorded when the dump was still made at build.
const registryDumpDigest = "3ef2089fb6b1980032e86f175444b42afb8ba917b37f6531a0b59f2114fdb430"

func TestRegistryDumpMatchesSample(t *testing.T) {
	l := smallLab(t)
	dump := l.RegistryDump()
	if len(dump) != len(l.Registry) {
		t.Fatalf("dump entries = %d, registry = %d", len(dump), len(l.Registry))
	}
	// Made on first use, the dump is the one the build used to make, and a
	// second call returns it again.
	if sum := sha256.Sum256(registry.Marshal(dump)); hex.EncodeToString(sum[:]) != registryDumpDigest {
		t.Fatalf("registry dump digest = %x, want %s", sum, registryDumpDigest)
	}
	if again := l.RegistryDump(); &again[0] != &dump[0] {
		t.Fatal("second RegistryDump call made a new dump")
	}
	// Every dump entry's domain is in the sample and carries metadata.
	names := map[string]bool{}
	for _, d := range l.Registry {
		names[d.Name] = true
	}
	for _, e := range dump {
		if !names[e.Domain] {
			t.Fatalf("dump domain %q not in sample", e.Domain)
		}
		if e.Added.IsZero() || len(e.IPs) == 0 || e.Agency == "" {
			t.Fatalf("incomplete entry: %+v", e)
		}
	}
}

func TestUpstreamOnlyDevicesNeverSeeDownstream(t *testing.T) {
	// The structural invariant behind §7.1.1: every upstream-only device's
	// entire traffic history is local→remote. Drive bidirectional traffic
	// everywhere, then check the OBIT transit devices saw only one way.
	l := smallLab(t)
	l.US1.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) { c.Send([]byte("resp")) },
	})
	l.Paris.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) { c.Send([]byte("resp")) },
	})
	for _, dst := range []*hostnet.Stack{l.US1, l.Paris} {
		for _, v := range l.Vantages {
			conn := v.Stack.Dial(dst.Addr(), 443, hostnet.DialOptions{})
			conn.OnEstablished = func() { conn.Send([]byte("hello-data")) }
			l.Sim.Run()
			conn.Close()
		}
	}
	// OBIT's transit devices are indices 1 and 2 (sym is 0).
	obit := l.Vantages[OBIT]
	for _, dev := range obit.Devices[1:] {
		if dev.Stats().Handled == 0 {
			continue // the rascom device only sees Paris-bound flows
		}
		if dev.Stats().Rewritten > 0 {
			t.Fatalf("%s rewrote downstream traffic it should never see", dev.Name())
		}
	}
	if obit.Devices[0].Stats().Handled == 0 {
		t.Fatal("symmetric device idle")
	}
}

func TestTopologyDOT(t *testing.T) {
	l := smallLab(t)
	dot, full := l.TopologyDOT(false), l.TopologyDOT(true)
	// Both graphs are as they were when every endpoint was built with the
	// lab (digests recorded then): the collapsed one needs no endpoint, and
	// the full one builds them all and lists their links in build order.
	for _, g := range []struct{ dot, want string }{
		{dot, "cd8b87af2c1e2bbf6be28a389efd0e925e2b8dc3ec1d2367efbbce846df30925"},
		{full, "e17f870463dc95f1d6ea4af02281b30029fef76dfe721baacafcf833becfb574"},
	} {
		if sum := sha256.Sum256([]byte(g.dot)); hex.EncodeToString(sum[:]) != g.want {
			t.Fatalf("DOT digest = %x, want %s", sum, g.want)
		}
	}
	for _, want := range []string{"graph tspusim", "TSPU", "ru-core", "tor-node"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q", want)
		}
	}
	if len(full) <= len(dot) {
		t.Fatal("includeEndpoints did not grow the graph")
	}
}

// TestAddressPlanUnique checks that the default lab hands out every
// interface address once, and that options outgrowing the address plan
// panic, naming the option to change, instead of wrapping a byte of the plan
// into duplicate addresses.
func TestAddressPlanUnique(t *testing.T) {
	lab := Build(Options{Seed: 1})
	for _, ep := range lab.Endpoints {
		ep.Stack()
	}
	owner := make(map[netip.Addr]string)
	for _, link := range lab.Net.Links() {
		for _, ifc := range []*netem.Iface{link.A(), link.B()} {
			if prev, dup := owner[ifc.Addr()]; dup {
				t.Fatalf("%v is on both %s and %s", ifc.Addr(), prev, ifc.Node().Name())
			}
			owner[ifc.Addr()] = ifc.Node().Name()
		}
	}
	for _, ep := range lab.Endpoints {
		if owner[ep.Addr] != ep.Stack().Node().Name() {
			t.Fatalf("endpoint %v is not its host's linked address", ep.Addr)
		}
	}

	for _, tc := range []struct {
		opts Options
		want string
	}{
		// A POP's /24 overflows before anything else.
		{Options{Seed: 1, Endpoints: 20000, ASes: 40}, "/24 holds 246; lower Options.Endpoints"},
		// Small POPs, but more links than the transfer block holds.
		{Options{Seed: 1, Endpoints: 40000, ASes: 400}, "transfer block; lower Options.Endpoints"},
	} {
		t.Run(fmt.Sprintf("endpoints=%d,ases=%d", tc.opts.Endpoints, tc.opts.ASes), func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want it to contain %q", msg, tc.want)
				}
			}()
			Build(tc.opts)
		})
	}
}

// planDigest hashes a lab's network: every node name, interface address,
// link (both ends, delay and middlebox chain) and route, one line each,
// sorted, so the digest does not depend on the order anything was built in.
func planDigest(l *Lab) string {
	var lines []string
	seen := map[*netem.Node]bool{}
	for _, link := range l.Net.Links() {
		var mbs []string
		for _, mb := range link.Middleboxes() {
			mbs = append(mbs, mb.Name())
		}
		a, b := link.A(), link.B()
		lines = append(lines, fmt.Sprintf("link %s/%s %s/%s %v %v", a.Node().Name(), a.Addr(), b.Node().Name(), b.Addr(), linkDelay, mbs))
		for _, ifc := range []*netem.Iface{a, b} {
			nd := ifc.Node()
			lines = append(lines, "iface "+nd.Name()+" "+ifc.Addr().String())
			if seen[nd] {
				continue
			}
			seen[nd] = true
			lines = append(lines, fmt.Sprintf("node %s router=%v", nd.Name(), nd.IsRouter()))
			for _, r := range nd.Routes() {
				lines = append(lines, fmt.Sprintf("route %s %s %s", nd.Name(), r.Prefix, r.Out.Addr()))
			}
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, s := range lines {
		io.WriteString(h, s+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlanDigest checks that building endpoints on demand leaves the network
// what it was when the lab built all of them up front: the digest of the
// seed-1 default lab with every endpoint built was recorded from the eager
// build. Endpoints are built back to front, the order furthest from the
// plan's.
func TestPlanDigest(t *testing.T) {
	const want = "0566dc8fbdb5692cacc103625b06ff11207eae8ee9a473efa8f5ddf09f0d239d"
	l := Build(Options{Seed: 1})
	for i := len(l.Endpoints) - 1; i >= 0; i-- {
		l.Endpoints[i].Stack()
	}
	if got := planDigest(l); got != want {
		t.Fatalf("plan digest = %s, want %s", got, want)
	}
}

// TestLabBuildAllocs holds the cost of a default seed-1 lab build under two
// ceilings just above what it takes now, about 2,900 allocations and
// 1.28 MB. The build took 37,919 allocations when it made every endpoint
// and the registry dump up front, and 9,863 (1.79 MB) when it also made the
// ISP blocklists, one string per generated name and every device lane's
// maps up front. One string per name (about +4,000 allocations) fails the
// count; eager ISP lists, whose entries share the generated names and so
// cost few allocations, fail the bytes (+0.39 MB).
func TestLabBuildAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 3500, 1_450_000
	Build(Options{Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Build(Options{Seed: 1})
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs >= maxAllocs {
		t.Errorf("topo.Build allocates %d times, want under %d", allocs, maxAllocs)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= maxBytes {
		t.Errorf("topo.Build allocates %d bytes, want under %d", bytes, maxBytes)
	}
}
