package measure

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

func seqLab(t *testing.T) *topo.Lab {
	t.Helper()
	return topo.Build(topo.Options{Seed: 4, Endpoints: 60, ASes: 6, TrancoN: 100, RegistryN: 100})
}

func TestClassifyNormalHandshake(t *testing.T) {
	lab := seqLab(t)
	v := ClassifySequence(lab, topo.ERTelecom, []Op{Ls, Rsa, La})
	if !v.SNI1Acts {
		t.Fatal("normal handshake should be a valid SNI-I prefix")
	}
	if !v.TriggerDelivered {
		t.Fatal("SNI-I trigger should be delivered")
	}
	if v.Green() {
		t.Fatal("normal handshake is not green")
	}
}

func TestClassifyRemoteFirstExempt(t *testing.T) {
	lab := seqLab(t)
	for _, seq := range [][]Op{{Rs}, {Rs, Ls}, {Rsa}, {Ra}, {Rs, Ls, Rsa}} {
		v := ClassifySequence(lab, topo.ERTelecom, seq)
		if v.SNI1Acts || v.SNI4Acts {
			t.Fatalf("remote-first %s triggered blocking", SeqString(seq))
		}
	}
}

func TestClassifySplitHandshakeGreen(t *testing.T) {
	lab := seqLab(t)
	v := ClassifySequence(lab, topo.ERTelecom, []Op{Ls, Rs, Lsa})
	if v.SNI1Acts {
		t.Fatal("split handshake should evade SNI-I")
	}
	if !v.SNI4Acts {
		t.Fatal("split handshake should hit the SNI-IV backup")
	}
	if !v.Green() {
		t.Fatal("expected green verdict")
	}
}

func TestExploreSequencesShape(t *testing.T) {
	lab := seqLab(t)
	res := ExploreSequences(lab, topo.ERTelecom, 2)
	total, valid, green, remoteFirst := res.Stats()
	if total != 1+6+36 {
		t.Fatalf("total = %d", total)
	}
	if remoteFirst != 0 {
		t.Fatalf("remote-first valid prefixes = %d, paper says 0", remoteFirst)
	}
	if valid == 0 || green == 0 {
		t.Fatalf("valid=%d green=%d", valid, green)
	}
	if res.Render().String() == "" {
		t.Fatal("empty render")
	}
}

func TestTable2Timeouts(t *testing.T) {
	lab := seqLab(t)
	rows := Table2(lab)
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[string]time.Duration{
		"SYN_SENT":    60 * time.Second,
		"SYN_RCVD":    105 * time.Second,
		"ESTABLISHED": 480 * time.Second,
		"SNI-I":       75 * time.Second,
		"SNI-II":      420 * time.Second,
		"SNI-IV":      40 * time.Second,
		"QUIC":        420 * time.Second,
	}
	for _, r := range rows {
		if !r.Found {
			t.Fatalf("%s: no timeout found", r.Label)
		}
		expect := want[r.State]
		diff := r.Timeout - expect
		if diff < 0 {
			diff = -diff
		}
		if diff > 2*time.Second {
			t.Errorf("%s (%s): measured %v, device configured %v", r.Label, r.State, r.Timeout, expect)
		}
	}
	if RenderTable2(rows).String() == "" {
		t.Fatal("render empty")
	}
}

func TestTable8Actions(t *testing.T) {
	lab := seqLab(t)
	rows := Table8(lab)
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	matches := 0
	for _, r := range rows {
		if r.Action == r.PaperAct {
			matches++
		} else {
			t.Logf("action mismatch on %s: measured %s, paper %s", r.Seq, r.Action, r.PaperAct)
		}
	}
	// The conntrack model is built to match all 16 PASS/DROP verdicts.
	if matches < 15 {
		t.Fatalf("only %d/16 actions match the paper", matches)
	}
	if RenderTable8(rows).String() == "" {
		t.Fatal("render empty")
	}
}

func TestReliabilitySmall(t *testing.T) {
	lab := seqLab(t)
	res := Reliability(lab, 150)
	for _, name := range []string{topo.Rostelecom, topo.ERTelecom, topo.OBIT} {
		for _, typ := range ReliabilityTypes {
			f, ok := res.Failures[name][typ]
			if !ok {
				t.Fatalf("missing cell %s/%v", name, typ)
			}
			if f < 0 || f > 0.2 {
				t.Fatalf("%s/%v failure rate = %v, expected small", name, typ, f)
			}
		}
	}
	// ER-Telecom must be the least reliable for SNI-II/SNI-IV/QUIC in
	// expectation; with 150 trials just assert its QUIC rate can exceed 0
	// while OBIT's stays 0 (OBIT's device has rate 0 configured).
	if res.Failures[topo.OBIT][tspu.QUICBlock] != 0 {
		t.Fatalf("OBIT QUIC failures = %v, configured 0", res.Failures[topo.OBIT][tspu.QUICBlock])
	}
	if res.Render() == "" {
		t.Fatal("render empty")
	}
}

// TestTable1BuildsNoEndpoint: Table 1 probes from the vantages to the US and
// Paris machines only, so on a default lab it must leave every scan endpoint
// a plain record, with no host, access link or stack built: no link may
// carry an endpoint address.
func TestTable1BuildsNoEndpoint(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 1})
	Reliability(lab, 5)
	endpoint := make(map[netip.Addr]bool, len(lab.Endpoints))
	for _, ep := range lab.Endpoints {
		endpoint[ep.Addr] = true
	}
	for _, l := range lab.Net.Links() {
		if endpoint[l.A().Addr()] || endpoint[l.B().Addr()] {
			t.Fatalf("Table 1 built the endpoint on %s -- %s", l.A(), l.B())
		}
	}
}

// TestTable1TrialAllocs bounds the heap allocations of a warmed Table 1
// trial at half the 27 they took when every trial allocated its packets,
// payload copies and QUIC trigger afresh.
func TestTable1TrialAllocs(t *testing.T) {
	const perCell, before = 20, 27
	lab := topo.Build(topo.Options{Seed: 1})
	trials := float64(len(Vantages) * len(ReliabilityTypes) * perCell)
	// AllocsPerRun's own warm-up run fills the free lists and pools.
	allocs := testing.AllocsPerRun(1, func() { Reliability(lab, perCell) }) / trials
	if allocs > before/2 {
		t.Fatalf("a Table 1 trial allocates %.1f times, want at most %d (half of %d)", allocs, before/2, before)
	}
}

// TestTable1LiveHeapFlat: trials release the endpoint state they cause
// (server connections, the IP-block trial's listener), so a lab's live heap
// after 300 trials per cell is within 5% of its live heap after 100. Each
// device's table is bounded: a device keeps a flow for its Table 2 lifetime
// (up to 480 s), so over this short window an unbounded table grows by
// every trial's flows however the endpoints behave
// (TestTable1ConntrackPlateaus covers the long run).
func TestTable1LiveHeapFlat(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 1})
	for _, d := range lab.Devices {
		d.SetMaxFlows(64)
	}
	live := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	Reliability(lab, 100)
	at100 := live()
	Reliability(lab, 200)
	at300 := live()
	runtime.KeepAlive(lab)
	t.Logf("live heap %.0f B after 100 trials/cell, %.0f B after 300", at100, at300)
	if growth := at300/at100 - 1; growth >= 0.05 || growth <= -0.05 {
		t.Fatalf("live heap %.0f B after 100 trials/cell, %.0f B after 300 (%+.1f%%), want within 5%%", at100, at300, 100*growth)
	}
}

// TestTable1ConntrackPlateaus: a lab's devices sweep the conntrack entries
// whose Table 2 lifetime has passed, so once trials have run longer than the
// longest lifetime the flows a lab holds stop growing: the sum of
// ConntrackSize over the lab's devices after 2,400 trials per cell is
// within 1% of the sum after 1,600. A device that reclaimed an expired
// entry only when its own key came back would hold every trial's flows.
func TestTable1ConntrackPlateaus(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 1})
	flows := func() int {
		n := 0
		for _, d := range lab.Devices {
			n += d.ConntrackSize()
		}
		return n
	}
	// Trials run 400 per cell at a time, so both sums are read at the same
	// point of a call's cell order, after the same cell.
	for range 4 {
		Reliability(lab, 400)
	}
	at1600 := flows()
	for range 2 {
		Reliability(lab, 400)
	}
	at2400 := flows()
	t.Logf("conntrack entries over all devices: %d after 1,600 trials/cell, %d after 2,400", at1600, at2400)
	if growth := float64(at2400)/float64(at1600) - 1; growth >= 0.01 || growth <= -0.01 {
		t.Fatalf("conntrack entries %d after 1,600 trials/cell, %d after 2,400 (%+.1f%%), want within 1%%", at1600, at2400, 100*growth)
	}
}

func TestReliabilityConcurrencyInvariance(t *testing.T) {
	// Per-flow state means batched trials measure the same failure rate as
	// sequential ones (§5.2.1's concurrency check).
	lab := seqLab(t)
	seq := ReliabilityConcurrent(lab, topo.ERTelecom, 200, 1)
	batched := ReliabilityConcurrent(lab, topo.ERTelecom, 200, 25)
	// ER-Telecom's SNI-I rate is configured 0: both must be 0 exactly.
	if seq != 0 || batched != 0 {
		t.Fatalf("seq=%v batched=%v, want 0 for ER-Telecom SNI-I", seq, batched)
	}
	// Rostelecom has a non-zero rate; batched and sequential must agree
	// within sampling noise.
	seqRT := ReliabilityConcurrent(lab, topo.Rostelecom, 400, 1)
	batchedRT := ReliabilityConcurrent(lab, topo.Rostelecom, 400, 40)
	diff := seqRT - batchedRT
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05 {
		t.Fatalf("concurrency changed the failure rate: %v vs %v", seqRT, batchedRT)
	}
}
