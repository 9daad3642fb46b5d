package armsrace

import (
	"strings"
	"testing"
	"time"

	"tspusim/internal/circumvent"
	"tspusim/internal/measure"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
)

// The full-race ledger, corpus replay, and worker-independence pins live in
// the root package (armsrace_golden_test.go) next to the other experiment
// goldens; this file covers the package's own moving parts.

func TestContainsFold(t *testing.T) {
	needle := foldBytes("rferl.org")
	for _, tc := range []struct {
		hay  string
		want bool
	}{
		{"rferl.org", true},
		{"xxRFERL.ORGxx", true},
		{"RfErL.oRg", true},
		{"rferl.or", false},
		{"", false},
		{"rferl_org", false},
	} {
		if got := containsFold([]byte(tc.hay), needle); got != tc.want {
			t.Errorf("containsFold(%q) = %v, want %v", tc.hay, got, tc.want)
		}
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"segment(64)":                "segment-64",
		"junk(ttl=5)":                "junk-ttl-5",
		"srv-delay(61s)":             "srv-delay-61s",
		"segment(16)+prepend-record": "segment-16-prepend-record",
	} {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMenusAreCoherent pins menu-table integrity: every countermeasure must
// carry exactly one mechanism (tspu config knob or watcher), a Defeats
// predicate, and a unique name within its family.
func TestMenusAreCoherent(t *testing.T) {
	for _, fam := range Families() {
		names := map[string]bool{}
		for _, cm := range fam.Menu {
			if names[cm.Name] {
				t.Errorf("%s: duplicate countermeasure %q", fam.Name, cm.Name)
			}
			names[cm.Name] = true
			if cm.Defeats == nil {
				t.Errorf("%s/%s: nil Defeats", fam.Name, cm.Name)
			}
			if (cm.Reconfig == nil) == (cm.Watcher == nil) {
				t.Errorf("%s/%s: want exactly one of Reconfig/Watcher", fam.Name, cm.Name)
			}
			if cm.Reconfig != nil && fam.Name != "tspu" {
				t.Errorf("%s/%s: config countermeasures only apply to the tspu", fam.Name, cm.Name)
			}
		}
	}
	if _, ok := FamilyByName("tspu"); !ok {
		t.Error("FamilyByName cannot resolve tspu")
	}
	if _, ok := FamilyByName("nosuch"); ok {
		t.Error("FamilyByName resolved a nonexistent family")
	}
	fam, _ := FamilyByName("tm")
	if _, ok := menuByName(fam, []string{"frag-reassembly", "stream-scan"}); !ok {
		t.Error("menuByName failed on valid posture")
	}
	if _, ok := menuByName(fam, []string{"reassemble-tcp"}); ok {
		t.Error("menuByName resolved a tspu-only countermeasure for tm")
	}
}

// TestWatchersCounterKnownEvasions drives each watcher end-to-end on a real
// testbed: the evasion it claims to defeat must flip from evades to blocked
// when the watcher is attached in front of the censor, and the baseline noop
// must stay blocked either way (no overblocking of the reply path).
func TestWatchersCounterKnownEvasions(t *testing.T) {
	tm, _ := FamilyByName("tm")
	cases := []struct {
		name   string
		cmName string
		genome circumvent.Genome
	}{
		{"frag-reassembly kills fragmentation", "frag-reassembly", circumvent.Genome{FragmentPayload: 64}},
		{"stream-scan kills segmentation", "stream-scan", circumvent.Genome{SegmentSize: 64}},
		{"stream-scan kills record-prepending", "stream-scan", circumvent.Genome{PrependRecord: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cms, ok := menuByName(tm, []string{tc.cmName})
			if !ok {
				t.Fatalf("unknown countermeasure %s", tc.cmName)
			}
			before := runTrial(tm, tm.Probe, nil, tc.genome, nil)
			if !before.Evaded {
				t.Fatalf("%s should evade baseline tm, got %s", tc.genome, before)
			}
			after := runTrial(tm, tm.Probe, cms, tc.genome, nil)
			if after.Evaded {
				t.Fatalf("%s should be blocked under %s, got %s", tc.genome, tc.cmName, after)
			}
			control := runTrial(tm, tm.Probe, cms, circumvent.Genome{}, nil)
			if control.Evaded {
				t.Fatalf("noop should stay blocked under %s, got %s", tc.cmName, control)
			}
		})
	}
}

// TestByteScanCountersPrependRecord: the tspu's parser-bypass countermeasure
// must kill record-prepending while the reassemble knob alone does not.
func TestByteScanCountersPrependRecord(t *testing.T) {
	tspuFam, _ := FamilyByName("tspu")
	g := circumvent.Genome{PrependRecord: true}
	if v := runTrial(tspuFam, tspuFam.Probe, nil, g, nil); !v.Evaded {
		t.Fatalf("prepend-record should evade baseline tspu, got %s", v)
	}
	cms, _ := menuByName(tspuFam, []string{"byte-scan"})
	if v := runTrial(tspuFam, tspuFam.Probe, cms, g, nil); v.Evaded {
		t.Fatalf("prepend-record should be blocked under byte-scan, got %s", v)
	}
}

// TestTraceUnknownInputs: the replayer must reject stale corpus headers
// instead of silently replaying something else.
func TestTraceUnknownInputs(t *testing.T) {
	if _, err := Trace(TraceHeader{Family: "nosuch", Genome: "segment(64)"}); err == nil {
		t.Error("Trace accepted an unknown family")
	}
	if _, err := Trace(TraceHeader{Family: "tspu", Posture: []string{"frag-reassembly"}, Genome: "segment(64)"}); err == nil {
		t.Error("Trace accepted a posture not on the family's menu")
	}
	if _, err := Trace(TraceHeader{Family: "tspu", Genome: "segment(007)"}); err == nil {
		t.Error("Trace accepted an undecodable genome")
	}
	if _, err := ParseTraceHeader("no headers here\n"); err == nil {
		t.Error("ParseTraceHeader accepted content without header lines")
	}
}

// recordPipe satisfies netem.Pipe for driving watcher Handle directly; it
// records injections and scheduled timers so tests can fire them by hand.
type recordPipe struct {
	injected []*packet.Packet
	timers   []func()
}

func (p *recordPipe) Inject(pkt *packet.Packet, dir netem.Direction) {
	p.injected = append(p.injected, pkt)
}
func (p *recordPipe) Now() time.Duration               { return 0 }
func (p *recordPipe) After(d time.Duration, fn func()) { p.timers = append(p.timers, fn) }

// TestFragReassembler covers both fates of a fragment queue: a completed
// queue re-injects the reassembled whole, and an incomplete one is garbage
// collected by its timeout instead of being retained forever.
func TestFragReassembler(t *testing.T) {
	src, dst := packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10")
	whole := packet.NewTCP(src, dst, 40000, 443, packet.FlagsPSHACK, 100, 200,
		[]byte("GET / HTTP/1.1\r\nHost: rferl.org\r\n\r\n"))
	frags, err := packet.FragmentCount(whole, 2)
	if err != nil || len(frags) != 2 {
		t.Fatalf("FragmentCount: %v (%d frags)", err, len(frags))
	}

	m := newFragReassembler(netem.AtoB)
	pipe := &recordPipe{}

	// Complete queue: both fragments dropped, whole re-injected.
	if got := m.Handle(pipe, frags[0], netem.AtoB); got != netem.Drop {
		t.Fatalf("first fragment: got %v, want Drop", got)
	}
	if m.reasm.Pending() != 1 {
		t.Fatalf("queue not buffered: %d queues", m.reasm.Pending())
	}
	if got := m.Handle(pipe, frags[1], netem.AtoB); got != netem.Drop {
		t.Fatalf("second fragment: got %v, want Drop", got)
	}
	if m.Reassembled != 1 || len(pipe.injected) != 1 {
		t.Fatalf("want 1 reassembly+injection, got %d/%d", m.Reassembled, len(pipe.injected))
	}
	if got := pipe.injected[0].TCP; got == nil || !strings.Contains(string(got.Payload), "rferl.org") {
		t.Fatal("reassembled packet lost its payload")
	}
	if m.reasm.Pending() != 0 {
		t.Fatal("completed queue not deleted")
	}

	// Completed queue's timer must be a no-op (identity-checked closure).
	for _, fire := range pipe.timers {
		fire()
	}

	// Incomplete queue: one fragment, then the timeout collects it.
	pipe.timers = nil
	m.Handle(pipe, frags[0].Clone(), netem.AtoB)
	if m.reasm.Pending() != 1 || len(pipe.timers) != 1 {
		t.Fatalf("want 1 pending queue with 1 timer, got %d/%d", m.reasm.Pending(), len(pipe.timers))
	}
	pipe.timers[0]()
	if m.reasm.Pending() != 0 {
		t.Fatal("incomplete queue not garbage collected by timeout")
	}

	// Wrong direction and non-fragments pass through untouched.
	if got := m.Handle(pipe, frags[0].Clone(), netem.BtoA); got != netem.Pass {
		t.Fatalf("reverse direction: got %v, want Pass", got)
	}
	if got := m.Handle(pipe, whole, netem.AtoB); got != netem.Pass {
		t.Fatalf("non-fragment: got %v, want Pass", got)
	}
}

// TestStreamScanCrossPacket: the stream scanner must match a needle split
// across two segments and tear the flow down with a TM-style RST pair.
func TestStreamScanCrossPacket(t *testing.T) {
	src, dst := packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10")
	m := newStreamScan(measure.CrossBlockedDomain, netem.AtoB)
	pipe := &recordPipe{}

	a := packet.NewTCP(src, dst, 40000, 443, packet.FlagsPSHACK, 100, 200, []byte("xxRFER"))
	b := packet.NewTCP(src, dst, 40000, 443, packet.FlagsPSHACK, 106, 200, []byte("L.orgxx"))
	if got := m.Handle(pipe, a, netem.AtoB); got != netem.Pass {
		t.Fatalf("first segment: got %v, want Pass", got)
	}
	if got := m.Handle(pipe, b, netem.AtoB); got != netem.Drop {
		t.Fatalf("completing segment: got %v, want Drop", got)
	}
	if m.Hits != 1 || len(pipe.injected) != 2 {
		t.Fatalf("want 1 hit with an RST pair, got %d hits / %d injections", m.Hits, len(pipe.injected))
	}
	for _, rst := range pipe.injected {
		if rst.TCP.Flags != packet.FlagsRSTACK {
			t.Fatalf("injected packet is not RST+ACK: %v", rst.TCP.Flags)
		}
	}
	// Stragglers on a fired flow are eaten.
	if got := m.Handle(pipe, b.Clone(), netem.AtoB); got != netem.Drop {
		t.Fatalf("straggler after teardown: got %v, want Drop", got)
	}
}

// TestRaceSmallConfig is the in-package smoke: a trimmed race still finds at
// least one pin against the tspu and is deterministic across two runs.
func TestRaceSmallConfig(t *testing.T) {
	famAll := Families()
	cfg := Config{Rounds: 2, Population: 8, Generations: 3, PinsPerRound: 2, Workers: 1,
		Families: famAll[:1]} // tspu only
	a := Run(cfg)
	if len(a.Families) != 1 || len(a.Families[0].Pins) < 1 {
		t.Fatalf("trimmed race found no tspu pins:\n%s", a.Render().String())
	}
	if b := Run(cfg); a.Render().String() != b.Render().String() {
		t.Fatal("trimmed race is not deterministic across runs")
	}
	if !strings.Contains(a.Render().String(), "tspu") {
		t.Fatal("ledger missing family name")
	}
}
