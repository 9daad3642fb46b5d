package conformance

import (
	"fmt"
	"slices"
	"time"

	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// GenDomains is the SNI pool scenarios draw from: every base-policy domain,
// subdomains that must match by the label-walk rule, near-misses that must
// NOT match (xt.co vs t.co, notdw.com vs dw.com), and unblocked controls.
var GenDomains = []string{
	"dw.com", "news.dw.com",
	"twitter.com", "api.twitter.com",
	"t.co", "xt.co",
	"play.google.com", "nordvpn.com",
	"fbcdn.net", "static.fbcdn.net",
	"example.org", "notdw.com",
}

// advMenu is the clock-advance vocabulary: every Table 2 boundary, one
// second either side of it, and the fragment-queue timeout, so generated
// traces routinely land exactly on, just before, and just after each
// measured lifetime.
var advMenu = []time.Duration{
	1 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second,
	6 * time.Second, 10 * time.Second, 15 * time.Second, 30 * time.Second,
	39 * time.Second, 40 * time.Second, 41 * time.Second,
	59 * time.Second, 60 * time.Second, 61 * time.Second,
	74 * time.Second, 75 * time.Second, 76 * time.Second,
	104 * time.Second, 105 * time.Second, 106 * time.Second,
	300 * time.Second,
	419 * time.Second, 420 * time.Second, 421 * time.Second,
	479 * time.Second, 480 * time.Second, 481 * time.Second,
}

// sessionDomains weights session bursts toward blocked names so every SNI
// behavior triggers routinely, with one unblocked control.
var sessionDomains = []string{
	"dw.com", "news.dw.com", "twitter.com", "t.co",
	"play.google.com", "nordvpn.com", "fbcdn.net", "example.org",
}

// holdBoundaryMenu lands probes exactly on, just before, and just after the
// SNI-IV (40 s), SNI-I (75 s), and SNI-II/QUIC (420 s) hold lifetimes.
var holdBoundaryMenu = []time.Duration{
	39 * time.Second, 40 * time.Second, 41 * time.Second,
	74 * time.Second, 75 * time.Second, 76 * time.Second,
	419 * time.Second, 420 * time.Second, 421 * time.Second,
}

// ctBoundaryMenu straddles the half-open conntrack lifetimes (SYN_SENT 60 s,
// SYN_RCVD 105 s).
var ctBoundaryMenu = []time.Duration{
	59 * time.Second, 60 * time.Second, 61 * time.Second,
	104 * time.Second, 105 * time.Second, 106 * time.Second,
}

// quicBoundaryMenu straddles the QUIC blocking-state lifetime (420 s).
var quicBoundaryMenu = []time.Duration{
	419 * time.Second, 420 * time.Second, 421 * time.Second,
}

var flagMenu = []packet.TCPFlags{
	packet.FlagSYN,
	packet.FlagsSYNACK,
	packet.FlagACK,
	packet.FlagsPSHACK,
	packet.FlagsFINACK,
	packet.FlagRST,
	packet.FlagsRSTACK,
	0,
}

// Generate derives the nth scenario from the base seed via sim.StreamSeed,
// so scenario n is a pure function of (base, n) — independent of how many
// other scenarios were generated and in what order.
func Generate(base uint64, n int) *Trace {
	return FromSeed(sim.StreamSeed(base, fmt.Sprintf("scenario-%05d", n)))
}

// FromSeed builds one randomized trace from a scenario seed.
func FromSeed(seed uint64) *Trace {
	rng := sim.NewRand(seed)
	target := rng.IntRange(12, 40)
	t := &Trace{Seed: seed}
	for len(t.Steps) < target {
		appendRandom(rng, t)
	}
	boundFlows(sim.NewRand(sim.StreamSeed(seed, "maxflows")), t)
	return t
}

// boundFlows bounds the flow table of a quarter of scenarios to one to three
// entries, from a random step on, so pressure eviction competes with the
// trace's six flow slots. It draws from its own stream, so a scenario's other
// steps are the same with or without the bound.
func boundFlows(rng *sim.Rand, t *Trace) {
	if rng.Intn(4) != 0 {
		return
	}
	at := rng.Intn(len(t.Steps) + 1)
	t.Steps = slices.Insert(t.Steps, at, Step{Kind: StepMaxFlows, MaxFlows: rng.IntRange(1, 3)})
}

func appendRandom(rng *sim.Rand, t *Trace) {
	switch roll := rng.Intn(100); {
	case roll < 30:
		t.Steps = append(t.Steps, randTCP(rng))
	case roll < 40:
		appendSession(rng, t)
	case roll < 45:
		appendHalfOpen(rng, t)
	case roll < 55:
		t.Steps = append(t.Steps, Step{Kind: StepAdvance, Adv: sim.Pick(rng, advMenu)})
	case roll < 68:
		t.Steps = append(t.Steps, randFrag(rng))
	case roll < 73:
		appendFragBurst(rng, t)
	case roll < 78:
		t.Steps = append(t.Steps, Step{
			Kind: StepFragFlood, Local: rng.Intn(10) < 7,
			FragID: uint16(sim.Pick(rng, []int{21, 22})),
			Count:  sim.Pick(rng, []int{10, 44, 45, 46, 60}),
			TTL:    64,
		})
	case roll < 88:
		t.Steps = append(t.Steps, randUDP(rng))
	case roll < 93:
		t.Steps = append(t.Steps, Step{
			Kind: StepICMP, Local: rng.Intn(10) < 7, Blocked: rng.Intn(2) == 0,
		})
	default:
		t.Steps = append(t.Steps, randPolicy(rng))
	}
}

func randTCP(rng *sim.Rand) Step {
	s := Step{
		Kind:  StepTCP,
		Local: rng.Intn(10) < 7,
		Flow:  rng.Intn(4),
		Flags: sim.Pick(rng, flagMenu),
	}
	switch c := rng.Intn(10); {
	case c < 4:
		switch m := rng.Intn(10); {
		case m < 7:
			s.CH = CHPlain
		case m < 8:
			s.CH = CHPadded
		case m < 9:
			s.CH = CHPrepend
		default:
			s.CH = CHECH
		}
		s.Domain = sim.Pick(rng, GenDomains)
	case c < 7:
		s.DataLen = sim.Pick(rng, []int{1, 4, 100, 517, 1460})
	}
	return s
}

// appendSession emits a coherent TLS-style opening — local SYN, remote
// SYN/ACK, local ACK, local ClientHello — so the flow's entry is
// local-origin, unconfused, and eligible for every SNI trigger. Most bursts
// follow up with a clock advance onto a blocking-state boundary and a
// bidirectional probe, the shape that distinguishes a hold that expired from
// one still enforced.
func appendSession(rng *sim.Rand, t *Trace) {
	if rng.Intn(5) == 0 {
		appendQUICSession(rng, t)
		return
	}
	flow := rng.Intn(2)
	t.Steps = append(t.Steps,
		Step{Kind: StepTCP, Local: true, Flow: flow, Flags: packet.FlagSYN},
		Step{Kind: StepTCP, Local: false, Flow: flow, Flags: packet.FlagsSYNACK},
		Step{Kind: StepTCP, Local: true, Flow: flow, Flags: packet.FlagACK},
		Step{Kind: StepTCP, Local: true, Flow: flow, Flags: packet.FlagsPSHACK,
			CH: CHPlain, Domain: sim.Pick(rng, sessionDomains)},
	)
	if rng.Intn(10) < 6 {
		t.Steps = append(t.Steps,
			Step{Kind: StepAdvance, Adv: sim.Pick(rng, holdBoundaryMenu)},
			Step{Kind: StepTCP, Local: false, Flow: flow, Flags: packet.FlagsPSHACK, DataLen: 100},
			Step{Kind: StepTCP, Local: true, Flow: flow, Flags: packet.FlagACK, DataLen: 100},
		)
	}
}

// appendQUICSession emits a QUIC v1 Initial that trips the filter, then
// usually probes across the 420 s hold boundary from both sides.
func appendQUICSession(rng *sim.Rand, t *Trace) {
	t.Steps = append(t.Steps, Step{Kind: StepUDP, Local: true, Flow: 4, UDP: UDPQUICv1})
	if rng.Intn(10) < 7 {
		t.Steps = append(t.Steps,
			Step{Kind: StepAdvance, Adv: sim.Pick(rng, quicBoundaryMenu)},
			Step{Kind: StepUDP, Local: true, Flow: 4,
				UDP: sim.Pick(rng, []UDPKind{UDPQUICv1, UDPSmall})},
			Step{Kind: StepUDP, Local: false, Flow: 4, UDP: UDPSmall},
		)
	}
}

// appendHalfOpen leaves a handshake half-open, ages it across a SYN_SENT or
// SYN_RCVD lifetime boundary, then pokes it with a segment whose effect
// depends on whether the entry survived — followed by a ClientHello whose
// trigger eligibility depends on the origin/confusion bookkeeping that
// resulted. This is the shape that distinguishes the Table 2 half-open
// timeouts.
func appendHalfOpen(rng *sim.Rand, t *Trace) {
	flow := rng.Intn(2)
	first := Step{Kind: StepTCP, Local: true, Flow: flow, Flags: packet.FlagSYN}
	if rng.Intn(4) == 0 {
		first = Step{Kind: StepTCP, Local: false, Flow: flow, Flags: packet.FlagsSYNACK}
	}
	t.Steps = append(t.Steps, first,
		Step{Kind: StepAdvance, Adv: sim.Pick(rng, ctBoundaryMenu)})
	switch rng.Intn(3) {
	case 0:
		t.Steps = append(t.Steps,
			Step{Kind: StepTCP, Local: false, Flow: flow, Flags: packet.FlagSYN})
	case 1:
		t.Steps = append(t.Steps,
			Step{Kind: StepTCP, Local: false, Flow: flow, Flags: packet.FlagsSYNACK})
	case 2:
		t.Steps = append(t.Steps,
			Step{Kind: StepTCP, Local: true, Flow: flow, Flags: packet.FlagACK})
	}
	t.Steps = append(t.Steps,
		Step{Kind: StepTCP, Local: true, Flow: flow, Flags: packet.FlagsPSHACK,
			CH: CHPlain, Domain: sim.Pick(rng, sessionDomains)})
}

func randFrag(rng *sim.Rand) Step {
	return Step{
		Kind:    StepFrag,
		Local:   rng.Intn(10) < 7,
		FragID:  uint16(sim.Pick(rng, []int{11, 12, 13})),
		FragOff: 8 * rng.Intn(6),
		FragLen: 8 * rng.IntRange(1, 3),
		FragMF:  rng.Intn(10) < 7,
		TTL:     uint8(sim.Pick(rng, []int{3, 12, 33, 64})),
	}
}

// appendFragBurst emits a coherent fragment set covering one datagram
// contiguously — the final fragment clears MF — in a random arrival order,
// with per-fragment TTLs, so the buffer-until-last release and the TTL
// rewrite of Fig. 3 are exercised on every run.
func appendFragBurst(rng *sim.Rand, t *Trace) {
	local := rng.Intn(10) < 7
	id := uint16(sim.Pick(rng, []int{14, 15}))
	n := rng.IntRange(2, 4)
	steps := make([]Step, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		ln := 8 * rng.IntRange(1, 3)
		steps = append(steps, Step{
			Kind: StepFrag, Local: local, FragID: id,
			FragOff: off, FragLen: ln, FragMF: i != n-1,
			TTL: uint8(sim.Pick(rng, []int{3, 12, 33, 64})),
		})
		off += ln
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	t.Steps = append(t.Steps, steps...)
}

func randUDP(rng *sim.Rand) Step {
	s := Step{
		Kind:  StepUDP,
		Local: rng.Intn(10) < 8,
		Flow:  4 + rng.Intn(2),
	}
	switch k := rng.Intn(10); {
	case k < 3:
		s.UDP = UDPSmall
	case k < 6:
		s.UDP = UDPQUICv1
	case k < 8:
		s.UDP = UDPQUICv1Short
	default:
		s.UDP = UDPQUICDraft29
	}
	return s
}

func randPolicy(rng *sim.Rand) Step {
	s := Step{Kind: StepPolicy}
	switch p := rng.Intn(10); {
	case p < 2:
		s.Pol, s.On = PolThrottle, rng.Intn(2) == 0
	case p < 4:
		s.Pol, s.On = PolQUICFilter, rng.Intn(2) == 0
	case p < 7:
		s.Pol = PolAddDomain
		s.Set = sim.Pick(rng, []string{"sni1", "sni2", "sni4", "throttle"})
		s.Domain = sim.Pick(rng, GenDomains)
	default:
		s.Pol = PolRemoveDomain
		s.Set = sim.Pick(rng, []string{"sni1", "sni2", "sni4", "throttle"})
		s.Domain = sim.Pick(rng, GenDomains)
	}
	return s
}
