// Package conformance holds the TSPU device model to the paper's measured
// semantics mechanically, by model-based differential testing. The paper is
// the spec: Table 2 gives the conntrack and blocking-state timeouts, Table 8
// and Fig. 4 give the flag-sequence prefix semantics, §5.2 gives the six
// blocking behaviors, and Fig. 3 / §5.3.1 give the fragment-queue behavior.
//
// The package contains four pieces:
//
//   - an oracle (oracle.go, tables.go): an independent second implementation
//     of the TSPU state machine, transcribed directly from the paper's tables
//     and deliberately structured as data (transition tables, timeout rows,
//     behavior rules) rather than code, so it cannot share bugs with
//     tspu.Device;
//
//   - a seeded scenario generator (gen.go): derives every trace from
//     sim.StreamSeed so the same base seed always yields the same scenarios,
//     and emits randomized flag sequences, clock advances straddling the
//     Table 2 timeout boundaries, fragment permutations/overlaps/floods,
//     QUIC/ICMP/IP-block traffic, mid-flow policy swaps, and small
//     flow-table bounds;
//
//   - a differential executor (executor.go): replays one trace through a
//     real tspu.Device attached to a netem link and through the oracle, and
//     diffs the two observation streams (delivered packets, rewrites, and
//     device state) step by step;
//
//   - a shrinker (shrink.go): minimizes a failing trace by dropping steps,
//     shrinking clock gaps, merging fragments, and simplifying payloads, so
//     counterexamples serialize as small replayable golden files under
//     testdata/.
package conformance

import (
	"net/netip"
	"time"

	"tspusim/internal/packet"
)

// The fixed two-host world every trace runs in. One local (RU-side) host,
// one remote host standing in for every external server (including the
// IP-blocked endpoint), with the device-under-test on the single link.
var (
	// LocalAddr is the RU-side client address.
	LocalAddr = packet.MustAddr("10.0.0.2")
	// RemoteAddr is the external server address.
	RemoteAddr = packet.MustAddr("203.0.113.10")
	// BlockedAddr is the IP-blocked endpoint (the paper's Tor node stand-in).
	BlockedAddr = packet.MustAddr("198.51.100.7")
)

// FlowProto distinguishes the transport of a flow slot.
type FlowProto int

// Flow transports.
const (
	FlowTCP FlowProto = iota
	FlowUDP
)

// FlowSpec is one fixed flow slot traces index into. Keeping the universe of
// flows static makes steps trivially serializable and shrinkable: a step
// names a flow by index instead of carrying a 5-tuple.
type FlowSpec struct {
	Proto  FlowProto
	LPort  uint16
	RPort  uint16
	Remote netip.Addr
}

// Flows is the fixed flow universe. Indexes 0-3 are TCP (two normal :443
// flows, one non-443 flow the SNI filter must ignore, one flow to the
// IP-blocked endpoint); 4-5 are UDP (:443 for the QUIC filter, non-443).
var Flows = []FlowSpec{
	{FlowTCP, 40001, 443, RemoteAddr},
	{FlowTCP, 40002, 443, RemoteAddr},
	{FlowTCP, 40003, 9999, RemoteAddr},
	{FlowTCP, 40004, 443, BlockedAddr},
	{FlowUDP, 40005, 443, RemoteAddr},
	{FlowUDP, 40006, 9999, RemoteAddr},
}

// StepKind enumerates trace step types.
type StepKind int

// Step kinds.
const (
	// StepTCP sends one scripted TCP packet on a TCP flow slot.
	StepTCP StepKind = iota
	// StepUDP sends one UDP datagram on a UDP flow slot.
	StepUDP
	// StepICMP sends an ICMP echo request.
	StepICMP
	// StepFrag sends one IP fragment.
	StepFrag
	// StepFragFlood sends Count fragments of one never-completing datagram,
	// to exercise the 45-fragment queue limit (§7.2 fingerprint).
	StepFragFlood
	// StepAdvance advances the virtual clock.
	StepAdvance
	// StepPolicy applies a mid-flow policy change through the Controller.
	StepPolicy
	// StepMaxFlows bounds the device's flow table (tspu.Device.SetMaxFlows),
	// the §8 provisioning knob; zero removes the bound.
	StepMaxFlows
)

// CHMode describes the ClientHello payload variant of a TCP step.
type CHMode int

// ClientHello modes. Only CHPlain is parseable within the device's 512-byte
// inspection depth; the others model the §8 client-side evasions.
const (
	// CHNone: the step carries no ClientHello (DataLen bytes of non-TLS
	// filler, possibly zero).
	CHNone CHMode = iota
	// CHPlain: a well-formed single-record ClientHello with a plaintext SNI.
	CHPlain
	// CHPadded: a padding extension pushes the record past the 512-byte
	// inspection depth, so the bounded parser fails (§8 padding evasion).
	CHPadded
	// CHPrepend: an unrelated record precedes the handshake record; a
	// single-record parser never sees the ClientHello (§8).
	CHPrepend
	// CHECH: encrypted_client_hello carries no plaintext SNI [40].
	CHECH
)

// UDPKind describes the UDP payload of a UDP step.
type UDPKind int

// UDP payload kinds, spanning the Fig. 14 fingerprint boundary.
const (
	// UDPSmall: 100 bytes of non-QUIC filler.
	UDPSmall UDPKind = iota
	// UDPQUICv1: a 1200-byte QUIC v1 Initial — matches the fingerprint.
	UDPQUICv1
	// UDPQUICv1Short: a 900-byte QUIC v1 Initial — under the 1001-byte
	// threshold, must not match.
	UDPQUICv1Short
	// UDPQUICDraft29: a 1200-byte draft-29 Initial — wrong version, evades.
	UDPQUICDraft29
)

// PolicyOp is a mid-flow policy mutation.
type PolicyOp int

// Policy operations.
const (
	// PolThrottle toggles ThrottleActive to On.
	PolThrottle PolicyOp = iota
	// PolQUICFilter toggles the QUIC filter to On.
	PolQUICFilter
	// PolAddDomain adds Domain to the Set.
	PolAddDomain
	// PolRemoveDomain removes Domain from the Set.
	PolRemoveDomain
)

// Step is one trace event. Exactly the fields for its Kind are meaningful;
// the flat shape keeps serialization and shrinking trivial.
type Step struct {
	Kind StepKind

	// Local reports the travel direction (local→remote when true) for
	// packet-bearing steps.
	Local bool
	// Flow indexes Flows for StepTCP/StepUDP.
	Flow int

	// TCP fields.
	Flags   packet.TCPFlags
	CH      CHMode
	Domain  string // SNI for CH modes; policy domain for StepPolicy
	DataLen int    // filler payload length when CH == CHNone

	// UDP fields.
	UDP UDPKind

	// ICMP fields.
	Blocked bool // echo to/from the IP-blocked endpoint

	// Fragment fields. Offsets and lengths are bytes (multiples of 8, as on
	// the wire); FragID selects the (src, dst, IPID) queue key.
	FragID  uint16
	FragOff int
	FragLen int
	FragMF  bool
	TTL     uint8
	Count   int // StepFragFlood

	// StepAdvance.
	Adv time.Duration

	// StepPolicy.
	Pol PolicyOp
	Set string // "sni1" | "sni2" | "sni4" | "throttle"
	On  bool   // toggle value for PolThrottle / PolQUICFilter

	// StepMaxFlows.
	MaxFlows int
}

// IsPacket reports whether the step puts at least one packet on the wire —
// the unit the shrinker's "≤ N-packet counterexample" metric counts.
func (s Step) IsPacket() bool {
	switch s.Kind {
	case StepTCP, StepUDP, StepICMP, StepFrag, StepFragFlood:
		return true
	}
	return false
}

// Trace is one replayable scenario: the seed that generated it (zero for
// hand-written traces) and its step sequence.
type Trace struct {
	Seed  uint64
	Steps []Step
}

// Packets counts the packet-bearing steps (a fragment flood counts as its
// fragment count).
func (t *Trace) Packets() int {
	n := 0
	for _, s := range t.Steps {
		if !s.IsPacket() {
			continue
		}
		if s.Kind == StepFragFlood {
			n += s.Count
		} else {
			n++
		}
	}
	return n
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	c := &Trace{Seed: t.Seed, Steps: make([]Step, len(t.Steps))}
	copy(c.Steps, t.Steps)
	return c
}
