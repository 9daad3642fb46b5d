// Package tm models Turkmenistan's national censorship system as measured by
// Nourin et al., "Measuring and Evading Turkmenistan's Internet Censorship"
// (arXiv:2304.04835). The TMC is the fingerprint opposite of the TSPU on
// almost every probe axis the battery runs:
//
//   - It is an *injector*, not an in-path rewriter: triggers produce forged
//     DNS answers and RST+ACK pairs while the original packet is handled at
//     the injection point, instead of the TSPU's downstream-response rewrite
//     (§4, §5).
//   - It is *bidirectional*: the same rules fire on traffic entering the
//     country, which is how the paper measured it from outside without any
//     in-country vantage (§3.1). The TSPU triggers only on locally-originated
//     flows.
//   - It is *stateless*: every packet is judged in isolation, so there is no
//     residual per-flow blocking, no conntrack to exhaust, and no fragment
//     queue to fingerprint (§6.2 — fragmentation-based evasion works).
package tm

import (
	"tspusim/internal/censor"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
)

// Censor is the Turkmenistan censor model. It implements censor.Censor.
type Censor struct {
	rules *Rules

	// DNSInjections counts forged DNS answers emitted (§4).
	DNSInjections int
	// RSTInjections counts forged RST+ACK packets emitted (§5).
	RSTInjections int
}

// New builds a TMC instance with DefaultRules().
func New() *Censor {
	return &Censor{rules: DefaultRules()}
}

// Rules returns the live trigger table (mutable, like a tspu.Policy).
func (c *Censor) Rules() *Rules { return c.rules }

// Name implements netem.Middlebox.
func (c *Censor) Name() string { return "tm" }

// ConntrackSize implements censor.Censor: the TMC keeps no flow state (§6.2).
func (c *Censor) ConntrackSize() int { return 0 }

// PendingFragQueues implements censor.Censor: fragments pass uninspected —
// the paper's fragmentation evasion works because nothing reassembles (§6.2).
func (c *Censor) PendingFragQueues() int { return 0 }

// Handle implements netem.Middlebox. Note the deliberate absence of any
// direction check: the TMC's bidirectionality (§3.1) is the single most
// distinguishing cell in the fingerprint matrix, and it falls out of not
// consulting dir for trigger decisions at all.
func (c *Censor) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if pkt.IsFragment() {
		return netem.Pass // no reassembly; fragmentation evades (§6.2)
	}
	if pkt.UDP != nil && (pkt.UDP.DstPort == 53 || pkt.UDP.SrcPort == 53) {
		return c.handleDNS(pipe, pkt, dir)
	}
	if pkt.TCP != nil && len(pkt.TCP.Payload) > 0 {
		return c.handleTCP(pipe, pkt, dir)
	}
	return netem.Pass
}

// handleDNS injects a forged A answer for blocked questions, racing (and in
// practice beating) the legitimate resolver — the paper's clients always saw
// the injected answer first because it originates mid-path (§4.1). The query
// itself is forwarded, again matching the observed race.
func (c *Censor) handleDNS(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if censor.InjectDNSAnswer(pipe, pkt, dir, c.rules.DNS, BlockedAnswer) {
		c.DNSInjections++
	}
	return netem.Pass
}

// handleTCP matches HTTP Host headers and TLS SNI; a hit injects RST+ACK at
// both endpoints and consumes the trigger, tearing the connection down from
// the middle (§5.1, §5.2).
func (c *Censor) handleTCP(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if _, hit := censor.MatchTrigger(pkt.TCP.Payload, c.rules.HTTP, c.rules.SNI); !hit {
		return netem.Pass
	}
	c.RSTInjections += 2
	censor.InjectRSTPair(pipe, pkt, dir)
	return netem.Drop
}

var _ censor.Censor = (*Censor)(nil)
