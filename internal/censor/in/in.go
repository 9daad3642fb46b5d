// Package in models India's web censorship as measured by Yadav et al.,
// "Where The Light Gets In: Analyzing Web Censorship Mechanisms in India"
// (arXiv:1808.01708). India has no single national middlebox: each ISP
// deploys its own equipment, and the paper's core finding is the resulting
// *heterogeneity* — ISPs differ in which protocol field triggers them (HTTP
// Host vs TLS SNI vs DNS), in what they inject (branded blockpage vs bare
// RST vs forged DNS answer), and in the identifying marks ("censor IDs")
// their injected packets carry (§5, §6). That per-ISP variance is exactly
// what the cross-censor fingerprint matrix exists to pin: two IN profiles
// must be distinguishable from each other, not just from the TSPU.
//
// Like the TMC (and unlike the TSPU) the modeled middleboxes are stateless
// injectors: no conntrack, no residual blocking, no fragment reassembly. But
// unlike the TMC they inspect only client→server traffic — the paper's
// probes saw no interference on traffic entering the country (§4.2).
package in

import (
	"tspusim/internal/censor"
	"tspusim/internal/httpx"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
)

// Config configures one ISP middlebox instance.
type Config struct {
	// Profile selects the ISP behavior row; zero value panics in New —
	// callers pick from Profiles() or ProfileFor.
	Profile Profile
	// LocalDir is the link direction of client→server (in-country→outside)
	// travel; the middlebox inspects only this direction (§4.2).
	LocalDir netem.Direction
}

// Censor is one Indian ISP's censorship middlebox. It implements
// censor.Censor.
type Censor struct {
	cfg Config

	// BlockpageInjections counts forged HTTP 200 responses emitted (§5.2).
	BlockpageInjections int
	// RSTInjections counts forged RSTs emitted (§5.3).
	RSTInjections int
	// DNSInjections counts forged DNS answers emitted (§5.1).
	DNSInjections int
}

// New builds an ISP middlebox from a profile row.
func New(cfg Config) *Censor {
	if cfg.Profile.ISP == "" {
		panic("in: Config.Profile must be one of Profiles()")
	}
	return &Censor{cfg: cfg}
}

// Profile returns the active behavior row.
func (c *Censor) Profile() Profile { return c.cfg.Profile }

// Name implements netem.Middlebox.
func (c *Censor) Name() string { return "in/" + c.cfg.Profile.ISP }

// ConntrackSize implements censor.Censor: the measured middleboxes judge
// each packet in isolation — reordered and fragmented requests slipped
// through precisely because nothing tracks flows (§6.1).
func (c *Censor) ConntrackSize() int { return 0 }

// PendingFragQueues implements censor.Censor: no reassembly (§6.1).
func (c *Censor) PendingFragQueues() int { return 0 }

// Handle implements netem.Middlebox.
func (c *Censor) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if dir != c.cfg.LocalDir {
		return netem.Pass // outside→in traffic is never inspected (§4.2)
	}
	if pkt.IsFragment() {
		return netem.Pass // fragmentation evades every measured ISP (§6.1)
	}
	p := &c.cfg.Profile
	if p.TriggerDNS && pkt.UDP != nil && pkt.UDP.DstPort == 53 {
		return c.handleDNS(pipe, pkt, dir)
	}
	if pkt.TCP == nil || len(pkt.TCP.Payload) == 0 {
		return netem.Pass
	}
	var http, sni censor.Blocklist
	if p.TriggerHTTP {
		http = p.Blocklist
	}
	if p.TriggerSNI {
		sni = p.Blocklist
	}
	name, ok := censor.MatchTrigger(pkt.TCP.Payload, http, sni)
	if !ok {
		return netem.Pass
	}
	switch p.Action {
	case ActionBlockpage:
		c.injectBlockpage(pipe, pkt, dir, name)
	case ActionRST:
		// A bare reset kills the connection from the client's point of
		// view (§5.3).
		c.RSTInjections++
		censor.InjectRSTToSender(pipe, pkt, dir)
	}
	return netem.Drop
}

// handleDNS forges an answer pointing at the ISP's blockpage server (§5.1 —
// the DNS-based ISPs return their own blockpage host, not NXDOMAIN) and
// consumes the query.
func (c *Censor) handleDNS(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if !censor.InjectDNSAnswer(pipe, pkt, dir, c.cfg.Profile.Blocklist, c.cfg.Profile.BlockpageAddr) {
		return netem.Pass
	}
	c.DNSInjections++
	return netem.Drop
}

// injectBlockpage fabricates the ISP's branded HTTP 200 toward the client.
// The body carries the profile's censor ID — the per-ISP marks (iframe URLs,
// notice wording) the paper used to attribute injected pages (§5.2, §6.3).
func (c *Censor) injectBlockpage(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction, host string) {
	body := "<html><body>" + c.cfg.Profile.CensorID +
		"<p>This URL has been blocked under instructions of a competent Government Authority.</p>" +
		"<!-- blocked: " + host + " --></body></html>"
	wire := httpx.FormatResponse(200, "OK", map[string]string{"Server": c.cfg.Profile.ISP}, body)
	payloadLen := uint32(len(pkt.TCP.Payload))
	page := packet.NewTCP(pkt.IP.Dst, pkt.IP.Src, pkt.TCP.DstPort, pkt.TCP.SrcPort,
		packet.FlagsPSHACK, pkt.TCP.Ack, pkt.TCP.Seq+payloadLen, wire)
	fin := packet.NewTCP(pkt.IP.Dst, pkt.IP.Src, pkt.TCP.DstPort, pkt.TCP.SrcPort,
		packet.FlagsFINACK, pkt.TCP.Ack+uint32(len(wire)), pkt.TCP.Seq+payloadLen, nil)
	c.BlockpageInjections++
	pipe.Inject(page, dir.Reverse())
	pipe.Inject(fin, dir.Reverse())
}

var _ censor.Censor = (*Censor)(nil)
