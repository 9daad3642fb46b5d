package conformance

import (
	"fmt"
	"strings"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/quicx"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/tspu"
)

// Base policy vocabulary: the domains every conformance run blocks. The
// device-side tspu.Policy and the oracle's mirror are both built from these
// lists (mirroring the paper's observed policy: dw.com et al. under SNI-I,
// out-registry domains under SNI-II, the twitter.com/t.co overlap between
// SNI-I and SNI-IV, fbcdn.net throttled).
var (
	baseSNI1     = []string{"dw.com", "twitter.com"}
	baseSNI2     = []string{"play.google.com", "nordvpn.com"}
	baseSNI4     = []string{"twitter.com", "t.co"}
	baseThrottle = []string{"fbcdn.net"}
)

// BasePolicy returns the tspu.Policy every conformance device starts from.
func BasePolicy() *tspu.Policy {
	p := tspu.NewPolicy()
	p.SNI1Domains.Add(baseSNI1...)
	p.SNI2Domains.Add(baseSNI2...)
	p.SNI4Domains.Add(baseSNI4...)
	p.ThrottleDomains.Add(baseThrottle...)
	p.ThrottleActive = true
	p.BlockedIPs[BlockedAddr] = true
	return p
}

// Options configures one differential run.
type Options struct {
	// DeviceTimeouts overrides the device's timeout table (the oracle always
	// uses the paper's values) — the injectable constant the mutation test
	// uses to prove the harness catches an off-by-one.
	DeviceTimeouts *tspu.StateTimeouts
	// Middlebox replaces the TSPU device under test (comparator runs against
	// the ispdpi middleboxes). Policy and flow-bound steps become no-ops, and
	// both logs omit the per-step device-state lines: a comparator exposes no
	// TSPU-shaped counters.
	Middlebox netem.Middlebox
	// WrapDevice, if set, wraps the constructed middlebox before it is
	// attached to the link. The censor-interface conformance test uses it to
	// route every Handle call through interface dispatch (censor.Censor)
	// while state lines still read the concrete device — proving the
	// interface seam adds no behavioral surface.
	WrapDevice func(netem.Middlebox) netem.Middlebox
}

// Result is the outcome of one differential run.
type Result struct {
	DeviceLog string
	OracleLog string
	// DiffLine is the 0-based index of the first differing log line, or -1
	// when the logs are byte-identical.
	DiffLine int
	// DiffDesc describes the first divergence.
	DiffDesc string
}

// Check replays tr against both the device and the oracle and diffs the
// observation streams.
func Check(tr *Trace, opts Options) *Result {
	dev := RunDevice(tr, opts)
	ora := RunOracle(tr, opts)
	line, desc := Diff(dev, ora)
	return &Result{DeviceLog: dev, OracleLog: ora, DiffLine: line, DiffDesc: desc}
}

// RunDevice replays tr against a real tspu.Device (or Options.Middlebox) on
// a two-host netem link and returns the observation log: one line per packet
// delivered at either endpoint, plus (unless Options.Middlebox is set) one
// device-state line per step.
func RunDevice(tr *Trace, opts Options) string {
	s := sim.New()
	net := netem.New(s)
	local := net.AddHost("local")
	li := local.AddIface(LocalAddr)
	local.AddDefaultRoute(li)
	remote := net.AddHost("remote")
	ri := remote.AddIface(RemoteAddr)
	remote.AddDefaultRoute(ri)
	// The remote host stands in for every external server, including the
	// IP-blocked endpoint.
	remote.SetPromiscuous(true)
	link := net.Connect(li, ri, 0)

	var log []string
	local.SetHandler(func(p *packet.Packet) { log = append(log, deliverLine(false, obsOf(p))) })
	remote.SetHandler(func(p *packet.Packet) { log = append(log, deliverLine(true, obsOf(p))) })

	var dev *tspu.Device
	var ctrl *tspu.Controller
	mb := opts.Middlebox
	if mb == nil {
		cfg := tspu.Config{
			Name:     "dut",
			Sim:      s,
			Rand:     sim.NewRand(sim.StreamSeed(tr.Seed, "conformance-device")),
			LocalDir: netem.AtoB,
			// Pin the SNI-II allowance so the oracle can predict it exactly.
			SNI2AllowanceMin: sni2Allowance,
			SNI2AllowanceMax: sni2Allowance,
		}
		if opts.DeviceTimeouts != nil {
			cfg.Timeouts = *opts.DeviceTimeouts
		}
		dev = tspu.NewDevice(cfg)
		ctrl = tspu.NewController(BasePolicy())
		ctrl.Register(dev)
		mb = dev
	}
	if opts.WrapDevice != nil {
		mb = opts.WrapDevice(mb)
	}
	link.Attach(mb)

	for _, st := range tr.Steps {
		switch st.Kind {
		case StepAdvance:
			s.RunUntil(s.Now() + st.Adv)
		case StepPolicy:
			if ctrl != nil {
				ctrl.Update(func(p *tspu.Policy) { applyPolicyStep(p, st) })
			}
		case StepMaxFlows:
			if dev != nil {
				dev.SetMaxFlows(st.MaxFlows)
			}
		default:
			for _, pkt := range buildPackets(st) {
				if stepTravelsLocal(st) {
					local.Send(pkt)
				} else {
					remote.Send(pkt)
				}
			}
			s.RunUntil(s.Now())
		}
		if dev != nil {
			stats := dev.Stats()
			log = append(log, fmtStateObs(s.Now(), dev.ConntrackSize(), dev.PendingFragQueues(),
				stats.Handled, stats.FragBuffers, stats.Dropped, stats.Rewritten, stats.Throttled,
				[6]int{
					stats.Triggers[tspu.IPBlock],
					stats.Triggers[tspu.SNI1],
					stats.Triggers[tspu.SNI2],
					stats.Triggers[tspu.SNI3],
					stats.Triggers[tspu.SNI4],
					stats.Triggers[tspu.QUICBlock],
				}))
		}
	}
	return strings.Join(log, "\n") + "\n"
}

// RunOracle replays tr against the table-driven oracle and returns the
// predicted observation log in the same format as RunDevice.
func RunOracle(tr *Trace, opts Options) string {
	o := NewOracle()
	var log []string
	for _, st := range tr.Steps {
		log = append(log, o.Apply(st)...)
		if opts.Middlebox == nil {
			log = append(log, o.StateLine())
		}
	}
	return strings.Join(log, "\n") + "\n"
}

// Diff returns the 0-based index of the first differing line between two
// logs, or -1 if they are byte-identical, plus a human-readable description.
func Diff(dev, ora string) (int, string) {
	if dev == ora {
		return -1, ""
	}
	dl := strings.Split(dev, "\n")
	ol := strings.Split(ora, "\n")
	n := len(dl)
	if len(ol) > n {
		n = len(ol)
	}
	for i := 0; i < n; i++ {
		var a, b string
		if i < len(dl) {
			a = dl[i]
		}
		if i < len(ol) {
			b = ol[i]
		}
		if a != b {
			return i, fmt.Sprintf("first divergence at line %d:\n  device: %q\n  oracle: %q", i+1, a, b)
		}
	}
	return len(dl), "logs differ only in length"
}

// stepTravelsLocal reports the injection side for a packet-bearing step.
func stepTravelsLocal(s Step) bool { return s.Local }

// buildPackets compiles one packet-bearing step into wire packets.
func buildPackets(s Step) []*packet.Packet {
	switch s.Kind {
	case StepTCP:
		fl := Flows[s.Flow]
		payload := buildTCPPayload(s)
		if s.Local {
			return []*packet.Packet{packet.NewTCP(LocalAddr, fl.Remote, fl.LPort, fl.RPort, s.Flags, 0, 0, payload)}
		}
		return []*packet.Packet{packet.NewTCP(fl.Remote, LocalAddr, fl.RPort, fl.LPort, s.Flags, 0, 0, payload)}
	case StepUDP:
		fl := Flows[s.Flow]
		payload := buildUDPPayload(s.UDP)
		if s.Local {
			return []*packet.Packet{packet.NewUDP(LocalAddr, fl.Remote, fl.LPort, fl.RPort, payload)}
		}
		return []*packet.Packet{packet.NewUDP(fl.Remote, LocalAddr, fl.RPort, fl.LPort, payload)}
	case StepICMP:
		peer := RemoteAddr
		if s.Blocked {
			peer = BlockedAddr
		}
		if s.Local {
			return []*packet.Packet{packet.NewICMPEcho(LocalAddr, peer, 7, 1)}
		}
		return []*packet.Packet{packet.NewICMPEcho(peer, LocalAddr, 7, 1)}
	case StepFrag:
		return []*packet.Packet{buildFrag(s.Local, s.FragID, s.FragOff, s.FragLen, s.FragMF, s.TTL)}
	case StepFragFlood:
		out := make([]*packet.Packet, 0, s.Count)
		for i := 0; i < s.Count; i++ {
			out = append(out, buildFrag(s.Local, s.FragID, i*8, 8, true, s.TTL))
		}
		return out
	}
	return nil
}

func buildFrag(local bool, id uint16, off, ln int, mf bool, ttl uint8) *packet.Packet {
	src, dst := LocalAddr, RemoteAddr
	if !local {
		src, dst = RemoteAddr, LocalAddr
	}
	return &packet.Packet{
		IP: packet.IPv4{
			ID: id, MF: mf, FragOffset: uint16(off),
			TTL: ttl, Protocol: packet.ProtoTCP,
			Src: src, Dst: dst,
		},
		RawPayload: make([]byte, ln),
	}
}

// chPaddingLen pushes the padded ClientHello variant well past the device's
// 512-byte inspection depth.
const chPaddingLen = 600

// buildTCPPayload compiles a TCP step's payload bytes. Shared with the
// oracle for wire lengths only.
func buildTCPPayload(s Step) []byte {
	var spec tlsx.ClientHelloSpec
	switch s.CH {
	case CHNone:
		if s.DataLen <= 0 {
			return nil
		}
		b := make([]byte, s.DataLen)
		for i := range b {
			b[i] = 'x'
		}
		return b
	case CHPlain:
		spec = tlsx.ClientHelloSpec{ServerName: s.Domain}
	case CHPadded:
		spec = tlsx.ClientHelloSpec{ServerName: s.Domain, PaddingLen: chPaddingLen}
	case CHPrepend:
		spec = tlsx.ClientHelloSpec{ServerName: s.Domain, PrependRecord: true}
	case CHECH:
		spec = tlsx.ClientHelloSpec{ECH: true}
	}
	return spec.Build()
}

// buildUDPPayload compiles a UDP step's payload bytes, matching the lengths
// and version bytes the oracle's udpKindTable declares.
func buildUDPPayload(k UDPKind) []byte {
	switch k {
	case UDPQUICv1:
		return quicx.BuildInitial(quicx.Version1, udpKindTable[UDPQUICv1].Len)
	case UDPQUICv1Short:
		return quicx.BuildInitial(quicx.Version1, udpKindTable[UDPQUICv1Short].Len)
	case UDPQUICDraft29:
		return quicx.BuildInitial(quicx.VersionDraft29, udpKindTable[UDPQUICDraft29].Len)
	}
	b := make([]byte, udpKindTable[UDPSmall].Len)
	for i := range b {
		b[i] = 'u'
	}
	return b
}

// applyPolicyStep applies a StepPolicy mutation to the device-side policy.
func applyPolicyStep(p *tspu.Policy, s Step) {
	switch s.Pol {
	case PolThrottle:
		p.ThrottleActive = s.On
	case PolQUICFilter:
		p.QUICFilter = s.On
	case PolAddDomain, PolRemoveDomain:
		var set *tspu.DomainSet
		switch s.Set {
		case "sni1":
			set = p.SNI1Domains
		case "sni2":
			set = p.SNI2Domains
		case "sni4":
			set = p.SNI4Domains
		case "throttle":
			set = p.ThrottleDomains
		default:
			return
		}
		if s.Pol == PolAddDomain {
			set.Add(s.Domain)
		} else {
			set.Remove(s.Domain)
		}
	}
}

// Observation-line formatters, shared verbatim by the device-side recorder
// and the oracle so a diff can only come from behavior, never formatting.

func deliverLine(localToRemote bool, body string) string {
	if localToRemote {
		return "d L>R " + body
	}
	return "d R>L " + body
}

// obsOf formats a delivered packet.
func obsOf(p *packet.Packet) string {
	switch {
	case p.TCP != nil:
		return fmtTCPObs(p.TCP.SrcPort, p.TCP.DstPort, p.TCP.Flags, len(p.TCP.Payload))
	case p.UDP != nil:
		return fmtUDPObs(p.UDP.SrcPort, p.UDP.DstPort, len(p.UDP.Payload))
	case p.ICMP != nil:
		return fmtICMPObs(uint8(p.ICMP.Type))
	default:
		return fmtRawObs(p.IP.ID, int(p.IP.FragOffset), len(p.RawPayload), p.IP.MF, p.IP.TTL)
	}
}

func fmtTCPObs(sport, dport uint16, flags packet.TCPFlags, plen int) string {
	return fmt.Sprintf("tcp %d>%d flags=0x%02x len=%d", sport, dport, uint8(flags), plen)
}

func fmtUDPObs(sport, dport uint16, plen int) string {
	return fmt.Sprintf("udp %d>%d len=%d", sport, dport, plen)
}

func fmtICMPObs(typ uint8) string {
	return fmt.Sprintf("icmp type=%d", typ)
}

func fmtRawObs(id uint16, off, ln int, mf bool, ttl uint8) string {
	return fmt.Sprintf("raw id=%d off=%d len=%d mf=%d ttl=%d", id, off, ln, b2i(mf), ttl)
}

func fmtStateObs(t time.Duration, ct, frag, handled, fragBuf, dropped, rewritten, throttled int, trig [6]int) string {
	return fmt.Sprintf("st t=%s ct=%d frag=%d h=%d fb=%d drop=%d rw=%d thr=%d trig=[ip=%d s1=%d s2=%d s3=%d s4=%d q=%d]",
		t, ct, frag, handled, fragBuf, dropped, rewritten, throttled,
		trig[0], trig[1], trig[2], trig[3], trig[4], trig[5])
}
