// Package circumvent is the §8 evasion vocabulary and the one trial that
// judges it. A Strategy is a Genome — client-side genes (TCP segmentation,
// IP fragmentation, ClientHello padding and record-prepending, the mitigated
// TTL-limited junk) and server-side genes (reduced window, split handshake,
// timeout-wait) — plus, for the name-shaping rows no gene expresses, a
// ClientHello builder. Trial runs one strategy against one Probe over a
// measure.Path and returns a Verdict; the §8 matrix here, the genetic search
// (internal/evolve) and the arms race (internal/armsrace) all ask it the same
// question: does a blocked connection stay usable? The matrix runs every
// catalog strategy against every blocking behavior, including the
// upstream-only-device caveat that defeats server-side strategies for SNI-II
// sites.
package circumvent

import (
	"bytes"
	"fmt"
	"strings"

	"tspusim/internal/hostnet"
	"tspusim/internal/httpx"
	"tspusim/internal/measure"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/tlsx"
	"tspusim/internal/topo"
)

// Side classifies where a strategy is deployed.
type Side string

// Deployment sides.
const (
	SideNone   Side = "none"
	SideServer Side = "server"
	SideClient Side = "client"
)

// Strategy is one evasion technique.
type Strategy struct {
	Name   string
	Notes  string
	Genome Genome
	// BuildCH, when set, builds the ClientHello in place of the genes' one:
	// the name-shaping strategies no gene expresses.
	BuildCH func(domain string) []byte
}

// Side is worked out from the genes: any server gene makes a server-side
// strategy, anything else that changes the client's bytes a client-side one.
func (s Strategy) Side() Side {
	g := s.Genome
	switch {
	case g.ServerWindow > 0 || g.ServerSplit || g.ServerDelaySec > 0:
		return SideServer
	case g.IsNoop() && s.BuildCH == nil:
		return SideNone
	default:
		return SideClient
	}
}

// Strategies returns the §8 catalog.
func Strategies() []Strategy {
	return []Strategy{
		{Name: "baseline", Notes: "no evasion (control)"},
		{
			Name:   "server-small-window",
			Notes:  "brdgrd-style: SYN/ACK advertises a small window so the client segments the CH",
			Genome: Genome{ServerWindow: 100},
		},
		{
			Name:   "server-split-handshake",
			Notes:  "SYN instead of SYN/ACK reverses the TSPU's role inference (works for SNI-I only)",
			Genome: Genome{ServerSplit: true},
		},
		{
			Name:   "server-combined",
			Notes:  "split handshake plus small window",
			Genome: Genome{ServerSplit: true, ServerWindow: 100},
		},
		{
			Name:   "server-wait-timeout",
			Notes:  "respond after the 60s SYN-SENT entry evicts; the flow then looks server-initiated",
			Genome: Genome{ServerDelaySec: 61},
		},
		{
			Name:   "client-segmentation",
			Notes:  "small MSS splits the CH across segments; the TSPU does not reassemble streams",
			Genome: Genome{SegmentSize: 64},
		},
		{
			Name:   "client-ip-fragmentation",
			Notes:  "CH sent as IP fragments; the fragment engine forwards without inspection",
			Genome: Genome{FragmentPayload: 64},
		},
		{
			Name:   "client-ch-padding",
			Notes:  "padding extension before the SNI pushes it past the inspection depth",
			Genome: Genome{PadBeforeSNI: 600},
		},
		{
			Name:   "client-prepend-record",
			Notes:  "a leading TLS record hides the CH from a single-record parser",
			Genome: Genome{PrependRecord: true},
		},
		{
			Name:  "client-ech",
			Notes: "encrypted ClientHello: no plaintext SNI exists to match (ESNI/ECH, cited via [40])",
			BuildCH: func(domain string) []byte {
				return (&tlsx.ClientHelloSpec{ServerName: domain, ECH: true}).Build()
			},
		},
		{
			Name:  "client-sni-case",
			Notes: "mixed-case SNI — FAILS: the TSPU's matcher is case-insensitive",
			BuildCH: func(domain string) []byte {
				return (&tlsx.ClientHelloSpec{ServerName: strings.ToUpper(domain)}).Build()
			},
		},
		{
			Name:  "client-sni-trailing-dot",
			Notes: "FQDN trailing dot — FAILS: the matcher canonicalizes names",
			BuildCH: func(domain string) []byte {
				return (&tlsx.ClientHelloSpec{ServerName: domain + "."}).Build()
			},
		},
		{
			Name:   "client-ttl-junk",
			Notes:  "TTL-limited garbage before the CH — mitigated: inspection now covers later packets",
			Genome: Genome{JunkTTL: 3}, // past the device, short of the server
		},
	}
}

// ProbeKind names the trigger plane a probe carries.
type ProbeKind string

// Probe kinds: the two trigger planes every modeled censor acts on.
const (
	ProbeTLS  ProbeKind = "tls-sni"
	ProbeHTTP ProbeKind = "http-host"
)

// Probe is the stimulus one trial carries: a ClientHello or HTTP request
// naming Domain, sent to Port.
type Probe struct {
	Label  string
	Kind   ProbeKind
	Port   uint16
	Domain string
	// FollowUps is the sustained-usability depth: how many follow-up requests
	// must all reach the origin after its reply, so a grace period does not
	// count as evasion. It is per probe because its callers need different
	// depths. The TSPU's SNI-II allowance is 5–8 packets, so the §8 matrix
	// sends 10; with 4, server-wait-timeout would "evade" SNI-II through
	// OBIT's upstream-only device. The arms race sends 4, which its pinned
	// traces record.
	FollowUps int
}

// Targets returns the behavior columns of the §8 matrix.
func Targets() []Probe {
	tls := func(label, domain string) Probe {
		return Probe{Label: label, Kind: ProbeTLS, Port: 443, Domain: domain, FollowUps: 10}
	}
	return []Probe{tls("SNI-I", "dw.com"), tls("SNI-II", "play.google.com"), tls("SNI-I+IV", "twitter.com")}
}

// Verdict is one trial's observable outcome.
type Verdict struct {
	// Evaded is the headline: trigger delivered, reply received clean, and
	// every follow-up arrived.
	Evaded bool
	// ServerSawTrigger: the blocked name, or the whole trigger, reached the
	// origin.
	ServerSawTrigger bool
	// ClientGotReply: the origin's reply reached the client.
	ClientGotReply bool
	// ResetSeen: the client's connection was torn down.
	ResetSeen bool
	// FollowUps that arrived at the origin, out of Probed, the probe's
	// follow-up count.
	FollowUps, Probed int
}

// String renders the canonical verdict cell used in ledgers and traces.
func (v Verdict) String() string {
	if v.Evaded {
		return fmt.Sprintf("evades (trigger delivered, reply clean, %d/%d follow-ups)", v.FollowUps, v.Probed)
	}
	switch {
	case v.ResetSeen && !v.ServerSawTrigger:
		return "blocked (trigger killed, connection reset)"
	case v.ResetSeen:
		return "blocked (trigger delivered but connection reset)"
	case !v.ServerSawTrigger:
		return "blocked (trigger silently dropped)"
	case !v.ClientGotReply:
		return "blocked (reply lost or rewritten)"
	default:
		return fmt.Sprintf("blocked (only %d/%d follow-ups survived)", v.FollowUps, v.Probed)
	}
}

// The origin's reply to a delivered trigger, and each follow-up's payload.
const (
	originMarker    = "ORIGIN-REPLY-OK"
	followUpRequest = "GET /follow-up"
)

// Trial runs one strategy against one probe over a path: the remote end
// listens on the probe's port, the local end connects and sends the
// trigger, then the probe's follow-ups. The genes shape the listener, the
// client MSS, the trigger bytes and how they go on the wire. The simulator
// runs to quiescence after each step and once more after the close, so the
// next trial on the same simulator starts from a settled network.
func Trial(p measure.Path, s Strategy, pr Probe) Verdict {
	g := s.Genome
	v := Verdict{Probed: pr.FollowUps}
	trigger := s.trigger(pr)

	// The origin accumulates bytes and replies once the blocked name or the
	// whole trigger has arrived — however it was split on the wire, the host
	// stack reassembles. The whole-trigger rule covers a ClientHello that
	// hides the name itself (ECH).
	var got []byte
	listener := p.Remote.Listen(pr.Port, hostnet.ListenOptions{
		Window:         uint16(g.ServerWindow),
		SplitHandshake: g.ServerSplit,
		ResponseDelay:  g.ServerDelaySec * 1000,
		OnData: func(c *hostnet.TCPConn, d []byte) {
			if v.ServerSawTrigger {
				return
			}
			got = append(got, d...)
			if bytes.Contains(got, []byte(pr.Domain)) || bytes.Contains(got, trigger) {
				v.ServerSawTrigger = true
				c.Send([]byte(originMarker))
			}
		},
	})
	conn := p.Local.Dial(p.Remote.Addr(), pr.Port, hostnet.DialOptions{MSS: g.SegmentSize})
	conn.OnEstablished = func() { send(conn, g, trigger) }
	p.Sim.Run()

	if conn.State == hostnet.StateEstablished {
		for i := 0; i < pr.FollowUps; i++ {
			conn.SendRaw(packet.FlagsPSHACK, []byte(followUpRequest))
			p.Sim.Run()
		}
	}
	for _, sc := range listener.Conns {
		if sc.RemotePort == conn.LocalPort {
			v.FollowUps = bytes.Count(sc.Received, []byte(followUpRequest))
		}
	}
	v.ClientGotReply = bytes.Contains(conn.Received, []byte(originMarker))
	v.ResetSeen = conn.ResetSeen
	v.Evaded = v.ServerSawTrigger && v.ClientGotReply && !v.ResetSeen && v.FollowUps == pr.FollowUps
	conn.Close()
	p.Sim.Run()
	return v
}

// trigger is the payload the probe carries under s. On the HTTP plane it is
// the request: ClientHello-shaping genes are inert there by construction, so
// an HTTP censor can never be "evaded" by a padding extension it would never
// see. On TLS it is BuildCH's ClientHello, else the padding and record genes'
// one, else a browser-sized default.
func (s Strategy) trigger(pr Probe) []byte {
	g := s.Genome
	switch {
	case pr.Kind == ProbeHTTP:
		return httpx.FormatRequest("GET", pr.Domain, "/")
	case s.BuildCH != nil:
		return s.BuildCH(pr.Domain)
	case g.PadBeforeSNI > 0 || g.PrependRecord:
		spec := &tlsx.ClientHelloSpec{ServerName: pr.Domain, PrependRecord: g.PrependRecord}
		if g.PadBeforeSNI > 0 {
			spec.ExtraExts = []tlsx.Extension{{Type: tlsx.ExtensionPadding, Data: make([]byte, g.PadBeforeSNI)}}
		}
		return spec.Build()
	default:
		return RealisticCH(pr.Domain)
	}
}

// send puts the trigger on the wire: a TTL-limited junk packet first if the
// genome carries one, then the trigger as IP fragments or as ordinary
// segments. It runs inside the simulator, so it must not re-enter Run; the
// event queue preserves send order.
func send(conn *hostnet.TCPConn, g Genome, trigger []byte) {
	segment := func(payload []byte) *packet.Packet {
		p := packet.NewTCP(conn.LocalAddr, conn.RemoteAddr, conn.LocalPort, conn.RemotePort,
			packet.FlagsPSHACK, conn.SndNxt, conn.RcvNxt, payload)
		p.IP.ID = conn.Stack().NextIPID()
		return p
	}
	if g.JunkTTL > 0 {
		junk := segment(make([]byte, 32))
		junk.IP.TTL = uint8(g.JunkTTL)
		conn.Stack().Send(junk)
	}
	if g.FragmentPayload > 0 {
		frags, err := packet.Fragment(segment(trigger), g.FragmentPayload)
		if err == nil && len(frags) > 1 {
			for _, f := range frags {
				conn.Stack().Send(f)
			}
			conn.SndNxt += uint32(len(trigger))
			return
		}
	}
	conn.Send(trigger)
}

// RealisticCH builds a browser-sized ClientHello (~330 bytes, ALPN plus a
// trailing padding extension). Size matters: the brdgrd small-window
// strategy only works because real ClientHellos exceed the advertised
// window and must be segmented.
func RealisticCH(domain string) []byte {
	return (&tlsx.ClientHelloSpec{
		ServerName: domain,
		ALPN:       []string{"h2", "http/1.1"},
		SessionID:  make([]byte, 32),
		PaddingLen: 200,
	}).Build()
}

// Outcome is one (strategy, behavior) cell of the matrix.
type Outcome struct {
	Strategy string
	Side     Side
	Behavior string
	Evaded   bool
}

// Matrix runs every catalog strategy against every target from a lab
// vantage to a server stack.
func Matrix(lab *topo.Lab, vantage string, server *hostnet.Stack) []Outcome {
	p := measure.Path{Sim: lab.Sim, Local: lab.Vantages[vantage].Stack, Remote: server}
	var out []Outcome
	for _, s := range Strategies() {
		for _, t := range Targets() {
			out = append(out, Outcome{
				Strategy: s.Name,
				Side:     s.Side(),
				Behavior: t.Label,
				Evaded:   Trial(p, s, t).Evaded,
			})
		}
	}
	return out
}

// Render prints a strategy x behavior matrix.
func Render(title string, outcomes []Outcome) *report.Doc {
	targets := Targets()
	headers := []string{"Strategy", "Side"}
	for _, t := range targets {
		headers = append(headers, t.Label)
	}
	tb := report.NewTable(title, headers...)
	byStrategy := map[string][]Outcome{}
	var order []string
	for _, o := range outcomes {
		if _, seen := byStrategy[o.Strategy]; !seen {
			order = append(order, o.Strategy)
		}
		byStrategy[o.Strategy] = append(byStrategy[o.Strategy], o)
	}
	for _, name := range order {
		row := []any{name, string(byStrategy[name][0].Side)}
		for _, t := range targets {
			cell := "blocked"
			for _, o := range byStrategy[name] {
				if o.Behavior == t.Label && o.Evaded {
					cell = "EVADES"
				}
			}
			row = append(row, cell)
		}
		tb.AddRow(row...)
	}
	return new(report.Doc).Add(tb)
}
