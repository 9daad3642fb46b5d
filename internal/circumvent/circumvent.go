// Package circumvent implements the §8 evasion strategies — server-side
// (reduced window, split handshake, their combination, timeout-wait) and
// client-side (TCP segmentation, IP fragmentation, ClientHello padding and
// record-prepending, and the mitigated TTL-limited insertion) — plus the
// evaluation harness that runs every strategy against every blocking
// behavior, including the upstream-only-device caveat that defeats
// server-side strategies for SNI-II sites.
package circumvent

import (
	"bytes"
	"strings"

	"tspusim/internal/hostnet"
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
	Name  string
	Side  Side
	Notes string
	// Listen mutates the server's options (server-side strategies).
	Listen func(*hostnet.ListenOptions)
	// Dial mutates the client's options (client-side stack changes).
	Dial func(*hostnet.DialOptions)
	// BuildCH overrides the ClientHello bytes (payload-shaping strategies).
	BuildCH func(domain string) []byte
	// SendCH overrides how the ClientHello is transmitted (fragmentation,
	// TTL-limited junk). It must not re-enter the simulator's Run loop.
	SendCH func(lab *topo.Lab, conn *hostnet.TCPConn, ch []byte)
}

// Strategies returns the §8 catalog.
func Strategies() []Strategy {
	return []Strategy{
		{
			Name: "baseline", Side: SideNone,
			Notes: "no evasion (control)",
		},
		{
			Name: "server-small-window", Side: SideServer,
			Notes:  "brdgrd-style: SYN/ACK advertises a small window so the client segments the CH",
			Listen: func(o *hostnet.ListenOptions) { o.Window = 100 },
		},
		{
			Name: "server-split-handshake", Side: SideServer,
			Notes:  "SYN instead of SYN/ACK reverses the TSPU's role inference (works for SNI-I only)",
			Listen: func(o *hostnet.ListenOptions) { o.SplitHandshake = true },
		},
		{
			Name: "server-combined", Side: SideServer,
			Notes: "split handshake plus small window",
			Listen: func(o *hostnet.ListenOptions) {
				o.SplitHandshake = true
				o.Window = 100
			},
		},
		{
			Name: "server-wait-timeout", Side: SideServer,
			Notes:  "respond after the 60s SYN-SENT entry evicts; the flow then looks server-initiated",
			Listen: func(o *hostnet.ListenOptions) { o.ResponseDelay = 61_000 },
		},
		{
			Name: "client-segmentation", Side: SideClient,
			Notes: "small MSS splits the CH across segments; the TSPU does not reassemble streams",
			Dial:  func(o *hostnet.DialOptions) { o.MSS = 64 },
		},
		{
			Name: "client-ip-fragmentation", Side: SideClient,
			Notes: "CH sent as IP fragments; the fragment engine forwards without inspection",
			SendCH: func(lab *topo.Lab, conn *hostnet.TCPConn, ch []byte) {
				p := packet.NewTCP(conn.LocalAddr, conn.RemoteAddr, conn.LocalPort, conn.RemotePort,
					packet.FlagsPSHACK, conn.SndNxt, conn.RcvNxt, ch)
				p.IP.ID = conn.Stack().NextIPID()
				frags, err := packet.Fragment(p, 64)
				if err != nil {
					conn.Send(ch)
					return
				}
				for _, f := range frags {
					conn.Stack().Send(f)
				}
				conn.SndNxt += uint32(len(ch))
			},
		},
		{
			Name: "client-ch-padding", Side: SideClient,
			Notes: "padding extension before the SNI pushes it past the inspection depth",
			BuildCH: func(domain string) []byte {
				return (&tlsx.ClientHelloSpec{
					ServerName: domain,
					ExtraExts:  []tlsx.Extension{{Type: tlsx.ExtensionPadding, Data: make([]byte, 600)}},
				}).Build()
			},
		},
		{
			Name: "client-prepend-record", Side: SideClient,
			Notes: "a leading TLS record hides the CH from a single-record parser",
			BuildCH: func(domain string) []byte {
				return (&tlsx.ClientHelloSpec{ServerName: domain, PrependRecord: true}).Build()
			},
		},
		{
			Name: "client-ech", Side: SideClient,
			Notes: "encrypted ClientHello: no plaintext SNI exists to match (ESNI/ECH, cited via [40])",
			BuildCH: func(domain string) []byte {
				return (&tlsx.ClientHelloSpec{ServerName: domain, ECH: true}).Build()
			},
		},
		{
			Name: "client-sni-case", Side: SideClient,
			Notes: "mixed-case SNI — FAILS: the TSPU's matcher is case-insensitive",
			BuildCH: func(domain string) []byte {
				return (&tlsx.ClientHelloSpec{ServerName: strings.ToUpper(domain)}).Build()
			},
		},
		{
			Name: "client-sni-trailing-dot", Side: SideClient,
			Notes: "FQDN trailing dot — FAILS: the matcher canonicalizes names",
			BuildCH: func(domain string) []byte {
				return (&tlsx.ClientHelloSpec{ServerName: domain + "."}).Build()
			},
		},
		{
			Name: "client-ttl-junk", Side: SideClient,
			Notes: "TTL-limited garbage before the CH — mitigated: inspection now covers later packets",
			SendCH: func(lab *topo.Lab, conn *hostnet.TCPConn, ch []byte) {
				junk := packet.NewTCP(conn.LocalAddr, conn.RemoteAddr, conn.LocalPort, conn.RemotePort,
					packet.FlagsPSHACK, conn.SndNxt, conn.RcvNxt, bytes.Repeat([]byte{0x41}, 64))
				junk.IP.TTL = 3 // past the device, short of the server
				junk.IP.ID = conn.Stack().NextIPID()
				// Send order is preserved by the event queue; no need to
				// drain between the junk and the CH (and this callback runs
				// inside the simulator, so it must not re-enter Run).
				conn.Stack().Send(junk)
				conn.Send(ch)
			},
		},
	}
}

// Target selects which blocking behavior a trial exercises.
type Target struct {
	Label  string
	Domain string
}

// Targets returns the behavior columns of the evaluation matrix.
func Targets() []Target {
	return []Target{
		{"SNI-I", "dw.com"},
		{"SNI-II", "play.google.com"},
		{"SNI-I+IV", "twitter.com"},
	}
}

// Outcome is one (strategy, behavior) evaluation.
type Outcome struct {
	Strategy string
	Side     Side
	Behavior string
	Evaded   bool
	Notes    string
}

// Evaluate runs one strategy against one target from a vantage to a server
// stack; evaded means the CH reached the server, the response reached the
// client un-RST, and ten follow-up requests all arrived (so SNI-II's
// few-packet grace period does not count as success).
func Evaluate(lab *topo.Lab, vantage string, server *hostnet.Stack, strat Strategy, target Target) bool {
	v := lab.Vantages[vantage]

	opts := hostnet.ListenOptions{}
	serverGotCH := false
	opts.OnData = func(c *hostnet.TCPConn, d []byte) {
		if !serverGotCH {
			serverGotCH = true
			c.Send([]byte("SERVERHELLO-RESPONSE"))
		}
	}
	if strat.Listen != nil {
		strat.Listen(&opts)
	}
	listener := server.Listen(443, opts)

	dialOpts := hostnet.DialOptions{}
	if strat.Dial != nil {
		strat.Dial(&dialOpts)
	}
	ch := RealisticCH(target.Domain)
	if strat.BuildCH != nil {
		ch = strat.BuildCH(target.Domain)
	}

	conn := v.Stack.Dial(server.Addr(), 443, dialOpts)
	conn.OnEstablished = func() {
		if strat.SendCH != nil {
			strat.SendCH(lab, conn, ch)
		} else {
			conn.Send(ch)
		}
	}
	lab.Sim.Run()

	clientGotResp := bytes.Contains(conn.Received, []byte("SERVERHELLO"))

	// Follow-up probes: sustained usability check.
	if conn.State == hostnet.StateEstablished {
		for i := 0; i < 10; i++ {
			conn.SendRaw(packet.FlagsPSHACK, []byte("GET /resource"))
			lab.Sim.Run()
		}
	}
	followUps := 0
	for _, sc := range listener.Conns {
		if sc.RemotePort == conn.LocalPort {
			data := string(sc.Received)
			followUps = bytes.Count([]byte(data), []byte("GET /resource"))
		}
	}
	evaded := serverGotCH && clientGotResp && !conn.ResetSeen && followUps == 10
	conn.Close()
	return evaded
}

// RealisticCH builds a browser-sized ClientHello (~330 bytes, ALPN plus a
// trailing padding extension). Size matters: the brdgrd small-window
// strategy only works because real ClientHellos exceed the advertised
// window and must be segmented; the arms-race harness reuses it as the
// default trigger payload so discovered strategies face the same stimulus.
func RealisticCH(domain string) []byte {
	return (&tlsx.ClientHelloSpec{
		ServerName: domain,
		ALPN:       []string{"h2", "http/1.1"},
		SessionID:  make([]byte, 32),
		PaddingLen: 200,
	}).Build()
}

// Matrix evaluates every strategy against every target from the given
// vantage toward the given server.
func Matrix(lab *topo.Lab, vantage string, server *hostnet.Stack) []Outcome {
	var out []Outcome
	for _, s := range Strategies() {
		for _, t := range Targets() {
			out = append(out, Outcome{
				Strategy: s.Name,
				Side:     s.Side,
				Behavior: t.Label,
				Evaded:   Evaluate(lab, vantage, server, s, t),
				Notes:    s.Notes,
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
