// Package measure implements the paper's measurement experiments against a
// topo.Lab: trigger reliability (Table 1), TCP-sequence exploration and
// state-timeout inference (Fig. 4, Fig. 5, Tables 2 and 8), local and remote
// localization (§7.1, Fig. 8), Quack-style echo measurements and the Tor-IP
// correlation (Table 4, Table 5), the fragmentation fingerprint scan and hop
// localization (Fig. 9, Fig. 12), the domain survey (Fig. 6, Fig. 7,
// Table 3), and the ClientHello/QUIC fingerprint fuzzing maps (Fig. 13,
// Fig. 14).
//
// Every experiment is a pure function of the Lab plus explicit parameters
// and returns a typed result with a text rendering, so the harness can
// regenerate each table and figure independently.
//
// Each measurement technique is written once, over a Path: scripted raw
// flows (Flow), the fragment probe, the TTL ladder, the residual triple and
// the timeout bisection. The paper lab supplies a Path from a vantage to the
// US measurement machine (VantagePath); the cross-censor testbed supplies one
// from its client through the censor to its server (TestbedPath). The same
// code therefore measures the TSPU lab and every censor model in the
// cross-censor battery (CrossCensor).
package measure

import (
	"sync"
	"time"

	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/topo"
)

// Canonical trigger domains, chosen from the paper's own examples so each
// exercises exactly one behavior class (Table 3).
const (
	// DomainSNI1 is targeted by SNI-I only.
	DomainSNI1 = "dw.com"
	// DomainSNI2 is "out-registry" SNI-II.
	DomainSNI2 = "play.google.com"
	// DomainSNI14 is targeted by both SNI-I and the SNI-IV backup.
	DomainSNI14 = "twitter.com"
	// DomainThrottle was throttled Feb 26 - Mar 4 2022.
	DomainThrottle = "fbcdn.net"
	// DomainControl triggers nothing.
	DomainControl = "example-control.org"
)

// chCache memoizes built default-spec ClientHellos per domain. Experiments
// build the same handful of trigger hellos tens of thousands of times per
// lab, and tlsx assembly was a visible slice of fleet allocation profiles.
// sync.Map because fleet workers call CH concurrently.
var chCache sync.Map // string -> []byte (never mutated after store)

// CH builds a ClientHello payload for a domain. The returned slice is a
// private copy — callers may hand it to packet constructors or split it for
// fragmentation without aliasing other trials.
func CH(domain string) []byte {
	v, ok := chCache.Load(domain)
	if !ok {
		v, _ = chCache.LoadOrStore(domain, (&tlsx.ClientHelloSpec{ServerName: domain}).Build())
	}
	cached := v.([]byte)
	out := make([]byte, len(cached))
	copy(out, cached)
	return out
}

// Path is one measurement path: the simulator and the two raw-scriptable
// stacks at its ends. Each technique is written once over a Path. The paper
// lab supplies one from a vantage to the US measurement machine
// (VantagePath), and the cross-censor testbed supplies one from its client
// to its server through the censor (TestbedPath), so every censor model
// faces the paper's own inference code.
type Path struct {
	Sim    *sim.Sim
	Local  *hostnet.Stack
	Remote *hostnet.Stack
}

// VantagePath is the path from a lab vantage to the US measurement machine.
func VantagePath(lab *topo.Lab, vantage string) Path {
	return Path{Sim: lab.Sim, Local: vantageOf(lab, vantage).Stack, Remote: lab.US1}
}

// TestbedPath is the client-to-server path through a testbed's censor.
func TestbedPath(t *topo.CensorTestbed) Path {
	return Path{Sim: t.Sim, Local: t.Client, Remote: t.Server}
}

// Flow scripts raw TCP packets between the two ends of a Path with full
// control over flags, exactly like the scapy-style scripting behind §5.3.
// Both ends are raw-bound: neither stack applies any TCP processing.
type Flow struct {
	Path
	LPort uint16
	RPort uint16

	lseq, rseq uint32
	// LocalGot and RemoteGot record an Arrival for each packet received at
	// each raw port.
	LocalGot  []hostnet.Arrival
	RemoteGot []hostnet.Arrival
}

// NewFlow opens a scripted flow local:ephemeral <-> remote:rport.
func NewFlow(p Path, rport uint16) *Flow {
	return newFlowAt(p, p.Local.EphemeralPort(), rport)
}

// newFlowAt is NewFlow on a given local port: residual probes must reuse
// the triggering 4-tuple.
func newFlowAt(p Path, lport, rport uint16) *Flow {
	f := &Flow{Path: p, LPort: lport, RPort: rport, lseq: 1000, rseq: 5000}
	p.Local.RawBind(lport, func(pkt *packet.Packet) { f.LocalGot = append(f.LocalGot, hostnet.ArrivalOf(pkt)) })
	p.Remote.RawBind(rport, func(pkt *packet.Packet) {
		if pkt.TCP.SrcPort == lport {
			f.RemoteGot = append(f.RemoteGot, hostnet.ArrivalOf(pkt))
		}
	})
	return f
}

// Close releases the raw bindings.
func (f *Flow) Close() {
	f.Local.RawUnbind(f.LPort)
	f.Remote.RawUnbind(f.RPort)
}

// L sends a local→remote packet with the given flags and payload, then
// drains the simulator.
func (f *Flow) L(flags packet.TCPFlags, payload []byte) {
	f.LTTL(0, flags, payload)
}

// LTTL is L with an explicit TTL (0 = default 64).
func (f *Flow) LTTL(ttl uint8, flags packet.TCPFlags, payload []byte) {
	p := f.Local.NewPacket()
	p.SetTCP(f.Local.Addr(), f.Remote.Addr(), f.LPort, f.RPort, flags, f.lseq, f.rseq, payload)
	if ttl != 0 {
		p.IP.TTL = ttl
	}
	p.IP.ID = f.Local.NextIPID()
	f.Local.SendOwned(p)
	f.bump(&f.lseq, flags, payload)
	f.Sim.Run()
}

// R sends a remote→local packet.
func (f *Flow) R(flags packet.TCPFlags, payload []byte) {
	f.Remote.SendTCP(f.Local.Addr(), f.RPort, f.LPort, flags, f.rseq, f.lseq, payload)
	f.bump(&f.rseq, flags, payload)
	f.Sim.Run()
}

func (f *Flow) bump(seq *uint32, flags packet.TCPFlags, payload []byte) {
	if flags.Has(packet.FlagSYN) || flags.Has(packet.FlagFIN) {
		*seq++
	}
	*seq += uint32(len(payload))
}

// Handshake scripts the local-first three-way exchange.
func (f *Flow) Handshake() {
	f.L(packet.FlagSYN, nil)
	f.R(packet.FlagsSYNACK, nil)
	f.L(packet.FlagACK, nil)
}

// Sleep advances virtual time.
func (f *Flow) Sleep(d time.Duration) {
	f.Sim.RunUntil(f.Sim.Now() + d)
}

// LastLocalRST reports whether the most recent local arrival was an RST.
func (f *Flow) LastLocalRST() bool {
	if len(f.LocalGot) == 0 {
		return false
	}
	return f.LocalGot[len(f.LocalGot)-1].Flags.Has(packet.FlagRST)
}

// downstreamRST sends a server response and reports whether it arrived
// rewritten to an RST: the SNI-I verdict.
func (f *Flow) downstreamRST() bool {
	f.R(packet.FlagsPSHACK, []byte("SERVERHELLO"))
	return f.LastLocalRST()
}

// markers is how many data packets follow an SNI-II trigger: more than the
// device's five-to-eight-packet allowance (§5.2).
const markers = 12

// markersDelivered sends the post-trigger markers upstream and counts how
// many reached the remote.
func (f *Flow) markersDelivered() int {
	before := len(f.RemoteGot)
	for i := 0; i < markers; i++ {
		f.L(packet.FlagsPSHACK, []byte("marker"))
	}
	return len(f.RemoteGot) - before
}

// markersDropped is the SNI-II verdict: some post-trigger marker was
// dropped.
func (f *Flow) markersDropped() bool { return f.markersDelivered() < markers }

// remoteDataCount counts remote arrivals carrying payload.
func (f *Flow) remoteDataCount() int {
	n := 0
	for _, a := range f.RemoteGot {
		if a.Len > 0 {
			n++
		}
	}
	return n
}

// serveHello makes st a TLS-ish server on port 443 that answers any data
// with a fixed SERVERHELLO, and returns its listener.
func serveHello(st *hostnet.Stack) *hostnet.Listener {
	return st.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) { c.Send([]byte("SERVERHELLO")) },
	})
}

// chReset dials the remote's port 443 over p, sends a ClientHello for
// domain once the connection is established, and reports whether the
// connection saw a reset: the SNI-I verdict on an ordinary connection.
func chReset(p Path, domain string) bool {
	conn := p.Local.Dial(p.Remote.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(CH(domain)) }
	p.Sim.Run()
	conn.Close()
	return conn.ResetSeen
}

// chSwallowed dials the split-handshake server ln, listening on the remote's
// port 443, sends a ClientHello for domain, and reports whether it never
// reached the server: the SNI-IV backup drop. Only conns accepted after this
// dial can belong to it, so just the tail is scanned (a full scan made
// repeated trials quadratic), matching both address and port because
// vantages allocate the same ephemeral port sequence.
func chSwallowed(p Path, ln *hostnet.Listener, domain string) bool {
	before := len(ln.Conns)
	conn := p.Local.Dial(p.Remote.Addr(), 443, hostnet.DialOptions{})
	conn.OnEstablished = func() { conn.Send(CH(domain)) }
	p.Sim.Run()
	conn.Close()
	addr := p.Local.Addr()
	for _, sc := range ln.Conns[before:] {
		if sc.RemoteAddr == addr && sc.RemotePort == conn.LocalPort && len(sc.Received) > 0 {
			return false
		}
	}
	return true
}

// udpDelivered sends payloads from one fresh source port to the remote's
// port over p and counts how many arrived.
func udpDelivered(p Path, port uint16, payloads ...[]byte) int {
	sport := p.Local.EphemeralPort()
	got := 0
	p.Remote.BindUDP(port, func(pkt *packet.Packet) {
		if pkt.UDP.SrcPort == sport {
			got++
		}
	})
	for _, payload := range payloads {
		p.Local.SendUDP(p.Remote.Addr(), sport, port, payload)
	}
	p.Sim.Run()
	return got
}

// retried runs probe up to three times and reports whether any attempt saw
// blocking. Devices miss a small fraction of triggers (Table 1), so one
// blocked observation is conclusive and only repeated passes are.
func retried(probe func() bool) bool {
	for attempt := 0; attempt < 3; attempt++ {
		if probe() {
			return true
		}
	}
	return false
}

// vantageOf resolves a vantage by name, panicking on typos — experiment code
// passes constants.
func vantageOf(lab *topo.Lab, name string) *topo.Vantage {
	v := lab.Vantages[name]
	if v == nil {
		panic("measure: unknown vantage " + name)
	}
	return v
}
