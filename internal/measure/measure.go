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
package measure

import (
	"net/netip"
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

// Flow scripts raw TCP packets between a local stack and a remote stack with
// full control over flags, exactly like the scapy-style scripting behind
// §5.3. Both ends are raw-bound: neither stack applies any TCP processing.
// The flow is censor-agnostic: it only needs the simulator driving the two
// stacks, so the same scripting runs against a full Lab or the minimal
// cross-censor testbed.
type Flow struct {
	sim    *sim.Sim
	Local  *hostnet.Stack
	Remote *hostnet.Stack
	LPort  uint16
	RPort  uint16

	lseq, rseq uint32
	// LocalGot and RemoteGot record packets received at each raw port.
	LocalGot  []*packet.Packet
	RemoteGot []*packet.Packet
}

// NewFlow opens a scripted flow local:ephemeral <-> remote:rport.
func NewFlow(lab *topo.Lab, local, remote *hostnet.Stack, rport uint16) *Flow {
	return NewFlowOn(lab.Sim, local, remote, rport)
}

// NewFlowOn is NewFlow against any simulator — the entry point the
// cross-censor battery uses, where there is no Lab.
func NewFlowOn(s *sim.Sim, local, remote *hostnet.Stack, rport uint16) *Flow {
	f := &Flow{
		sim: s, Local: local, Remote: remote,
		LPort: local.EphemeralPort(), RPort: rport,
		lseq: 1000, rseq: 5000,
	}
	local.RawBind(f.LPort, func(p *packet.Packet) { f.LocalGot = append(f.LocalGot, p) })
	remote.RawBind(f.RPort, func(p *packet.Packet) {
		if p.TCP.SrcPort == f.LPort {
			f.RemoteGot = append(f.RemoteGot, p)
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
	p := packet.NewTCP(f.Local.Addr(), f.Remote.Addr(), f.LPort, f.RPort, flags, f.lseq, f.rseq, hostnet.CopyPayload(payload))
	if ttl != 0 {
		p.IP.TTL = ttl
	}
	p.IP.ID = f.Local.NextIPID()
	f.Local.SendOwned(p)
	f.bump(&f.lseq, flags, payload)
	f.sim.Run()
}

// R sends a remote→local packet.
func (f *Flow) R(flags packet.TCPFlags, payload []byte) {
	p := packet.NewTCP(f.Remote.Addr(), f.Local.Addr(), f.RPort, f.LPort, flags, f.rseq, f.lseq, hostnet.CopyPayload(payload))
	p.IP.ID = f.Remote.NextIPID()
	f.Remote.SendOwned(p)
	f.bump(&f.rseq, flags, payload)
	f.sim.Run()
}

func (f *Flow) bump(seq *uint32, flags packet.TCPFlags, payload []byte) {
	if flags.Has(packet.FlagSYN) || flags.Has(packet.FlagFIN) {
		*seq++
	}
	*seq += uint32(len(payload))
}

// Sleep advances virtual time.
func (f *Flow) Sleep(d time.Duration) {
	f.sim.RunUntil(f.sim.Now() + d)
}

// LastLocalRST reports whether the most recent local arrival was an RST.
func (f *Flow) LastLocalRST() bool {
	if len(f.LocalGot) == 0 {
		return false
	}
	return f.LocalGot[len(f.LocalGot)-1].TCP.Flags.Has(packet.FlagRST)
}

// remoteDataCount counts remote arrivals carrying payload.
func (f *Flow) remoteDataCount() int {
	n := 0
	for _, p := range f.RemoteGot {
		if len(p.TCP.Payload) > 0 {
			n++
		}
	}
	return n
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

// pingBlocked pings dst from st, runs the sim, and reports whether no echo
// reply from dst came back — true means the ping was blocked.
func pingBlocked(lab *topo.Lab, st *hostnet.Stack, dst netip.Addr) bool {
	got := false
	st.OnICMP(func(p *packet.Packet) {
		if p.ICMP.Type == packet.ICMPEchoReply && p.IP.Src == dst {
			got = true
		}
	})
	st.Ping(dst, 99, 1)
	lab.Sim.Run()
	st.OnICMP(nil)
	return !got
}
