package measure

import (
	"fmt"

	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
)

// LocalizeResult is the §7.1 TTL-limited localization: the device sits
// between hop (TriggerTTL-1) and hop TriggerTTL.
type LocalizeResult struct {
	Vantage string
	// TriggerTTL is the smallest trigger TTL that induces blocking; 0 if
	// none found.
	TriggerTTL int
}

// TTLLocalize finds the first symmetric TSPU on a vantage's outbound path by
// sending a full-TTL control handshake and TTL-limited triggers.
func TTLLocalize(lab *topo.Lab, vantage string, maxTTL int) LocalizeResult {
	v := vantageOf(lab, vantage)
	res := LocalizeResult{Vantage: vantage}
	for ttl := 1; ttl <= maxTTL; ttl++ {
		blocked := false
		// Retry to absorb trigger-miss noise.
		for attempt := 0; attempt < 3 && !blocked; attempt++ {
			f := NewFlow(lab, v.Stack, lab.US1, 443)
			// Control packets at full TTL establish the state.
			f.L(packet.FlagSYN, nil)
			f.R(packet.FlagsSYNACK, nil)
			f.L(packet.FlagACK, nil)
			// TTL-limited trigger.
			f.LTTL(uint8(ttl), packet.FlagsPSHACK, CH(DomainSNI1))
			// Downstream probe reveals whether SNI-I latched.
			f.R(packet.FlagsPSHACK, []byte("SERVERHELLO"))
			blocked = f.LastLocalRST()
			f.Close()
		}
		if blocked {
			res.TriggerTTL = ttl
			return res
		}
	}
	return res
}

// Render lays out the localization result.
func (r LocalizeResult) Render() *report.Doc {
	doc := new(report.Doc).Textf("%s: ", r.Vantage)
	if r.TriggerTTL == 0 {
		return doc.Text("no TSPU found on path\n")
	}
	return doc.Textf("TSPU between hop %d and hop %d (paper: within first three hops)\n", r.TriggerTTL-1, r.TriggerTTL)
}

// PartialVisibilityResult is the Fig. 8 (left) experiment: upstream-only
// TSPU devices found by reversing client/server roles.
type PartialVisibilityResult struct {
	Vantage string
	// UpstreamOnlyTTLs lists trigger TTLs at which an upstream-only device
	// blocked a remotely-initiated flow (each corresponds to a device link).
	UpstreamOnlyTTLs []int
}

// PartialVisibility detects upstream-only TSPU installations on a vantage's
// path. The US peer initiates (so symmetric devices see a remote-originated
// flow and stay exempt); the RU side then sends a TTL-limited SNI-II
// ClientHello toward the peer's port 443. A device that never saw the US SYN
// treats the RU-sent SYN/ACK as the flow opener and fires on the CH.
func PartialVisibility(lab *topo.Lab, vantage string, maxTTL int) PartialVisibilityResult {
	v := vantageOf(lab, vantage)
	res := PartialVisibilityResult{Vantage: vantage}
	for ttl := 1; ttl <= maxTTL; ttl++ {
		blocked := false
		for attempt := 0; attempt < 3 && !blocked; attempt++ {
			// Remote initiates from port 443 (so the RU-side CH is destined
			// to 443); flow is remote-originated.
			lport := v.Stack.EphemeralPort()
			f := &flowRemoteFirst{lab: lab, v: v, lport: lport}
			blocked = f.run(ttl)
		}
		if blocked {
			// Report only the first device: once its blocking latches, every
			// larger TTL is blocked too, and devices further down the path
			// are unobservable — the paper notes the same limitation
			// (§7.1.1).
			res.UpstreamOnlyTTLs = append(res.UpstreamOnlyTTLs, ttl)
			break
		}
	}
	return res
}

// flowRemoteFirst scripts the Fig. 8 (left) exchange.
type flowRemoteFirst struct {
	lab   *topo.Lab
	v     *topo.Vantage
	lport uint16
}

func (f *flowRemoteFirst) run(ttl int) bool {
	lab, v := f.lab, f.v
	us := lab.US1
	received := 0
	us.RawBind(443, func(p *packet.Packet) {
		if p.TCP.SrcPort == f.lport {
			received++
		}
	})
	defer us.RawUnbind(443)
	v.Stack.RawBind(f.lport, func(p *packet.Packet) {})
	defer v.Stack.RawUnbind(f.lport)

	// US -> RU SYN (seen only by devices with downstream visibility).
	us.SendTCP(v.Stack.Addr(), 443, f.lport, packet.FlagSYN, 9000, 0, nil)
	lab.Sim.Run()
	// RU completes with SYN/ACK (crosses every upstream device).
	v.Stack.SendTCP(us.Addr(), f.lport, 443, packet.FlagsSYNACK, 100, 9001, nil)
	lab.Sim.Run()
	// TTL-limited SNI-II ClientHello.
	ch := packet.NewTCP(v.Stack.Addr(), us.Addr(), f.lport, 443, packet.FlagsPSHACK, 101, 9001, CH(DomainSNI2))
	ch.IP.TTL = uint8(ttl)
	ch.IP.ID = v.Stack.NextIPID()
	v.Stack.Send(ch)
	lab.Sim.Run()
	// Markers: if an upstream-only device latched SNI-II, they get dropped
	// after the allowance.
	before := received
	for i := 0; i < 12; i++ {
		v.Stack.SendTCP(us.Addr(), f.lport, 443, packet.FlagsPSHACK, 200+uint32(i), 9001, []byte("marker"))
		lab.Sim.Run()
	}
	return received-before < 12
}

// Render lays out the partial-visibility result. The device list carries
// no stats: a position in a variable-length list is not a stable key.
func (r PartialVisibilityResult) Render() *report.Doc {
	doc := new(report.Doc).Textf("== Fig. 8 (left): upstream-only TSPU devices from %s ==\n", r.Vantage)
	if len(r.UpstreamOnlyTTLs) == 0 {
		return doc.Text("none detected\n")
	}
	for _, ttl := range r.UpstreamOnlyTTLs {
		doc.Text(fmt.Sprintf("upstream-only device between hop %d and %d\n", ttl-1, ttl))
	}
	return doc
}
