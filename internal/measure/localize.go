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
	p := VantagePath(lab, vantage)
	return LocalizeResult{
		Vantage:    vantage,
		TriggerTTL: ttlLadder(func() Path { return p }, 443, maxTTL, tlsTTLTrigger(DomainSNI1)),
	}
}

// ttlLadder is §7.1's TTL-limited localization: the smallest TTL in
// [1, maxTTL] at which probe, scripted on a fresh flow to rport, sees
// interference, or 0 if none does. Each TTL gets up to three attempts to
// absorb trigger misses. path supplies each attempt's path: the lab's stays
// the same because fresh ports are enough there, while the testbed's is a
// fresh testbed, which replays identically.
func ttlLadder(path func() Path, rport uint16, maxTTL int, probe func(f *Flow, ttl uint8) bool) int {
	for ttl := 1; ttl <= maxTTL; ttl++ {
		hit := retried(func() bool {
			f := NewFlow(path(), rport)
			defer f.Close()
			return probe(f, uint8(ttl))
		})
		if hit {
			return ttl
		}
	}
	return 0
}

// tlsTTLTrigger is the ladder's TLS probe: a full-TTL control handshake
// establishes the state, then a TTL-limited ClientHello for domain. It
// interferes when an RST reaches either end right away, or when the
// following downstream response comes back rewritten to an RST.
func tlsTTLTrigger(domain string) func(f *Flow, ttl uint8) bool {
	return func(f *Flow, ttl uint8) bool {
		f.Handshake()
		f.LTTL(ttl, packet.FlagsPSHACK, CH(domain))
		injected := f.LastLocalRST() || anyRST(f.RemoteGot)
		return f.downstreamRST() || injected
	}
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
	p := VantagePath(lab, vantage)
	res := PartialVisibilityResult{Vantage: vantage}
	ttl := ttlLadder(func() Path { return p }, 443, maxTTL, func(f *Flow, ttl uint8) bool {
		// US -> RU SYN (seen only by devices with downstream visibility);
		// RU completes with SYN/ACK (crosses every upstream device).
		f.R(packet.FlagSYN, nil)
		f.L(packet.FlagsSYNACK, nil)
		f.LTTL(ttl, packet.FlagsPSHACK, CH(DomainSNI2))
		// If an upstream-only device latched SNI-II, the markers get
		// dropped after the allowance.
		return f.markersDropped()
	})
	if ttl > 0 {
		// Report only the first device: once its blocking latches, every
		// larger TTL is blocked too, and devices further down the path are
		// unobservable — the paper notes the same limitation (§7.1.1).
		res.UpstreamOnlyTTLs = []int{ttl}
	}
	return res
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
