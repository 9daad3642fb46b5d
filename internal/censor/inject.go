package censor

import (
	"net/netip"

	"tspusim/internal/dnsx"
	"tspusim/internal/httpx"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/tlsx"
)

// The injection moves the comparison censors share: TM, the IN profiles and
// the arms race's watchers match a trigger, then forge a teardown or a DNS
// answer. Each caller keeps its own verdict and counters.

// Blocklist is the lookup a trigger table offers (tspu.DomainSet).
type Blocklist interface {
	Contains(name string) bool
}

// MatchTrigger returns the first blocked name a TCP payload carries: the
// HTTP Host header checked against http, then the TLS SNI against sni. A
// nil list skips its field.
func MatchTrigger(payload []byte, http, sni Blocklist) (string, bool) {
	if http != nil {
		if req, err := httpx.ParseRequest(payload); err == nil && http.Contains(req.Host) {
			return req.Host, true
		}
	}
	if sni != nil {
		if raw, ok := tlsx.ExtractSNI(payload); ok {
			if name := string(raw); sni.Contains(name) {
				return name, true
			}
		}
	}
	return "", false
}

// InjectRSTPair tears pkt's connection down from the middle (TM §5): an
// RST+ACK toward the sender acknowledging pkt's payload, and one toward the
// receiver carrying the sender's sequence.
func InjectRSTPair(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) {
	toSender := rstToSender(pkt)
	toReceiver := packet.NewTCP(pkt.IP.Src, pkt.IP.Dst, pkt.TCP.SrcPort, pkt.TCP.DstPort,
		packet.FlagsRSTACK, pkt.TCP.Seq, pkt.TCP.Ack, nil)
	pipe.Inject(toSender, dir.Reverse())
	pipe.Inject(toReceiver, dir)
}

// InjectRSTToSender injects only the half of the pair that travels back to
// pkt's sender.
func InjectRSTToSender(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) {
	pipe.Inject(rstToSender(pkt), dir.Reverse())
}

// rstToSender speaks with the receiver's voice: seq is the sender's ack,
// ack covers the sender's payload.
func rstToSender(pkt *packet.Packet) *packet.Packet {
	return packet.NewTCP(pkt.IP.Dst, pkt.IP.Src, pkt.TCP.DstPort, pkt.TCP.SrcPort,
		packet.FlagsRSTACK, pkt.TCP.Ack, pkt.TCP.Seq+uint32(len(pkt.TCP.Payload)), nil)
}

// InjectDNSAnswer forges an A answer pointing at addr for a DNS query in pkt
// whose name is on list, and injects it back toward the querier. It reports
// whether it injected: responses, undecodable payloads and unlisted names
// draw nothing.
func InjectDNSAnswer(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction, list Blocklist, addr netip.Addr) bool {
	m, err := dnsx.Decode(pkt.UDP.Payload)
	if err != nil || m.Response || !list.Contains(m.Question) {
		return false
	}
	wire, err := dnsx.NewQuery(m.ID, m.Question).Respond(addr).Encode()
	if err != nil {
		return false
	}
	pipe.Inject(packet.NewUDP(pkt.IP.Dst, pkt.IP.Src, pkt.UDP.DstPort, pkt.UDP.SrcPort, wire), dir.Reverse())
	return true
}
