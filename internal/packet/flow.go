package packet

import (
	"encoding/binary"
	"net/netip"
)

// FlowKey4 is the flow key: an IPv4 5-tuple packed into 16 bytes with the
// lower (addr, port) endpoint first, so both directions of a flow share one
// key. It hashes and compares as two machine words, which is what makes it
// the key of the TSPU's conntrack, the batch engine's lanes and the host
// stacks' connection tables.
//
// Because the key is direction-independent, L:a→L:b and L:b→L:a (one
// address talking to itself with the ports swapped) share an entry. A host
// stack would see that only when dialing its own address, which no
// simulated host does.
type FlowKey4 struct {
	// hi is src<<32|dst of the canonical direction; lo packs
	// proto<<32|srcPort<<16|dstPort.
	hi, lo uint64
}

// addr4 returns the big-endian uint32 form of an IPv4 (or 4-in-6) address.
// Non-IPv4 addresses (including the zero Addr) fold to 0 rather than
// panicking: they cannot occur in simulator-built traffic, and a middlebox
// must not crash on garbage.
func addr4(a netip.Addr) uint32 {
	if a.Is4() || a.Is4In6() {
		b := a.As4()
		return binary.BigEndian.Uint32(b[:])
	}
	return 0
}

// FlowKey4Of extracts the flow key of a packet. For ICMP and raw packets the
// ports are zero, so all ICMP between two hosts shares one key — matching
// how the TSPU applies IP-based blocking "regardless of packet payload or
// TCP ports" (§5.2).
func FlowKey4Of(p *Packet) FlowKey4 {
	return flowKey4(p.IP.Protocol, addr4(p.IP.Src), addr4(p.IP.Dst), p.SrcPort(), p.DstPort())
}

// FlowKey4For builds the flow key of the 5-tuple src:sport → dst:dport; it
// equals FlowKey4Of of any packet of that flow, in either direction.
func FlowKey4For(proto Protocol, src, dst netip.Addr, sport, dport uint16) FlowKey4 {
	return flowKey4(proto, addr4(src), addr4(dst), sport, dport)
}

// flowKey4 canonicalizes and packs a 5-tuple. It is small enough to inline,
// so FlowKey4Of, on the per-packet path, pays no extra call for sharing it.
func flowKey4(proto Protocol, src, dst uint32, sp, dp uint16) FlowKey4 {
	if src > dst || (src == dst && sp > dp) {
		src, dst = dst, src
		sp, dp = dp, sp
	}
	return FlowKey4{
		hi: uint64(src)<<32 | uint64(dst),
		lo: uint64(proto)<<32 | uint64(sp)<<16 | uint64(dp),
	}
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
// It is the hash behind FlowKey4 sharding; xoshiro's authors recommend it for
// exactly this kind of avalanche duty, and it is a pure function so sharded
// structures stay deterministic across runs.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash returns a well-mixed 64-bit hash of the full canonical 5-tuple. Used
// to derive per-flow deterministic random streams: the same flow hashes the
// same regardless of which shard, worker, or batch observes it.
func (k FlowKey4) Hash() uint64 {
	return mix64(k.hi ^ mix64(k.lo))
}

// PairHash returns a well-mixed hash of the key's canonical (src, dst)
// address word only. Every key between the same host pair — both directions
// of every flow, and every fragment of every queue between them (fragment
// queues are keyed by (src, dst, IPID)) — shares a PairHash. That makes it
// the shard-selection function for the sharded conntrack and the batch
// engine: all middlebox state is keyed by (src, dst, ...), so partitioning
// traffic by PairHash guarantees two workers never touch the same entry,
// fragment queue, or reassembly buffer.
func (k FlowKey4) PairHash() uint64 {
	return mix64(k.hi)
}

// FragKey identifies a fragment queue. Per §5.3.1 the TSPU keys its fragment
// state on the (source, destination, IPID) tuple.
type FragKey struct {
	Src, Dst netip.Addr
	ID       uint16
}

// FragKeyOf extracts the fragment-queue key of a packet.
func FragKeyOf(p *Packet) FragKey {
	return FragKey{Src: p.IP.Src, Dst: p.IP.Dst, ID: p.IP.ID}
}

// MustAddr parses a dotted-quad address, panicking on error. For use in
// tests, topology literals, and examples.
func MustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	if !a.Is4() {
		panic("packet: not an IPv4 address: " + s)
	}
	return a
}
