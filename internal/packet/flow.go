package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// FlowKey identifies a transport flow by 5-tuple. Following the gopacket
// Flow model, a key and its Reverse describe the two directions of one
// connection; Canonical gives a direction-independent form for map lookups.
type FlowKey struct {
	Proto            Protocol
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
}

// FlowOf extracts the flow key of a packet. For ICMP and raw packets the
// ports are zero, so all ICMP between two hosts shares one key — matching
// how the TSPU applies IP-based blocking "regardless of packet payload or
// TCP ports" (§5.2).
func FlowOf(p *Packet) FlowKey {
	return FlowKey{
		Proto:   p.IP.Protocol,
		Src:     p.IP.Src,
		Dst:     p.IP.Dst,
		SrcPort: p.SrcPort(),
		DstPort: p.DstPort(),
	}
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Proto: k.Proto, Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Canonical returns a direction-independent key: the endpoint with the lower
// (addr, port) sorts first. Both directions of a flow canonicalize to the
// same value.
func (k FlowKey) Canonical() FlowKey {
	if k.Src.Compare(k.Dst) < 0 {
		return k
	}
	if k.Src.Compare(k.Dst) == 0 && k.SrcPort <= k.DstPort {
		return k
	}
	return k.Reverse()
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// FlowKey4 is a compact, direction-independent IPv4 flow key: the full
// 5-tuple packed into 16 bytes with the lower (addr, port) endpoint first.
// It identifies exactly the same equivalence classes as
// FlowOf(p).Canonical() for IPv4 packets (the only kind this module models)
// but hashes and compares as two machine words instead of a 56-byte struct
// holding netip.Addr values, which is what makes it the conntrack map key on
// the per-packet hot path.
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

// FlowKey4Of extracts the canonical compact flow key of a packet.
func FlowKey4Of(p *Packet) FlowKey4 {
	src, dst := addr4(p.IP.Src), addr4(p.IP.Dst)
	sp, dp := p.SrcPort(), p.DstPort()
	if src > dst || (src == dst && sp > dp) {
		src, dst = dst, src
		sp, dp = dp, sp
	}
	return FlowKey4{
		hi: uint64(src)<<32 | uint64(dst),
		lo: uint64(p.IP.Protocol)<<32 | uint64(sp)<<16 | uint64(dp),
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
