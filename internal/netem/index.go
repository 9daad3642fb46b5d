package netem

import (
	"encoding/binary"
	"net/netip"
	"slices"
)

// routeTable is a node's longest-prefix-match index. Every prefix length in
// use gets one exact-match table keyed by the masked destination, and Lookup
// probes them longest first, so a lookup costs one map probe per distinct
// length rather than one comparison per route. The default route has no
// bits to match and is a plain field. Re-adding an equal prefix overwrites
// its key, which is the documented rule: longest prefix wins, and among equal
// prefixes the most recently added.
type routeTable struct {
	def *Iface
	// byLen holds one table per prefix length in use, longest first.
	byLen []prefixTable
	// lazy holds the prefixes whose routes are built on demand
	// (Node.AddLazyRoute). It is empty on nearly every node.
	lazy []lazyPrefix
}

type lazyPrefix struct {
	bits      int
	mask, key uint32
	build     func(dst netip.Addr)
}

type prefixTable struct {
	bits int
	mask uint32
	out  map[uint32]*Iface
}

// addr4 is an IPv4 address as a big-endian integer.
func addr4(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func (rt *routeTable) add(prefix netip.Prefix, out *Iface) {
	bits := prefix.Bits()
	if bits == 0 {
		rt.def = out
		return
	}
	i := 0
	for i < len(rt.byLen) && rt.byLen[i].bits > bits {
		i++
	}
	if i == len(rt.byLen) || rt.byLen[i].bits != bits {
		rt.byLen = append(rt.byLen, prefixTable{})
		copy(rt.byLen[i+1:], rt.byLen[i:])
		rt.byLen[i] = prefixTable{bits: bits, mask: ^uint32(0) << (32 - bits), out: make(map[uint32]*Iface)}
	}
	t := &rt.byLen[i]
	t.out[addr4(prefix.Addr())&t.mask] = out
}

func (rt *routeTable) addLazy(prefix netip.Prefix, build func(netip.Addr)) {
	mask := ^uint32(0) << (32 - prefix.Bits())
	rt.lazy = append(rt.lazy, lazyPrefix{bits: prefix.Bits(), mask: mask, key: addr4(prefix.Addr()) & mask, build: build})
}

func (rt *routeTable) lookup(dst netip.Addr) *Iface {
	if !dst.Is4() {
		return nil
	}
	k := addr4(dst)
	out, bits := rt.match(k)
	for i := range rt.lazy {
		if lz := &rt.lazy[i]; lz.bits > bits && k&lz.mask == lz.key {
			lz.build(dst)
			out, _ = rt.match(k)
			break
		}
	}
	return out
}

// match is the longest-prefix match over the built routes; it returns the
// output interface and the matched prefix length (0 for the default route
// or no route).
func (rt *routeTable) match(k uint32) (*Iface, int) {
	for i := range rt.byLen {
		t := &rt.byLen[i]
		if out, ok := t.out[k&t.mask]; ok {
			return out, t.bits
		}
	}
	return rt.def, 0
}

func (rt *routeTable) list() []Route {
	var out []Route
	var keys []uint32
	for _, t := range rt.byLen {
		keys = keys[:0]
		for key := range t.out {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			var a [4]byte
			binary.BigEndian.PutUint32(a[:], key)
			out = append(out, Route{netip.PrefixFrom(netip.AddrFrom4(a), t.bits), t.out[key]})
		}
	}
	if rt.def != nil {
		out = append(out, Route{netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0), rt.def})
	}
	return out
}

// addrScanMax is the interface count up to which HasAddr scans the
// interface list; past it the node indexes its addresses. Hosts and chain
// routers have a few interfaces and keep no index, while core and access
// routers, with one interface per attached link, get one.
const addrScanMax = 8

// indexAddr records a newly added interface address, building the index
// once the node outgrows a scan.
func (nd *Node) indexAddr(a netip.Addr) {
	if nd.addrs == nil {
		if len(nd.ifaces) <= addrScanMax {
			return
		}
		nd.addrs = make(map[uint32]struct{}, 2*len(nd.ifaces))
		for _, ifc := range nd.ifaces {
			nd.addrs[addr4(ifc.addr)] = struct{}{}
		}
		return
	}
	nd.addrs[addr4(a)] = struct{}{}
}
