package netem

import (
	"encoding/binary"
	"net/netip"
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

func (rt *routeTable) lookup(dst netip.Addr) *Iface {
	if !dst.Is4() {
		return nil
	}
	k := addr4(dst)
	for i := range rt.byLen {
		t := &rt.byLen[i]
		if out, ok := t.out[k&t.mask]; ok {
			return out
		}
	}
	return rt.def
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
