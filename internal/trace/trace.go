// Package trace implements the traceroute machinery of §7: TCP-SYN
// traceroutes over the simulated network, extraction of "TSPU links" (the
// pair of hops bracketing a detected device), clustering of those links, and
// the hop-distance histogram of Fig. 12. It also exports Graphviz DOT for
// Fig. 10/11-style visualizations.
package trace

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// Result is one traceroute.
type Result struct {
	Dst netip.Addr
	// Hops[i] is the router that answered the TTL=i+1 probe (invalid Addr
	// for silent hops).
	Hops []netip.Addr
	// Reached reports whether the destination answered a full-TTL probe.
	Reached bool
}

// HopCount returns the number of router hops before the destination.
func (r *Result) HopCount() int { return len(r.Hops) }

// Traceroute runs a TCP-SYN traceroute from st to dst:port, probing TTLs
// 1..maxTTL. It drives s, the simulator st runs in, to completion for each
// probe, so it must run while the sim is otherwise quiescent.
func Traceroute(s *sim.Sim, st *hostnet.Stack, dst netip.Addr, port uint16, maxTTL int) *Result {
	res := &Result{Dst: dst}
	for ttl := 1; ttl <= maxTTL; ttl++ {
		var hop netip.Addr
		// The probe is a real (TTL-limited) connection attempt so the
		// destination's SYN/ACK or RST marks arrival; ICMP Time Exceeded
		// marks the expiring hop. Probes use fresh ports, and the embedded
		// header in the ICMP error identifies our probe.
		conn := st.Dial(dst, port, hostnet.DialOptions{TTL: uint8(ttl)})
		sport := conn.LocalPort
		st.OnICMP(func(p *packet.Packet) {
			if p.ICMP.Type == packet.ICMPTimeExceed && len(p.ICMP.Payload) >= 24 {
				embSport := uint16(p.ICMP.Payload[20])<<8 | uint16(p.ICMP.Payload[21])
				if embSport == sport {
					hop = p.IP.Src
				}
			}
		})
		s.Run()
		reached := len(conn.Packets) > 0
		conn.Close()
		if reached {
			res.Reached = true
			break
		}
		res.Hops = append(res.Hops, hop)
	}
	st.OnICMP(nil)
	return res
}

// Link is a TSPU link: the hops bracketing a detected device.
type Link struct {
	Before, After netip.Addr
}

func (l Link) String() string {
	return fmt.Sprintf("%s=[TSPU]=%s", l.Before, l.After)
}

// LinkFromTrace derives the TSPU link from a traceroute and the device's
// distance from the destination in links (1 = the destination's access
// link). hopsFromDst comes from the TTL-limited fragment localization.
func LinkFromTrace(r *Result, hopsFromDst int) (Link, bool) {
	// The path is: src ... Hops[0..n-1], dst. Link i (1-based from the
	// destination) connects Hops[n-i] to the next element toward dst.
	n := len(r.Hops)
	if !r.Reached || hopsFromDst < 1 || hopsFromDst > n {
		return Link{}, false
	}
	before := r.Hops[n-hopsFromDst]
	var after netip.Addr
	if hopsFromDst == 1 {
		after = r.Dst
	} else {
		after = r.Hops[n-hopsFromDst+1]
	}
	if !before.IsValid() || !after.IsValid() {
		return Link{}, false
	}
	return Link{Before: before, After: after}, true
}

// Cluster groups TSPU links. Links to leaf destinations cluster by the
// before-hop only, mirroring §7.3's method ("for TSPU links that connect
// leaf nodes, we cluster them based only on the IP of the hop before").
type Cluster struct {
	links map[string][]Link
}

// NewCluster creates an empty cluster set.
func NewCluster() *Cluster { return &Cluster{links: make(map[string][]Link)} }

// Add records one link; leaf marks destination-terminated links.
func (c *Cluster) Add(l Link, leaf bool) {
	key := l.Before.String() + ">" + l.After.String()
	if leaf {
		key = l.Before.String() + ">leaf"
	}
	c.links[key] = append(c.links[key], l)
}

// Unique returns the number of distinct TSPU links.
func (c *Cluster) Unique() int { return len(c.links) }

// Members returns the cluster sizes sorted descending.
func (c *Cluster) Members() []int {
	var out []int
	for _, ls := range c.links {
		out = append(out, len(ls))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// DOT renders the traceroute set as a Graphviz graph with TSPU links in red,
// the Fig. 10/11 visualization.
func DOT(results []*Result, tspuLinks map[string]bool) string {
	var b strings.Builder
	b.WriteString("digraph tspu {\n  rankdir=LR;\n  node [shape=point];\n")
	edges := map[string]bool{}
	for _, r := range results {
		prev := "src"
		path := append([]netip.Addr{}, r.Hops...)
		if r.Reached {
			path = append(path, r.Dst)
		}
		for _, h := range path {
			if !h.IsValid() {
				continue
			}
			cur := h.String()
			key := prev + "->" + cur
			if !edges[key] {
				edges[key] = true
				attr := ""
				if tspuLinks[key] {
					attr = " [color=red penwidth=2]"
				}
				fmt.Fprintf(&b, "  %q -> %q%s;\n", prev, cur, attr)
			}
			prev = cur
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// EdgeKey builds the DOT edge key for a TSPU link so callers can mark it.
func EdgeKey(l Link) string { return l.Before.String() + "->" + l.After.String() }
