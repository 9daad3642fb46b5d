// Package tspu implements the paper's primary contribution as an executable
// model: the TSPU middlebox. The device is in-path (it can drop and rewrite
// packets, §5.2), stateful (it tracks connection roles and states with the
// measured timeouts of §5.3.3), asymmetric (it blocks only connections that
// originate from the local/Russian side), and centrally controlled (every
// device consumes one Policy distributed by a Controller, reproducing the
// cross-ISP uniformity of §5.1).
//
// Triggers: SNI-based (structural ClientHello parse, four behaviors),
// QUIC-v1 fingerprint, and IP-based blocking. Fragment handling implements
// §5.3.1 exactly: buffer-until-last, forward unreassembled, TTL rewrite to
// the first fragment's TTL, 45-fragment queue limit, duplicate/overlap
// discard, and a 5-second queue timeout.
package tspu

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"tspusim/internal/sim"
)

// BlockType enumerates the paper's six blocking behaviors.
//
//tspuvet:closedenum
type BlockType int

// Blocking behaviors (§5.2).
const (
	// SNI1 rewrites remote-to-local packets to payload-stripped RST/ACK
	// after a triggering ClientHello.
	SNI1 BlockType = iota
	// SNI2 allows a handful more packets from either side, then drops
	// symmetrically ("out-registry" domains like play.google.com).
	SNI2
	// SNI3 throttles the flow to ~600-700 bytes/second (the Feb 26 - Mar 4
	// 2022 policy for twitter.com and fbcdn.net).
	SNI3
	// SNI4 is the backup mechanism that drops all packets from both sides,
	// including the trigger, for select Facebook/Twitter domains when SNI1
	// fails to act.
	SNI4
	// QUICBlock drops all packets of a flow after a QUIC v1 initial.
	QUICBlock
	// IPBlock drops or rewrites traffic to/from blocked IPs regardless of
	// payload or port.
	IPBlock
)

func (b BlockType) String() string {
	switch b {
	case SNI1:
		return "SNI-I"
	case SNI2:
		return "SNI-II"
	case SNI3:
		return "SNI-III"
	case SNI4:
		return "SNI-IV"
	case QUICBlock:
		return "QUIC"
	case IPBlock:
		return "IP"
	}
	return "?"
}

// DomainSet matches fully-qualified names exactly and any subdomain of an
// entry (twitter.com matches api.twitter.com). Entries are stored lowercase
// in a string-keyed set; the per-packet path queries it through Match, whose
// byte-slice lookups compile to map accesses without a string conversion
// allocating. Lookups only read the set, so one set may be matched from
// many goroutines at once.
type DomainSet struct {
	exact map[string]bool
}

// NewDomainSet builds a set from entries.
func NewDomainSet(domains ...string) *DomainSet {
	s := &DomainSet{exact: make(map[string]bool, len(domains))}
	s.Add(domains...)
	return s
}

// Add inserts domains. Every trailing dot is stripped, as lookups strip
// them, so an entry never ends in a dot that no lookup could match.
func (s *DomainSet) Add(domains ...string) {
	for _, d := range domains {
		s.exact[asciiLower(strings.TrimRight(d, "."))] = true
	}
}

// Remove deletes domains.
func (s *DomainSet) Remove(domains ...string) {
	for _, d := range domains {
		delete(s.exact, asciiLower(strings.TrimRight(d, ".")))
	}
}

// asciiLower lower-cases ASCII letters only. Entries and lookups all fold
// with this rather than strings.ToLower, so every added name matches itself
// and Contains and Match agree on every input: Unicode folding can alias
// into ASCII (U+212A "K" lowers to "k"), which would let a crafted name
// match a set entry under one path and not the other. DNS names on the wire
// are ASCII, so real lookups are unaffected.
func asciiLower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if c := b[j]; 'A' <= c && c <= 'Z' {
					b[j] = c + ('a' - 'A')
				}
			}
			return string(b)
		}
	}
	return s
}

// Contains reports whether name or any parent domain of name is in the set.
func (s *DomainSet) Contains(name string) bool {
	if s == nil {
		return false
	}
	name = asciiLower(strings.TrimRight(name, "."))
	for name != "" {
		if s.exact[name] {
			return true
		}
		i := strings.IndexByte(name, '.')
		if i < 0 {
			return false
		}
		name = name[i+1:]
	}
	return false
}

// Match reports whether name (raw SNI bytes: any ASCII case, optional
// trailing dots) or any parent domain of it is in the set. It is the
// allocation-free form of Contains: suffix candidates index the set as byte
// slices (m[string(b)] map accesses do not allocate), and case folding —
// ASCII only, which is all DNS names on the wire can carry — copies the name
// into an array on the stack instead of strings.ToLower. Match never mutates
// name.
func (s *DomainSet) Match(name []byte) bool {
	if s == nil || len(s.exact) == 0 {
		return false
	}
	for len(name) > 0 && name[len(name)-1] == '.' {
		name = name[:len(name)-1]
	}
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			// 256 bytes hold any DNS name; a longer one grows onto the heap.
			var fold [256]byte
			buf := append(fold[:0], name...)
			for j := i; j < len(buf); j++ {
				if c := buf[j]; 'A' <= c && c <= 'Z' {
					buf[j] = c + ('a' - 'A')
				}
			}
			return s.matchSuffixes(buf)
		}
	}
	return s.matchSuffixes(name)
}

// matchSuffixes probes the set with a folded name and each parent domain
// of it. It is Match's one probe loop; keeping it a separate function, with
// the folded copy passed in, is what keeps Match's fold array on the stack.
func (s *DomainSet) matchSuffixes(name []byte) bool {
	for len(name) > 0 {
		if s.exact[string(name)] {
			return true
		}
		i := bytes.IndexByte(name, '.')
		if i < 0 {
			return false
		}
		name = name[i+1:]
	}
	return false
}

// Len returns the number of entries.
func (s *DomainSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.exact)
}

// Domains returns the entries in sorted order, so anything rendered from a
// policy (reports, surveys, traces) is independent of map iteration order.
func (s *DomainSet) Domains() []string {
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.exact))
	for d := range s.exact {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the set.
func (s *DomainSet) Clone() *DomainSet {
	c := NewDomainSet()
	if s != nil {
		for d := range s.exact {
			c.exact[d] = true
		}
	}
	return c
}

// Policy is the centrally-distributed blocking policy that every TSPU device
// enforces. Unlike the per-ISP blocklists of the pre-2019 decentralized
// model, one Policy value is shared verbatim by all devices (§5.1), and it
// may include "out-registry" resources absent from Roskomnadzor's public
// registry.
type Policy struct {
	// Version increments on every controller push.
	Version int
	// SNI1Domains, SNI2Domains, SNI4Domains select the SNI behaviors. SNI4
	// is applied as a backup for its domains when SNI1 cannot act.
	SNI1Domains *DomainSet
	SNI2Domains *DomainSet
	SNI4Domains *DomainSet
	// ThrottleDomains selects SNI-III throttling (active only while
	// ThrottleActive, matching the Feb 26 - Mar 4 window).
	ThrottleDomains *DomainSet
	ThrottleActive  bool
	// ThrottleRate is the SNI-III policing rate in bytes/second (paper:
	// 600-700 B/s; default 650).
	ThrottleRate int
	// BlockedIPs are IP-blocked endpoints (the Tor entry node and six other
	// IPs in the paper), none of which need be in the public registry. It
	// is read when the controller takes the policy — NewController,
	// Controller.Update, Controller.UpdateStaggered — which compiles it for
	// the datapath; later edits to an installed policy's map take effect at
	// the next push.
	BlockedIPs map[netip.Addr]bool
	// QUICFilter enables the QUIC v1 fingerprint filter (on since Mar 4).
	QUICFilter bool

	// blockedIPs is BlockedIPs as compiled at install (compileIPs).
	blockedIPs ipSet
}

// ipSet is Policy.BlockedIPs compiled for the per-packet path: the IPv4
// addresses whose entry is true, as sorted big-endian uint32s, so a probe is
// a binary search over words instead of hashing a 24-byte netip.Addr.
type ipSet struct {
	v4 []uint32
	// other reports a true entry that is not plain IPv4 (IPv6 or 4-in-6);
	// only then are non-IPv4 addresses looked up in BlockedIPs itself.
	other bool
}

// compileIPs rebuilds p.blockedIPs from p.BlockedIPs.
func (p *Policy) compileIPs() {
	var v4 []uint32
	other := false
	for a, blocked := range p.BlockedIPs {
		switch {
		case !blocked:
		case a.Is4():
			b := a.As4()
			v4 = append(v4, binary.BigEndian.Uint32(b[:]))
		default:
			other = true
		}
	}
	slices.Sort(v4)
	p.blockedIPs = ipSet{v4: v4, other: other}
}

// anyIPBlocked reports whether the installed policy blocks any address.
func (p *Policy) anyIPBlocked() bool {
	return len(p.blockedIPs.v4) > 0 || p.blockedIPs.other
}

// ipBlocked is IPBlocked answered from the compiled set.
func (p *Policy) ipBlocked(addr netip.Addr) bool {
	if addr.Is4() {
		b := addr.As4()
		_, found := slices.BinarySearch(p.blockedIPs.v4, binary.BigEndian.Uint32(b[:]))
		return found
	}
	return p.blockedIPs.other && p.BlockedIPs[addr]
}

// NewPolicy returns an empty policy with defaults.
func NewPolicy() *Policy {
	return &Policy{
		SNI1Domains:     NewDomainSet(),
		SNI2Domains:     NewDomainSet(),
		SNI4Domains:     NewDomainSet(),
		ThrottleDomains: NewDomainSet(),
		ThrottleRate:    650,
		BlockedIPs:      make(map[netip.Addr]bool),
		QUICFilter:      true,
	}
}

// Clone deep-copies the policy.
func (p *Policy) Clone() *Policy {
	q := *p
	q.SNI1Domains = p.SNI1Domains.Clone()
	q.SNI2Domains = p.SNI2Domains.Clone()
	q.SNI4Domains = p.SNI4Domains.Clone()
	q.ThrottleDomains = p.ThrottleDomains.Clone()
	q.BlockedIPs = make(map[netip.Addr]bool, len(p.BlockedIPs))
	for ip, v := range p.BlockedIPs {
		q.BlockedIPs[ip] = v
	}
	return &q
}

// Classification is the set of behaviors a domain maps to.
type Classification struct {
	SNI1, SNI2, SNI4, Throttle bool
}

// Any reports whether any behavior applies.
func (c Classification) Any() bool { return c.SNI1 || c.SNI2 || c.SNI4 || c.Throttle }

// Classify maps an SNI value to its blocking behaviors under this policy. It
// is the string-based reference path, used by the reassembly ablation and
// tests; ClassifyBytes is the allocation-free form.
func (p *Policy) Classify(domain string) Classification {
	c := Classification{
		SNI1: p.SNI1Domains.Contains(domain),
		SNI2: p.SNI2Domains.Contains(domain),
		SNI4: p.SNI4Domains.Contains(domain),
	}
	if p.ThrottleActive && p.ThrottleDomains.Contains(domain) {
		c.Throttle = true
	}
	return c
}

// ClassifyBytes is the allocation-free form of Classify for SNI bytes
// aliasing a packet payload. It matches Classify on every ASCII input (DNS
// names are ASCII on the wire); TestClassifyBytesEquivalence pins that.
func (p *Policy) ClassifyBytes(domain []byte) Classification {
	c := Classification{
		SNI1: p.SNI1Domains.Match(domain),
		SNI2: p.SNI2Domains.Match(domain),
		SNI4: p.SNI4Domains.Match(domain),
	}
	if p.ThrottleActive && p.ThrottleDomains.Match(domain) {
		c.Throttle = true
	}
	return c
}

// IPBlocked reports whether BlockedIPs lists addr as blocked. A device
// answers from the copy compiled when the policy was installed.
func (p *Policy) IPBlocked(addr netip.Addr) bool { return p.BlockedIPs[addr] }

// Controller is Roskomnadzor's control plane: it owns the canonical Policy
// and pushes updates to every registered device simultaneously, which is
// what produces the temporal uniformity OONI observed across ISPs (§2).
type Controller struct {
	policy  *Policy
	devices []*Device
}

// NewController creates a controller with an initial policy (cloned).
func NewController(p *Policy) *Controller {
	if p == nil {
		p = NewPolicy()
	}
	c := &Controller{policy: p.Clone()}
	c.policy.compileIPs()
	return c
}

// Policy returns the controller's current policy (callers must not mutate;
// use Update).
func (c *Controller) Policy() *Policy { return c.policy }

// Register attaches a device to this controller and immediately installs the
// current policy.
func (c *Controller) Register(d *Device) {
	c.devices = append(c.devices, d)
	d.policy = c.policy
}

// Update applies fn to a clone of the current policy, bumps the version, and
// atomically installs the result on every registered device.
func (c *Controller) Update(fn func(*Policy)) {
	next := c.advance(fn)
	for _, d := range c.devices {
		d.policy = next
	}
}

// UpdateStaggered distributes a policy update the way a real control plane
// does: each device installs the new policy after its own small delay drawn
// from [0, maxJitter]. The paper's observers saw exactly this signature —
// blocking onsets across the whole country within a tight window ("temporal
// uniformity... in some sort of centralized way", §2) — in contrast to ISP
// blocklists that lag by days. The returned version identifies the push.
func (c *Controller) UpdateStaggered(s *sim.Sim, rng *sim.Rand, maxJitter time.Duration, fn func(*Policy)) int {
	next := c.advance(fn)
	for _, d := range c.devices {
		delay := time.Duration(0)
		if maxJitter > 0 {
			delay = time.Duration(rng.Uint64() % uint64(maxJitter))
		}
		s.After(delay, func() { d.policy = next })
	}
	return next.Version
}

// advance is the one step of every push: it applies fn to a clone of the
// current policy, compiles the clone for the datapath, bumps its version and
// makes it the controller's policy. The caller installs it on the devices.
func (c *Controller) advance(fn func(*Policy)) *Policy {
	next := c.policy.Clone()
	fn(next)
	next.compileIPs()
	next.Version = c.policy.Version + 1
	c.policy = next
	return next
}
