// Package ispdpi implements the baselines the paper compares the TSPU
// against: the pre-2019 "decentralized model" (§2, [81]) in which each ISP
// runs its own blocking — typically DNS blockpage injection at the ISP
// resolver, with its own (often stale) subset of the registry — plus the
// comparator middleboxes and OS connection-tracking profiles (Table 7) used
// to show that the TSPU's fragment-queue limit and timeouts match no known
// implementation.
package ispdpi

import (
	"net/netip"
	"strings"

	"tspusim/internal/censor"
	"tspusim/internal/dnsx"
	"tspusim/internal/hostnet"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/tspu"
)

// BlockpageResolver is an ISP resolver that answers censored names with the
// ISP's blockpage IP. Each ISP maintains its own blocklist — a subset of the
// registry updated at its own pace — which is exactly the non-uniformity
// Fig. 6 contrasts with the TSPU.
type BlockpageResolver struct {
	// ISP names the operator.
	ISP string
	// Blockpage is this ISP's blockpage address (differs per ISP).
	Blockpage netip.Addr
	// Blocklist returns the ISP-maintained blocklist. The resolver calls it
	// on each lookup, so a list built on first use is built only when a name
	// is resolved.
	Blocklist func() *tspu.DomainSet
	// Upstream resolves uncensored names.
	Upstream func(name string) []netip.Addr

	Server *dnsx.Server
	// BlockpageServed counts censored answers.
	BlockpageServed int
}

// NewBlockpageResolver installs a blockpage resolver on st.
func NewBlockpageResolver(st *hostnet.Stack, isp string, blockpage netip.Addr, blocklist func() *tspu.DomainSet, upstream func(string) []netip.Addr) *BlockpageResolver {
	r := &BlockpageResolver{ISP: isp, Blockpage: blockpage, Blocklist: blocklist, Upstream: upstream}
	r.Server = dnsx.NewServer(st, func(name string) []netip.Addr {
		if r.Blocklist().Contains(name) {
			r.BlockpageServed++
			return []netip.Addr{r.Blockpage}
		}
		if r.Upstream != nil {
			return r.Upstream(name)
		}
		return nil
	})
	return r
}

// KeywordDPI is the other ISP-deployed mechanism previous work observed [81]:
// a naive substring matcher over packet payloads that injects RSTs. Unlike
// the TSPU it does not parse protocols, so it both overblocks (keyword
// anywhere in any payload) and underblocks (misses anything not matching
// byte-for-byte).
type KeywordDPI struct {
	ISP      string
	Keywords []string
	// Resets counts connections it killed.
	Resets int
}

// Name implements netem.Middlebox.
func (k *KeywordDPI) Name() string { return "keyword-dpi/" + k.ISP }

// ConntrackSize implements censor.Censor: the keyword matcher is stateless —
// every packet is judged in isolation, so nothing outlives a flow.
func (k *KeywordDPI) ConntrackSize() int { return 0 }

// PendingFragQueues implements censor.Censor: no reassembly, fragments pass
// uninspected (which is precisely why fragmentation evades it).
func (k *KeywordDPI) PendingFragQueues() int { return 0 }

// Handle implements netem.Middlebox.
func (k *KeywordDPI) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if pkt.TCP == nil || len(pkt.TCP.Payload) == 0 {
		return netem.Pass
	}
	payload := string(pkt.TCP.Payload)
	for _, kw := range k.Keywords {
		if strings.Contains(payload, kw) {
			pkt.TCP.Payload = nil
			pkt.TCP.Flags = packet.FlagsRSTACK
			k.Resets++
			return netem.Pass
		}
	}
	return netem.Pass
}

// FragLimitMiddlebox is a non-TSPU middlebox that also bounds fragment
// queues — the population responsible for the 0.708% of US hosts that look
// TSPU-like in §7.2. It reassembles (unlike the TSPU) and forwards the whole
// packet, discarding over-limit queues.
type FragLimitMiddlebox struct {
	Label string

	reasm packet.Reassembler
	// Discarded counts dropped queues.
	Discarded int
}

// NewFragLimitMiddlebox builds a comparator with the given queue limit
// (Cisco 24, Juniper 250, etc.).
func NewFragLimitMiddlebox(label string, limit int) *FragLimitMiddlebox {
	return &FragLimitMiddlebox{Label: label, reasm: packet.Reassembler{Limit: limit}}
}

// Name implements netem.Middlebox.
func (m *FragLimitMiddlebox) Name() string { return "fraglimit/" + m.Label }

// ConntrackSize implements censor.Censor: the comparator tracks no flows,
// only fragment queues.
func (m *FragLimitMiddlebox) ConntrackSize() int { return 0 }

// PendingFragQueues implements censor.Censor.
func (m *FragLimitMiddlebox) PendingFragQueues() int { return m.reasm.Pending() }

// Both ISP-era comparators are censor models the cross-censor battery can
// drive alongside the TSPU and the TM/IN profiles.
var (
	_ censor.Censor = (*KeywordDPI)(nil)
	_ censor.Censor = (*FragLimitMiddlebox)(nil)
)

// Handle implements netem.Middlebox.
func (m *FragLimitMiddlebox) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if !pkt.IsFragment() {
		return netem.Pass
	}
	whole, poisoned := m.reasm.Add(pkt, pipe.After)
	if poisoned {
		m.Discarded++
	}
	if whole != nil {
		pipe.Inject(whole, dir)
	}
	return netem.Drop
}
