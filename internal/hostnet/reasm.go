package hostnet

import (
	"time"

	"tspusim/internal/packet"
)

// ReassemblyProfile models the host IP stack's fragment reassembly limits.
// The queue limit is the discriminator the paper's remote fingerprint relies
// on: Linux defaults to 64 fragments, Cisco boxes to 24, Juniper to 250,
// while the TSPU caps at 45 (§7.2).
type ReassemblyProfile struct {
	// MaxFragments caps the fragments buffered per packet; exceeding it
	// discards the queue.
	MaxFragments int
	// Timeout discards incomplete queues (Linux: 30s).
	Timeout time.Duration
}

// Linux-like default reassembly profile.
func DefaultReassembly() ReassemblyProfile {
	return ReassemblyProfile{MaxFragments: 64, Timeout: 30 * time.Second}
}

type reasmQueue struct {
	frags    []*packet.Packet
	poisoned bool
}

// SetReassembly overrides the stack's fragment reassembly profile.
func (st *Stack) SetReassembly(p ReassemblyProfile) { st.reasm = p }

// handleFragment buffers fragments and, when a packet completes, delivers
// the reassembled packet through the normal demultiplexer.
func (st *Stack) handleFragment(pkt *packet.Packet) {
	key := packet.FragKeyOf(pkt)
	q, ok := st.reasmQueues[key]
	if !ok {
		q = &reasmQueue{}
		if st.reasmQueues == nil {
			st.reasmQueues = make(map[packet.FragKey]*reasmQueue)
		}
		st.reasmQueues[key] = q
		st.net.Sim.After(st.reasm.Timeout, func() {
			if cur, live := st.reasmQueues[key]; live && cur == q {
				delete(st.reasmQueues, key)
			}
		})
	}
	if q.poisoned {
		return
	}
	if len(q.frags)+1 > st.reasm.MaxFragments {
		q.poisoned = true
		q.frags = nil
		return
	}
	q.frags = append(q.frags, pkt.Clone())
	whole, err := packet.Reassemble(q.frags)
	if err != nil {
		return // incomplete (or inconsistent): keep waiting for more
	}
	delete(st.reasmQueues, key)
	st.dispatch(whole)
}
