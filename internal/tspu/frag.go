package tspu

import (
	"sort"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
)

// fragEngine implements the TSPU's IP fragmentation handling (§5.3.1):
//
//   - Fragments are buffered, keyed by (src, dst, IPID), and forwarded
//     individually — never reassembled — once the final fragment has arrived
//     and coverage is contiguous.
//   - When forwarded, every fragment's TTL is rewritten to the TTL the
//     zero-offset fragment had when it reached the device (Fig. 3). This is
//     the behavior the remote localization technique exploits.
//   - A duplicate or overlapping fragment discards the whole queue.
//   - More than FragLimit (45) fragments discards the whole queue; this
//     unusual limit is the fingerprint of §7.2 (Linux uses 64, Cisco 24,
//     Juniper 250).
//   - Queues missing fragments after the timeout (~5 s) are discarded.
type fragEngine struct {
	limit   int
	timeout time.Duration
	// queues is made on the first fragment; most devices never see one.
	queues map[packet.FragKey]*fragQueue
	// discards counts queues dropped for any reason.
	discards int
	// forwarded counts complete queues released.
	forwarded int
}

type fragQueue struct {
	frags    []*packet.Packet
	pipe     netem.Pipe
	dir      netem.Direction
	firstTTL uint8
	haveTTL  bool
	total    int // transport bytes expected, -1 until final fragment seen
	// poisoned queues swallow all further fragments of the key until the
	// timeout clears the state.
	poisoned bool
}

func newFragEngine(limit int, timeout time.Duration) *fragEngine {
	if limit <= 0 {
		limit = 45
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &fragEngine{limit: limit, timeout: timeout}
}

// handle consumes one fragment. It always returns Drop: surviving fragments
// are re-emitted through the pipe when their queue completes. Reassembly
// buffers copies of the fragments by design: fragments are the evasion case,
// not the fast path.
func (fe *fragEngine) handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	key := packet.FragKeyOf(pkt)
	q, ok := fe.queues[key]
	if !ok {
		q = &fragQueue{pipe: pipe, dir: dir, total: -1}
		if fe.queues == nil {
			fe.queues = make(map[packet.FragKey]*fragQueue)
		}
		fe.queues[key] = q
		// The timeout closure checks queue identity, so a released or
		// replaced queue makes it a no-op; no cancellation handle needed.
		timeoutKey := key
		pipe.After(fe.timeout, func() {
			if cur, live := fe.queues[timeoutKey]; live && cur == q {
				delete(fe.queues, timeoutKey)
				fe.discards++
			}
		})
	}
	if q.poisoned {
		return netem.Drop
	}

	off := int(pkt.IP.FragOffset)
	n := len(pkt.RawPayload)
	if pkt.IP.FragOffset == 0 && pkt.RawPayload == nil {
		n = pkt.PayloadLen()
	}
	// Duplicate or overlap check against every buffered fragment.
	for _, f := range q.frags {
		fo, fn := int(f.IP.FragOffset), fragLen(f)
		if off < fo+fn && fo < off+n {
			q.poison()
			fe.discards++
			return netem.Drop
		}
	}
	if len(q.frags)+1 > fe.limit {
		q.poison()
		fe.discards++
		return netem.Drop
	}

	q.frags = append(q.frags, pkt.Clone())
	if off == 0 {
		q.firstTTL = pkt.IP.TTL
		q.haveTTL = true
	}
	if !pkt.IP.MF {
		q.total = off + n
	}
	if q.complete() {
		fe.release(key, q)
	}
	return netem.Drop
}

func fragLen(f *packet.Packet) int {
	if f.RawPayload != nil {
		return len(f.RawPayload)
	}
	return f.PayloadLen()
}

func (q *fragQueue) poison() {
	q.poisoned = true
	q.frags = nil
}

// complete reports whether the final fragment arrived and coverage is
// contiguous from offset zero.
func (q *fragQueue) complete() bool {
	if q.total < 0 || !q.haveTTL {
		return false
	}
	covered := 0
	sort.Slice(q.frags, func(i, j int) bool { return q.frags[i].IP.FragOffset < q.frags[j].IP.FragOffset })
	for _, f := range q.frags {
		if int(f.IP.FragOffset) != covered {
			return false
		}
		covered += fragLen(f)
	}
	return covered == q.total
}

// release forwards all fragments individually, TTLs rewritten to the first
// fragment's, in offset order.
func (fe *fragEngine) release(key packet.FragKey, q *fragQueue) {
	delete(fe.queues, key)
	fe.forwarded++
	for _, f := range q.frags {
		f.IP.TTL = q.firstTTL
		q.pipe.Inject(f, q.dir)
	}
}

// pending reports the number of open queues.
func (fe *fragEngine) pending() int { return len(fe.queues) }
