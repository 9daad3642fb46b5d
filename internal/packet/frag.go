package packet

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Fragment splits p into IP fragments whose payloads are at most mtuPayload
// bytes each (mtuPayload excludes the 20-byte IP header and must be a
// multiple of 8, as fragment offsets are expressed in 8-byte units). The
// first fragment carries the transport header; subsequent fragments carry
// raw payload bytes, exactly as on the wire. TTLs are copied from p.
func Fragment(p *Packet, mtuPayload int) ([]*Packet, error) {
	if mtuPayload < 8 || mtuPayload%8 != 0 {
		return nil, fmt.Errorf("packet: fragment payload size %d must be a positive multiple of 8", mtuPayload)
	}
	if p.IP.DF {
		return nil, errors.New("packet: DF set, cannot fragment")
	}
	whole, err := p.marshalTransport()
	if err != nil {
		return nil, err
	}
	if len(whole) <= mtuPayload {
		return []*Packet{p.Clone()}, nil
	}
	var frags []*Packet
	for off := 0; off < len(whole); off += mtuPayload {
		end := off + mtuPayload
		last := false
		if end >= len(whole) {
			end = len(whole)
			last = true
		}
		f := &Packet{IP: p.IP}
		f.IP.FragOffset = uint16(off)
		f.IP.MF = !last
		f.RawPayload = append([]byte(nil), whole[off:end]...)
		frags = append(frags, f)
	}
	return frags, nil
}

// FragmentCount splits p into exactly n fragments of near-equal size. It is
// the primitive behind the remote fragmentation probes (§7.2), which need
// "a SYN packet broken into 45 vs 46 fragments". The transport payload is
// padded so that n 8-byte-aligned fragments exist.
func FragmentCount(p *Packet, n int) ([]*Packet, error) {
	if n < 2 {
		return nil, fmt.Errorf("packet: FragmentCount needs n >= 2, got %d", n)
	}
	// Each non-final fragment must carry a multiple of 8 bytes. If the
	// transport segment is too short to split n ways, grow the application
	// payload first (the paper's probes are "SYN packets with random
	// payloads" for exactly this reason) so checksums stay valid.
	need := n * 8
	src := p
	if p.TotalLen()-20 < need {
		src = p.Clone()
		pad := make([]byte, need-(p.TotalLen()-20))
		switch {
		case src.TCP != nil:
			src.TCP.Payload = append(src.TCP.Payload, pad...)
		case src.UDP != nil:
			src.UDP.Payload = append(src.UDP.Payload, pad...)
		case src.ICMP != nil:
			src.ICMP.Payload = append(src.ICMP.Payload, pad...)
		default:
			src.RawPayload = append(src.RawPayload, pad...)
		}
	}
	whole, err := src.marshalTransport()
	if err != nil {
		return nil, err
	}
	per := (len(whole) / n / 8) * 8
	if per == 0 {
		per = 8
	}
	var frags []*Packet
	off := 0
	for i := 0; i < n; i++ {
		end := off + per
		if i == n-1 {
			end = len(whole)
		}
		f := &Packet{IP: p.IP}
		f.IP.FragOffset = uint16(off)
		f.IP.MF = i != n-1
		f.RawPayload = append([]byte(nil), whole[off:end]...)
		frags = append(frags, f)
		off = end
	}
	return frags, nil
}

// Reassemble combines fragments (any order) back into a whole packet,
// parsing the transport layer from the concatenated bytes. It returns an
// error on gaps, overlaps, or a missing final fragment. This models what a
// reassembling endpoint or DPI does — notably, the TSPU forwards without
// doing this (§5.3.1).
func Reassemble(frags []*Packet) (*Packet, error) {
	if len(frags) == 0 {
		return nil, errors.New("packet: no fragments")
	}
	sorted := append([]*Packet(nil), frags...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].IP.FragOffset < sorted[j].IP.FragOffset })
	var buf []byte
	expect := 0
	sawLast := false
	for i, f := range sorted {
		off := int(f.IP.FragOffset)
		payload := f.RawPayload
		if off == 0 && len(payload) == 0 {
			// First fragment may exist only in parsed form.
			var err error
			payload, err = f.marshalTransport()
			if err != nil {
				return nil, err
			}
		}
		if off != expect {
			if off < expect {
				return nil, fmt.Errorf("packet: overlapping fragment at offset %d", off)
			}
			return nil, fmt.Errorf("packet: gap before offset %d", off)
		}
		buf = append(buf, payload...)
		expect += len(payload)
		if !f.IP.MF {
			if i != len(sorted)-1 {
				return nil, errors.New("packet: data after final fragment")
			}
			sawLast = true
		}
	}
	if !sawLast {
		return nil, errors.New("packet: missing final fragment")
	}
	first := sorted[0]
	whole := &Packet{IP: first.IP}
	whole.IP.MF = false
	whole.IP.FragOffset = 0
	// Re-parse the transport from the reassembled bytes by round-tripping
	// through the wire format.
	tmp := &Packet{IP: whole.IP, RawPayload: buf}
	wire, err := tmp.Marshal()
	if err != nil {
		return nil, err
	}
	parsed, err := Parse(wire)
	if err != nil {
		return nil, fmt.Errorf("packet: reassembled parse: %w", err)
	}
	return parsed, nil
}

// ReassemblyTimeout is how long a Reassembler keeps an incomplete queue
// (Linux's ipfrag_time, 30 s).
const ReassemblyTimeout = 30 * time.Second

// Reassembler buffers IP fragments per FragKey and returns the whole packet
// once a queue completes: what a host stack or a reassembling middlebox
// does, and what the TSPU's fragment engine does not. The zero value is
// ready to use and has no limit.
type Reassembler struct {
	// Limit caps the fragments one queue may hold; the fragment past it
	// poisons the queue, which then swallows every later fragment until its
	// timeout. 0 means no limit.
	Limit  int
	queues map[FragKey]*reasmQueue
}

type reasmQueue struct {
	frags    []*Packet
	poisoned bool
}

// Add buffers a copy of fragment f. It returns the reassembled packet when
// f completes its queue, and poisoned true when f is the fragment that
// poisons it. A queue's first fragment schedules its timeout with after
// (the caller's Sim.After or Pipe.After); the timeout deletes the queue only
// if it is still the same queue, so a completed queue's timer never deletes
// a newer queue under the same key.
func (r *Reassembler) Add(f *Packet, after func(time.Duration, func())) (whole *Packet, poisoned bool) {
	key := FragKeyOf(f)
	q, ok := r.queues[key]
	if !ok {
		q = &reasmQueue{}
		if r.queues == nil {
			r.queues = make(map[FragKey]*reasmQueue)
		}
		r.queues[key] = q
		after(ReassemblyTimeout, func() {
			if cur, live := r.queues[key]; live && cur == q {
				delete(r.queues, key)
			}
		})
	}
	if q.poisoned {
		return nil, false
	}
	if r.Limit > 0 && len(q.frags)+1 > r.Limit {
		q.poisoned = true
		q.frags = nil
		return nil, true
	}
	q.frags = append(q.frags, f.Clone())
	whole, err := Reassemble(q.frags)
	if err != nil {
		return nil, false // incomplete (or inconsistent): keep waiting
	}
	delete(r.queues, key)
	return whole, false
}

// Pending reports how many queues are buffered, poisoned ones included.
func (r *Reassembler) Pending() int { return len(r.queues) }
