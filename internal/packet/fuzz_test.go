package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"
)

// FuzzParse drives the wire parser with arbitrary bytes. The invariant is a
// full round trip: anything that parses must re-marshal and re-parse to the
// same header fields. A scratch packet that has already held every protocol
// (and so has spare headers and buffers) must parse it to the same bytes as
// a fresh one. Run with: go test -fuzz=FuzzParse
func FuzzParse(f *testing.F) {
	seed1, _ := NewTCP(MustAddr("10.0.0.2"), MustAddr("203.0.113.10"), 1, 443, FlagsPSHACK, 5, 6, []byte("hi")).Marshal()
	seed2, _ := NewUDP(MustAddr("10.0.0.2"), MustAddr("203.0.113.10"), 53, 53, []byte("q")).Marshal()
	seed3, _ := NewICMPEcho(MustAddr("10.0.0.2"), MustAddr("203.0.113.10"), 1, 1).Marshal()
	frags, _ := FragmentCount(NewTCP(MustAddr("10.0.0.2"), MustAddr("203.0.113.10"), 1, 7547, FlagSYN, 1, 0, nil), 3)
	seed4, _ := frags[1].Marshal()
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed4)
	f.Add([]byte{0x45})
	warm := [][]byte{seed1, seed2, seed3, seed4}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		wire, err := p.Marshal()
		if err != nil {
			t.Fatalf("parsed packet failed to marshal: %v", err)
		}
		q, err := Parse(wire)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if q.IP != p.IP {
			t.Fatalf("IP header drifted: %+v vs %+v", q.IP, p.IP)
		}
		scratch := new(Packet)
		for _, w := range warm {
			if err := ParseInto(scratch, w); err != nil {
				t.Fatal(err)
			}
		}
		if err := ParseInto(scratch, data); err != nil {
			t.Fatalf("reused packet failed to parse what a fresh one parsed: %v", err)
		}
		if reused, err := scratch.Marshal(); err != nil || !bytes.Equal(reused, wire) {
			t.Fatalf("reused packet marshals to %x (err %v), fresh to %x", reused, err, wire)
		}
	})
}

// checksumRef is the RFC 1071 reference the word-wise checksum must match:
// 16-bit big-endian words summed into 32 bits, folded at the end.
func checksumRef(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoChecksumRef is checksumRef over the IPv4 pseudo-header and seg.
func pseudoChecksumRef(src, dst netip.Addr, proto Protocol, seg []byte) uint16 {
	var sum uint32
	s, d := src.As4(), dst.As4()
	sum += uint32(binary.BigEndian.Uint16(s[0:2])) + uint32(binary.BigEndian.Uint16(s[2:4]))
	sum += uint32(binary.BigEndian.Uint16(d[0:2])) + uint32(binary.BigEndian.Uint16(d[2:4]))
	sum += uint32(proto)
	sum += uint32(len(seg))
	for i := 0; i+1 < len(seg); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(seg[i : i+2]))
	}
	if len(seg)%2 == 1 {
		sum += uint32(seg[len(seg)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// FuzzChecksum pins checksum and pseudoChecksum, which sum 32-bit words, to
// the 16-bit reference on arbitrary bytes, addresses and protocols. Inputs
// are cut to 65,535 bytes, the longest an IPv4 datagram can carry. Run with:
// go test -fuzz=FuzzChecksum
func FuzzChecksum(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, 65535)
	f.Add([]byte{}, uint32(0), uint32(0), uint8(ProtoTCP))
	f.Add([]byte{0x80}, uint32(0x0a000002), uint32(0xcb00710a), uint8(ProtoUDP))
	f.Add([]byte{1, 2, 3}, uint32(0xffffffff), uint32(0xffffffff), uint8(0xff))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff}, uint32(1), uint32(2), uint8(ProtoICMP))
	f.Add(ones, uint32(0xffffffff), uint32(0xffffffff), uint8(ProtoTCP))
	f.Add(ones[:65534], uint32(0xffff0000), uint32(0x0000ffff), uint8(ProtoUDP))

	f.Fuzz(func(t *testing.T, data []byte, src, dst uint32, proto uint8) {
		if len(data) > 65535 {
			data = data[:65535]
		}
		if got, want := checksum(data), checksumRef(data); got != want {
			t.Fatalf("checksum over %d bytes = %#04x, reference %#04x", len(data), got, want)
		}
		var s, d [4]byte
		binary.BigEndian.PutUint32(s[:], src)
		binary.BigEndian.PutUint32(d[:], dst)
		sa, da := netip.AddrFrom4(s), netip.AddrFrom4(d)
		if got, want := pseudoChecksum(sa, da, Protocol(proto), data), pseudoChecksumRef(sa, da, Protocol(proto), data); got != want {
			t.Fatalf("pseudoChecksum(%v, %v, %d) over %d bytes = %#04x, reference %#04x", sa, da, proto, len(data), got, want)
		}
	})
}

// FuzzReassembler feeds a packet's fragments to a Reassembler in a permuted
// order and holds the result to one-shot Reassemble: the queue completes on
// its last fragment with the same bytes, unless limit (0 for none) is below
// the fragment count, in which case fragment limit+1 poisons the queue and
// nothing completes. Run with: go test -fuzz=FuzzReassembler
func FuzzReassembler(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: rferl.org\r\n\r\n"), uint8(3), uint8(0), []byte{2, 0, 1})
	f.Add([]byte{}, uint8(45), uint8(45), []byte{7, 3, 9})
	f.Add([]byte("x"), uint8(46), uint8(45), []byte{})
	f.Fuzz(func(t *testing.T, payload []byte, n, limit uint8, perm []byte) {
		count := 2 + int(n)%63
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		p := NewTCP(MustAddr("10.0.0.2"), MustAddr("203.0.113.10"), 40000, 443, FlagsPSHACK, 1, 2, payload)
		frags, err := FragmentCount(p, count)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reassemble(frags)
		if err != nil {
			t.Fatalf("one-shot Reassemble: %v", err)
		}
		wantWire, _ := want.Marshal()
		for i := len(frags) - 1; i > 0; i-- { // Fisher-Yates driven by perm
			var b byte
			if len(perm) > 0 {
				b, perm = perm[0], perm[1:]
			}
			j := int(b) % (i + 1)
			frags[i], frags[j] = frags[j], frags[i]
		}
		poisonAt := -1
		if limit > 0 && int(limit) < count {
			poisonAt = int(limit)
		}
		r := Reassembler{Limit: int(limit)}
		for i, fr := range frags {
			whole, poisoned := r.Add(fr, func(time.Duration, func()) {})
			if poisoned != (i == poisonAt) {
				t.Fatalf("fragment %d of %d (limit %d): poisoned = %v", i+1, count, limit, poisoned)
			}
			if whole == nil {
				continue
			}
			if i != count-1 || poisonAt >= 0 {
				t.Fatalf("queue completed at fragment %d of %d (limit %d)", i+1, count, limit)
			}
			if got, _ := whole.Marshal(); !bytes.Equal(got, wantWire) {
				t.Fatal("reassembled packet differs from one-shot Reassemble")
			}
			if r.Pending() != 0 {
				t.Fatal("completed queue left pending")
			}
			return
		}
		if poisonAt < 0 {
			t.Fatalf("all %d fragments added, queue never completed", count)
		}
	})
}
