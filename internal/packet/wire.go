package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
)

// Errors returned by Parse.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: not IPv4")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadHeader   = errors.New("packet: malformed header")
)

// Detailed failures, predeclared so the zero-alloc marshal/parse paths stay
// allocation-free even on malformed input: an adversarial flood of bad
// packets must not perturb the simulator's timing any more than good ones
// would. Each wraps its base sentinel so errors.Is keeps working; the
// offending value (length, offset) is omitted from the message — callers
// that need it still hold the packet.
var (
	errTotalTooLong    = errors.New("packet: total length exceeds 65535")
	errFragNotAligned  = errors.New("packet: fragment offset not multiple of 8")
	errFragTooLarge    = errors.New("packet: fragment offset too large")
	errTCPOptionsAlign = errors.New("packet: TCP options length not multiple of 4")
	errTCPOptionsLong  = errors.New("packet: TCP options too long")
	errUDPPayloadLong  = errors.New("packet: UDP payload too long")
	errIPChecksum      = fmt.Errorf("%w: IP header", ErrBadChecksum)
	errIPTotalLen      = fmt.Errorf("%w: total length", ErrBadHeader)
	errTCPTruncated    = fmt.Errorf("%w: TCP header", ErrTruncated)
	errTCPDataOff      = fmt.Errorf("%w: TCP data offset", ErrBadHeader)
	errTCPChecksum     = fmt.Errorf("%w: TCP", ErrBadChecksum)
	errUDPTruncated    = fmt.Errorf("%w: UDP header", ErrTruncated)
	errUDPLength       = fmt.Errorf("%w: UDP length", ErrBadHeader)
	errUDPChecksum     = fmt.Errorf("%w: UDP", ErrBadChecksum)
	errICMPTruncated   = fmt.Errorf("%w: ICMP header", ErrTruncated)
	errICMPChecksum    = fmt.Errorf("%w: ICMP", ErrBadChecksum)
)

// Marshal serializes the packet to wire bytes with valid IP and transport
// checksums. Non-first fragments marshal their RawPayload verbatim.
func (p *Packet) Marshal() ([]byte, error) {
	return p.MarshalAppend(nil)
}

// MarshalAppend appends the packet's wire bytes to dst and returns the
// extended slice. It is the allocation-free serialization path: a caller
// that recycles dst (b = b[:0]) pays nothing once the buffer has grown to
// the working packet size. All header bytes are written explicitly, so dst's
// stale contents never leak into the output.
func (p *Packet) MarshalAppend(dst []byte) ([]byte, error) {
	plen, err := p.wirePayloadLen()
	if err != nil {
		return nil, err
	}
	total := 20 + plen
	if total > 65535 {
		return nil, errTotalTooLong
	}
	frag := p.IP.FragOffset / 8
	if p.IP.FragOffset%8 != 0 {
		return nil, errFragNotAligned
	}
	if frag > 0x1fff {
		return nil, errFragTooLarge
	}

	base := len(dst)
	dst = slices.Grow(dst, total)[:base+total]
	b := dst[base:]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = p.IP.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(total))
	binary.BigEndian.PutUint16(b[4:6], p.IP.ID)
	flagsFrag := frag
	if p.IP.DF {
		flagsFrag |= 0x4000
	}
	if p.IP.MF {
		flagsFrag |= 0x2000
	}
	binary.BigEndian.PutUint16(b[6:8], flagsFrag)
	b[8] = p.IP.TTL
	b[9] = uint8(p.IP.Protocol)
	src := p.IP.Src.As4()
	dstAddr := p.IP.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dstAddr[:])
	binary.BigEndian.PutUint16(b[10:12], 0)
	binary.BigEndian.PutUint16(b[10:12], checksum(b[:20]))
	p.marshalTransportInto(b[20:])
	return dst, nil
}

// wirePayloadLen returns the transport-payload length Marshal will emit,
// validating the transport-level invariants up front so marshalTransportInto
// can write without error paths.
func (p *Packet) wirePayloadLen() (int, error) {
	if p.IP.FragOffset != 0 {
		// Non-first fragment: opaque payload bytes.
		return len(p.RawPayload), nil
	}
	switch {
	case p.TCP != nil:
		t := p.TCP
		if len(t.Options)%4 != 0 {
			return 0, errTCPOptionsAlign
		}
		if len(t.Options) > 40 {
			return 0, errTCPOptionsLong
		}
		return 20 + len(t.Options) + len(t.Payload), nil
	case p.UDP != nil:
		if 8+len(p.UDP.Payload) > 65535 {
			return 0, errUDPPayloadLong
		}
		return 8 + len(p.UDP.Payload), nil
	case p.ICMP != nil:
		return 8 + len(p.ICMP.Payload), nil
	default:
		return len(p.RawPayload), nil
	}
}

// marshalTransport returns the transport segment bytes (header, options,
// payload, valid checksum) without the IP header — the unit the fragmenter
// slices into 8-byte-aligned pieces.
func (p *Packet) marshalTransport() ([]byte, error) {
	plen, err := p.wirePayloadLen()
	if err != nil {
		return nil, err
	}
	b := make([]byte, plen)
	p.marshalTransportInto(b)
	return b, nil
}

// marshalTransportInto writes the transport bytes into b, which has exactly
// the length wirePayloadLen reported. Validation already happened there.
func (p *Packet) marshalTransportInto(b []byte) {
	if p.IP.FragOffset != 0 {
		copy(b, p.RawPayload)
		return
	}
	switch {
	case p.TCP != nil:
		p.marshalTCPInto(b)
	case p.UDP != nil:
		p.marshalUDPInto(b)
	case p.ICMP != nil:
		p.marshalICMPInto(b)
	default:
		copy(b, p.RawPayload)
	}
}

func (p *Packet) marshalTCPInto(b []byte) {
	t := p.TCP
	hlen := 20 + len(t.Options)
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = uint8(hlen/4) << 4
	b[13] = uint8(t.Flags)
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	binary.BigEndian.PutUint16(b[16:18], 0)
	binary.BigEndian.PutUint16(b[18:20], t.Urgent)
	copy(b[20:], t.Options)
	copy(b[hlen:], t.Payload)
	cs := pseudoChecksum(p.IP.Src, p.IP.Dst, ProtoTCP, b)
	binary.BigEndian.PutUint16(b[16:18], cs)
}

func (p *Packet) marshalUDPInto(b []byte) {
	u := p.UDP
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(b)))
	binary.BigEndian.PutUint16(b[6:8], 0)
	copy(b[8:], u.Payload)
	cs := pseudoChecksum(p.IP.Src, p.IP.Dst, ProtoUDP, b)
	if cs == 0 {
		cs = 0xffff // RFC 768: zero checksum means "none"; transmit as all-ones
	}
	binary.BigEndian.PutUint16(b[6:8], cs)
}

func (p *Packet) marshalICMPInto(b []byte) {
	ic := p.ICMP
	b[0] = uint8(ic.Type)
	b[1] = ic.Code
	binary.BigEndian.PutUint16(b[2:4], 0)
	binary.BigEndian.PutUint16(b[4:6], ic.ID)
	binary.BigEndian.PutUint16(b[6:8], ic.Seq)
	copy(b[8:], ic.Payload)
	binary.BigEndian.PutUint16(b[2:4], checksum(b))
}

// Parse decodes wire bytes into a Packet, verifying the IP header checksum
// and, for zero-offset packets, the transport checksum.
func Parse(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := ParseInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto decodes wire bytes into p, reusing p's transport structs, spare
// or in use, and the capacity of its payload slices: parsing a stream of
// packets through one scratch Packet, of any mix of protocols, is
// allocation-free once its buffers have grown. On error p is left in an
// unspecified state.
func ParseInto(p *Packet, b []byte) error {
	if len(b) < 20 {
		return ErrTruncated
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < 20 || len(b) < ihl {
		return ErrBadHeader
	}
	if checksum(b[:ihl]) != 0 {
		return errIPChecksum
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < ihl || total > len(b) {
		return errIPTotalLen
	}
	flagsFrag := binary.BigEndian.Uint16(b[6:8])
	p.IP = IPv4{
		TOS:        b[1],
		ID:         binary.BigEndian.Uint16(b[4:6]),
		DF:         flagsFrag&0x4000 != 0,
		MF:         flagsFrag&0x2000 != 0,
		FragOffset: (flagsFrag & 0x1fff) * 8,
		TTL:        b[8],
		Protocol:   Protocol(b[9]),
		Src:        netip.AddrFrom4([4]byte(b[12:16])),
		Dst:        netip.AddrFrom4([4]byte(b[16:20])),
	}
	payload := b[ihl:total]
	if p.IP.FragOffset != 0 {
		p.parseRaw(payload)
		return nil
	}
	switch p.IP.Protocol {
	case ProtoTCP:
		p.only(ProtoTCP)
		return p.parseTCP(payload)
	case ProtoUDP:
		p.only(ProtoUDP)
		return p.parseUDP(payload)
	case ProtoICMP:
		p.only(ProtoICMP)
		return p.parseICMP(payload)
	default:
		p.parseRaw(payload)
	}
	return nil
}

// parseRaw makes payload p's opaque raw payload, in the larger of the raw
// and spare buffers.
func (p *Packet) parseRaw(payload []byte) {
	p.only(0)
	buf := p.spare.buf
	p.spare.buf = nil
	p.RawPayload = append(buf, payload...)
}

func (p *Packet) parseTCP(b []byte) error {
	if len(b) < 20 {
		p.parkTCP()
		return errTCPTruncated
	}
	doff := int(b[12]>>4) * 4
	if doff < 20 || doff > len(b) {
		p.parkTCP()
		return errTCPDataOff
	}
	// Only verify the transport checksum on unfragmented packets: a
	// first-fragment's TCP checksum covers bytes not present here.
	if !p.IP.MF && pseudoChecksum(p.IP.Src, p.IP.Dst, ProtoTCP, b) != 0 {
		p.parkTCP()
		return errTCPChecksum
	}
	t := p.takeTCP()
	opts, pay := t.Options[:0], t.Payload[:0]
	*t = TCP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   TCPFlags(b[13]),
		Window:  binary.BigEndian.Uint16(b[14:16]),
		Urgent:  binary.BigEndian.Uint16(b[18:20]),
		Options: append(opts, b[20:doff]...),
		Payload: append(pay, b[doff:]...),
	}
	return nil
}

func (p *Packet) parseUDP(b []byte) error {
	if len(b) < 8 {
		p.parkUDP()
		return errUDPTruncated
	}
	ulen := int(binary.BigEndian.Uint16(b[4:6]))
	if ulen < 8 || ulen > len(b) {
		p.parkUDP()
		return errUDPLength
	}
	if cs := binary.BigEndian.Uint16(b[6:8]); cs != 0 && !p.IP.MF {
		if pseudoChecksum(p.IP.Src, p.IP.Dst, ProtoUDP, b[:ulen]) != 0 {
			p.parkUDP()
			return errUDPChecksum
		}
	}
	u := p.takeUDP()
	pay := u.Payload[:0]
	*u = UDP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Payload: append(pay, b[8:ulen]...),
	}
	return nil
}

func (p *Packet) parseICMP(b []byte) error {
	if len(b) < 8 {
		p.parkICMP()
		return errICMPTruncated
	}
	if checksum(b) != 0 {
		p.parkICMP()
		return errICMPChecksum
	}
	ic := p.takeICMP()
	pay := ic.Payload[:0]
	*ic = ICMP{
		Type:    ICMPType(b[0]),
		Code:    b[1],
		ID:      binary.BigEndian.Uint16(b[4:6]),
		Seq:     binary.BigEndian.Uint16(b[6:8]),
		Payload: append(pay, b[8:]...),
	}
	return nil
}

// checksum computes the Internet checksum (RFC 1071) of b. Computing it over
// data that already includes a valid checksum field yields zero.
func checksum(b []byte) uint16 {
	return foldChecksum(sumWords(0, b))
}

// pseudoChecksum computes the TCP/UDP checksum including the IPv4
// pseudo-header.
func pseudoChecksum(src, dst netip.Addr, proto Protocol, seg []byte) uint16 {
	s, d := src.As4(), dst.As4()
	sum := uint64(binary.BigEndian.Uint32(s[:])) + uint64(binary.BigEndian.Uint32(d[:]))
	sum += uint64(proto) + uint64(len(seg))
	return foldChecksum(sumWords(sum, seg))
}

// sumWords adds b to sum as big-endian 32-bit words, then a trailing 16-bit
// word and an odd last byte as the high half of a 16-bit word. The one's-
// complement sum does not depend on the word size (RFC 1071 §2), and a
// uint64 cannot overflow on any slice shorter than 2^33 bytes.
func sumWords(sum uint64, b []byte) uint64 {
	for ; len(b) >= 4; b = b[4:] {
		sum += uint64(binary.BigEndian.Uint32(b))
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// foldChecksum folds a word sum to 16 bits with end-around carries and
// complements it.
func foldChecksum(sum uint64) uint16 {
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
