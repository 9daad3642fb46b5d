// Package packet models IPv4 packets with TCP, UDP, and ICMP transports at
// the wire level: structures serialize to and parse from real header bytes
// (including checksums), fragment and reassemble per RFC 791, and expose flow
// keys for connection tracking. The layering follows the gopacket model —
// each layer owns its header fields and treats the next layer as payload —
// but is specialized to the four protocols the TSPU interacts with.
package packet

import (
	"fmt"
	"net/netip"
	"strings"
)

// Protocol is the IPv4 protocol number of the transport layer.
type Protocol uint8

// Protocol numbers per the IANA registry.
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCPFlags is the 8-bit TCP flag field.
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// Common flag combinations used throughout the measurement code.
const (
	FlagsSYN    = FlagSYN
	FlagsSYNACK = FlagSYN | FlagACK
	FlagsRSTACK = FlagRST | FlagACK
	FlagsPSHACK = FlagPSH | FlagACK
	FlagsFINACK = FlagFIN | FlagACK
)

// Has reports whether all bits in want are set.
func (f TCPFlags) Has(want TCPFlags) bool { return f&want == want }

func (f TCPFlags) String() string {
	if f == 0 {
		return "NULL"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagFIN, "FIN"}, {FlagURG, "URG"},
		{FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	var parts []string
	for _, n := range names {
		if f&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "/")
}

// IPv4 is an IPv4 header. Fragmentation state lives in ID, MF, and FragOffset
// (the byte offset, always a multiple of 8 on the wire).
type IPv4 struct {
	TOS        uint8
	ID         uint16
	DF         bool // don't-fragment
	MF         bool // more-fragments
	FragOffset uint16
	TTL        uint8
	Protocol   Protocol
	Src, Dst   netip.Addr
}

// TCP is a TCP header plus payload. Options carries raw option bytes and must
// be a multiple of 4 bytes long when serialized.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
	Urgent           uint16
	Options          []byte
	Payload          []byte
}

// UDP is a UDP header plus payload.
type UDP struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// ICMPType is the ICMP message type.
type ICMPType uint8

// ICMP types used by the simulator.
const (
	ICMPEchoReply   ICMPType = 0
	ICMPUnreachable ICMPType = 3
	ICMPEchoRequest ICMPType = 8
	ICMPTimeExceed  ICMPType = 11
)

// ICMP is an ICMP message. For TimeExceeded/Unreachable, Payload carries the
// embedded original IP header + 8 bytes, as routers put on the wire.
type ICMP struct {
	Type    ICMPType
	Code    uint8
	ID, Seq uint16 // echo request/reply only
	Payload []byte
}

// Packet is a full IPv4 packet: exactly one of TCP, UDP, ICMP is non-nil, or
// all are nil and RawPayload holds opaque bytes (used for non-first fragments,
// whose transport header lives in the zero-offset fragment).
//
// A Packet must not be copied by value (go vet's copylocks check enforces
// it): the copy would share the original's spare headers, and both would
// write into them.
type Packet struct {
	_          noCopy
	IP         IPv4
	TCP        *TCP
	UDP        *UDP
	ICMP       *ICMP
	RawPayload []byte
	// spare keeps what the packet holds but does not use, for reuse.
	spare spares
}

// noCopy makes go vet report a by-value copy of the struct holding it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// spares are the transport headers and the payload buffer a packet holds
// but does not use. A header moves here when the packet changes protocol
// and comes back when the protocol returns, and a buffer an empty payload
// does not need waits here, so a packet reused through ParseInto,
// CloneInto, Reset and the Set methods stops allocating once it has carried
// each protocol and payload size.
type spares struct {
	tcp  *TCP
	udp  *UDP
	icmp *ICMP
	buf  []byte
}

// takeTCP returns p's TCP header, installing the spare or a new one if p
// has none.
func (p *Packet) takeTCP() *TCP {
	if p.TCP == nil {
		p.TCP, p.spare.tcp = p.spare.tcp, nil
		if p.TCP == nil {
			p.TCP = new(TCP)
		}
	}
	return p.TCP
}

func (p *Packet) takeUDP() *UDP {
	if p.UDP == nil {
		p.UDP, p.spare.udp = p.spare.udp, nil
		if p.UDP == nil {
			p.UDP = new(UDP)
		}
	}
	return p.UDP
}

func (p *Packet) takeICMP() *ICMP {
	if p.ICMP == nil {
		p.ICMP, p.spare.icmp = p.spare.icmp, nil
		if p.ICMP == nil {
			p.ICMP = new(ICMP)
		}
	}
	return p.ICMP
}

// only makes proto's header, if p has one, p's only transport: the other
// headers, and the raw payload's buffer, become spares. only(0) parks all.
func (p *Packet) only(proto Protocol) {
	if proto != ProtoTCP {
		p.parkTCP()
	}
	if proto != ProtoUDP {
		p.parkUDP()
	}
	if proto != ProtoICMP {
		p.parkICMP()
	}
	p.parkRaw()
}

// parkTCP, parkUDP and parkICMP remove a transport header, keeping it as
// the spare; parkRaw does the same for the raw payload's buffer.
func (p *Packet) parkTCP() {
	if p.TCP != nil {
		p.spare.tcp, p.TCP = p.TCP, nil
	}
}

func (p *Packet) parkUDP() {
	if p.UDP != nil {
		p.spare.udp, p.UDP = p.UDP, nil
	}
}

func (p *Packet) parkICMP() {
	if p.ICMP != nil {
		p.spare.icmp, p.ICMP = p.ICMP, nil
	}
}

func (p *Packet) parkRaw() {
	p.keep(p.RawPayload)
	p.RawPayload = nil
}

// keep makes b's buffer the spare if it is larger than the current one.
func (p *Packet) keep(b []byte) {
	if cap(b) > cap(p.spare.buf) {
		p.spare.buf = b[:0]
	}
}

// copyBytes returns src copied into reused memory: buf if it is large
// enough, else the spare buffer if that is, else a grown buf. An empty src
// gives nil, and buf waits as the spare.
func (p *Packet) copyBytes(buf, src []byte) []byte {
	if len(src) == 0 {
		p.keep(buf)
		return nil
	}
	if cap(buf) < len(src) && cap(p.spare.buf) > cap(buf) {
		buf, p.spare.buf = p.spare.buf, buf[:0]
	}
	return append(buf[:0], src...)
}

// Reset empties p for reuse: the IP header is zeroed, and the transport
// headers and the raw payload's buffer become spares.
func (p *Packet) Reset() {
	p.IP = IPv4{}
	p.only(0)
}

// SetTCP makes p the packet NewTCP builds, except that payload is copied
// (an empty payload leaves nil) and p's headers and buffers are reused.
func (p *Packet) SetTCP(src, dst netip.Addr, sport, dport uint16, flags TCPFlags, seq, ack uint32, payload []byte) {
	p.IP = IPv4{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst}
	p.only(ProtoTCP)
	t := p.takeTCP()
	opts, pay := t.Options, t.Payload
	*t = TCP{
		SrcPort: sport, DstPort: dport,
		Seq: seq, Ack: ack, Flags: flags, Window: 65535,
		Options: opts[:0],
		Payload: p.copyBytes(pay, payload),
	}
}

// SetUDP makes p the packet NewUDP builds, except that payload is copied
// (an empty payload leaves nil) and p's headers and buffers are reused.
func (p *Packet) SetUDP(src, dst netip.Addr, sport, dport uint16, payload []byte) {
	p.IP = IPv4{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst}
	p.only(ProtoUDP)
	u := p.takeUDP()
	*u = UDP{SrcPort: sport, DstPort: dport, Payload: p.copyBytes(u.Payload, payload)}
}

// SetICMP makes p an ICMP message with TTL 64, copying payload (an empty
// payload leaves nil) and reusing p's headers and buffers.
func (p *Packet) SetICMP(src, dst netip.Addr, typ ICMPType, id, seq uint16, payload []byte) {
	p.IP = IPv4{TTL: 64, Protocol: ProtoICMP, Src: src, Dst: dst}
	p.only(ProtoICMP)
	ic := p.takeICMP()
	*ic = ICMP{Type: typ, ID: id, Seq: seq, Payload: p.copyBytes(ic.Payload, payload)}
}

// Clone deep-copies the packet so middleboxes can mutate their copy without
// aliasing the sender's buffers.
func (p *Packet) Clone() *Packet {
	q := &Packet{}
	p.CloneInto(q)
	return q
}

// CloneInto deep-copies p into dst, reusing dst's transport headers, spare
// or in use, and the capacity of its byte slices. A caller cycling packets
// through a scratch Packet pays no allocations once the scratch buffers
// have grown to the working set's payload sizes. An empty transport
// payload is copied as nil.
func (p *Packet) CloneInto(dst *Packet) {
	dst.IP = p.IP
	if p.TCP != nil {
		t := dst.takeTCP()
		opts, pay := t.Options, t.Payload
		*t = *p.TCP
		t.Options = append(opts[:0], p.TCP.Options...)
		t.Payload = dst.copyBytes(pay, p.TCP.Payload)
	} else {
		dst.parkTCP()
	}
	if p.UDP != nil {
		u := dst.takeUDP()
		pay := u.Payload
		*u = *p.UDP
		u.Payload = dst.copyBytes(pay, p.UDP.Payload)
	} else {
		dst.parkUDP()
	}
	if p.ICMP != nil {
		ic := dst.takeICMP()
		pay := ic.Payload
		*ic = *p.ICMP
		ic.Payload = dst.copyBytes(pay, p.ICMP.Payload)
	} else {
		dst.parkICMP()
	}
	switch {
	case p.RawPayload == nil:
		// Preserve nil-ness: consumers distinguish "no raw payload" (nil)
		// from a zero-length one.
		dst.parkRaw()
	case len(p.RawPayload) == 0:
		dst.RawPayload = dst.RawPayload[:0]
	default:
		dst.RawPayload = dst.copyBytes(dst.RawPayload, p.RawPayload)
	}
}

// IsFragment reports whether the packet is part of a fragmented IP packet
// (either a non-final fragment or a fragment at non-zero offset).
func (p *Packet) IsFragment() bool {
	return p.IP.MF || p.IP.FragOffset != 0
}

// IsFirstFragment reports whether this is the zero-offset fragment of a
// fragmented packet.
func (p *Packet) IsFirstFragment() bool {
	return p.IP.MF && p.IP.FragOffset == 0
}

// PayloadLen returns the length in bytes of the IP payload.
func (p *Packet) PayloadLen() int {
	switch {
	case p.TCP != nil:
		return 20 + len(p.TCP.Options) + len(p.TCP.Payload)
	case p.UDP != nil:
		return 8 + len(p.UDP.Payload)
	case p.ICMP != nil:
		return 8 + len(p.ICMP.Payload)
	default:
		return len(p.RawPayload)
	}
}

// TotalLen returns the on-wire total length (IP header + payload).
func (p *Packet) TotalLen() int { return 20 + p.PayloadLen() }

// SrcPort returns the transport source port, or 0 for ICMP/raw packets.
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.TCP != nil:
		return p.TCP.SrcPort
	case p.UDP != nil:
		return p.UDP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port, or 0 for ICMP/raw packets.
func (p *Packet) DstPort() uint16 {
	switch {
	case p.TCP != nil:
		return p.TCP.DstPort
	case p.UDP != nil:
		return p.UDP.DstPort
	}
	return 0
}

// AppPayload returns the application-layer payload bytes, or nil.
func (p *Packet) AppPayload() []byte {
	switch {
	case p.TCP != nil:
		return p.TCP.Payload
	case p.UDP != nil:
		return p.UDP.Payload
	case p.ICMP != nil:
		return p.ICMP.Payload
	}
	return p.RawPayload
}

// String renders a one-line tcpdump-style summary, used by capture dumps.
func (p *Packet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s > %s", p.IP.Src, p.IP.Dst)
	switch {
	case p.TCP != nil:
		fmt.Fprintf(&b, " TCP %d>%d [%s] seq=%d ack=%d win=%d len=%d",
			p.TCP.SrcPort, p.TCP.DstPort, p.TCP.Flags, p.TCP.Seq, p.TCP.Ack, p.TCP.Window, len(p.TCP.Payload))
	case p.UDP != nil:
		fmt.Fprintf(&b, " UDP %d>%d len=%d", p.UDP.SrcPort, p.UDP.DstPort, len(p.UDP.Payload))
	case p.ICMP != nil:
		fmt.Fprintf(&b, " ICMP type=%d code=%d", p.ICMP.Type, p.ICMP.Code)
	default:
		fmt.Fprintf(&b, " raw len=%d", len(p.RawPayload))
	}
	if p.IsFragment() {
		fmt.Fprintf(&b, " frag id=%d off=%d mf=%v", p.IP.ID, p.IP.FragOffset, p.IP.MF)
	}
	fmt.Fprintf(&b, " ttl=%d", p.IP.TTL)
	return b.String()
}

// NewTCP builds a TCP packet with the defaults experiments use (TTL 64).
func NewTCP(src, dst netip.Addr, sport, dport uint16, flags TCPFlags, seq, ack uint32, payload []byte) *Packet {
	return &Packet{
		IP: IPv4{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst},
		TCP: &TCP{
			SrcPort: sport, DstPort: dport,
			Seq: seq, Ack: ack, Flags: flags, Window: 65535,
			Payload: payload,
		},
	}
}

// NewUDP builds a UDP packet with TTL 64.
func NewUDP(src, dst netip.Addr, sport, dport uint16, payload []byte) *Packet {
	return &Packet{
		IP:  IPv4{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst},
		UDP: &UDP{SrcPort: sport, DstPort: dport, Payload: payload},
	}
}

// NewICMPEcho builds an ICMP echo request with TTL 64.
func NewICMPEcho(src, dst netip.Addr, id, seq uint16) *Packet {
	return &Packet{
		IP:   IPv4{TTL: 64, Protocol: ProtoICMP, Src: src, Dst: dst},
		ICMP: &ICMP{Type: ICMPEchoRequest, ID: id, Seq: seq},
	}
}
