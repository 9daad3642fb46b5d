//go:build pooldebug

package netem

import (
	"bytes"
	"net/netip"
	"testing"

	"tspusim/internal/packet"
)

// keepMB is a middlebox that breaks the retention contract: it keeps the
// last packet it handled and an alias of its payload, then returns verdict.
type keepMB struct {
	verdict Action
	pkt     *packet.Packet
	payload []byte
}

func (*keepMB) Name() string { return "keep" }

func (k *keepMB) Handle(_ Pipe, pkt *packet.Packet, _ Direction) Action {
	k.pkt, k.payload = pkt, pkt.TCP.Payload
	return k.verdict
}

func (k *keepMB) checkScribbled(t *testing.T, pkt *packet.Packet, src netip.Addr) {
	t.Helper()
	if k.pkt != pkt || k.pkt.IP.Src == src || k.pkt.TCP.DstPort == 2 {
		t.Fatalf("kept packet %v was not scribbled", k.pkt)
	}
	if !bytes.Equal(k.payload, bytes.Repeat([]byte{0xDD}, 5)) {
		t.Fatalf("kept payload alias reads %x, want scribbled bytes", k.payload)
	}
}

// TestRetentionCheckScribblesOriginal: the next hop gets an intact copy,
// and whoever kept the original past its hop reads scribbled bytes.
func TestRetentionCheckScribblesOriginal(t *testing.T) {
	s, n, client, _, _, server := lineTopology(t)
	keep := &keepMB{verdict: Pass}
	n.Links()[0].Attach(keep)
	pkt := packet.NewTCP(client.Addr(), server.Addr(), 1, 2, packet.FlagsPSHACK, 0, 0, []byte("hello"))
	var got string
	server.SetHandler(func(p *packet.Packet) {
		if p != pkt && p.IP.TTL == 62 {
			got = string(p.TCP.Payload)
		}
	})
	client.SendOwned(pkt)
	s.Run()
	if got != "hello" {
		t.Fatalf("server got %q, want an intact copy of \"hello\" two router hops on", got)
	}
	keep.checkScribbled(t, pkt, client.Addr())
}

// TestRetentionCheckScribblesDelivered: an endpoint may not keep the packet
// it was handed past its handler's return, so one that does reads
// scribbled bytes.
func TestRetentionCheckScribblesDelivered(t *testing.T) {
	s, _, client, _, _, server := lineTopology(t)
	keep := &keepMB{}
	server.SetHandler(func(p *packet.Packet) { keep.Handle(nil, p, AtoB) })
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 1, 2, packet.FlagsPSHACK, 0, 0, []byte("hello")))
	s.Run()
	keep.checkScribbled(t, keep.pkt, client.Addr())
}

// TestRetentionCheckPanicsOnDoubleRelease: a handler that sends the packet
// it was handed on with SendOwned keeps it past its return; the network
// releases it twice, and the second release panics.
func TestRetentionCheckPanicsOnDoubleRelease(t *testing.T) {
	s, _, client, _, _, server := lineTopology(t)
	server.SetHandler(func(p *packet.Packet) {
		p.IP.Src, p.IP.Dst = p.IP.Dst, p.IP.Src
		server.SendOwned(p)
	})
	client.Send(packet.NewTCP(client.Addr(), server.Addr(), 1, 2, packet.FlagSYN, 0, 0, nil))
	defer func() {
		if r := recover(); r != "netem: packet released twice" {
			t.Fatalf("recovered %v, want the double-release panic", r)
		}
	}()
	s.Run()
}

// TestRetentionCheckScribblesDropped: a packet a link's chain drops is dead,
// so a middlebox that kept it reads scribbled bytes too.
func TestRetentionCheckScribblesDropped(t *testing.T) {
	s, n, client, _, _, _ := lineTopology(t)
	keep := &keepMB{verdict: Drop}
	n.Links()[0].Attach(keep)
	pkt := packet.NewTCP(client.Addr(), packet.MustAddr("203.0.113.10"), 1, 2, packet.FlagsPSHACK, 0, 0, []byte("hello"))
	client.SendOwned(pkt)
	s.Run()
	keep.checkScribbled(t, pkt, client.Addr())
}
