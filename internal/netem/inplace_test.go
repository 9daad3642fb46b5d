//go:build !pooldebug

package netem

import (
	"testing"

	"tspusim/internal/packet"
)

// TestSendOwnedHandsOverPacket pins the normal build's zero-copy forwarding:
// one packet instance travels the whole path. The pooldebug build hands each
// hop a copy instead (TestRetentionCheckScribblesOriginal).
func TestSendOwnedHandsOverPacket(t *testing.T) {
	s, _, client, _, _, server := lineTopology(t)
	var got *packet.Packet
	var ttl uint8
	server.SetHandler(func(p *packet.Packet) { got, ttl = p, p.IP.TTL })
	pkt := packet.NewTCP(client.Addr(), server.Addr(), 1, 2, packet.FlagSYN, 0, 0, []byte{1})
	client.SendOwned(pkt)
	s.Run()
	if got != pkt || ttl != 62 {
		t.Fatal("SendOwned did not carry the sender's packet itself through both routers")
	}
}

// TestDeliveredPacketRecycled: a packet's life ends when the handler it was
// delivered to returns, and the next origination reuses it.
func TestDeliveredPacketRecycled(t *testing.T) {
	s, n, client, _, _, server := lineTopology(t)
	server.SetHandler(func(*packet.Packet) {})
	pkt := n.NewPacket()
	pkt.SetTCP(client.Addr(), server.Addr(), 1, 2, packet.FlagsPSHACK, 0, 0, []byte("hello"))
	client.SendOwned(pkt)
	s.Run()
	next := n.NewPacket()
	if next != pkt {
		t.Fatal("the delivered packet did not go back to the free list")
	}
	if next.TCP != nil || next.IP.TTL != 0 {
		t.Fatalf("a recycled packet comes back as %v, want it reset", next)
	}
}
