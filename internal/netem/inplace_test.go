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
	server.SetHandler(func(p *packet.Packet) { got = p })
	pkt := packet.NewTCP(client.Addr(), server.Addr(), 1, 2, packet.FlagSYN, 0, 0, []byte{1})
	client.SendOwned(pkt)
	s.Run()
	if got != pkt || got.IP.TTL != 62 {
		t.Fatal("SendOwned did not carry the sender's packet itself through both routers")
	}
}
