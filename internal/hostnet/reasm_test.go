package hostnet

import (
	"testing"
	"time"

	"tspusim/internal/packet"
)

func sendFragmentedSYN(t *testing.T, client *Stack, dst *Stack, n int, id uint16) {
	t.Helper()
	// Distinct source port per probe so each is a fresh flow at the server.
	p := packet.NewTCP(client.Addr(), dst.Addr(), 42000+id, 443, packet.FlagSYN, 1, 0, nil)
	p.IP.ID = id
	frags, err := packet.FragmentCount(p, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		client.Send(f)
	}
}

func TestHostReassemblesFragmentedSYN(t *testing.T) {
	s, client, server := pair(t)
	server.Listen(443, ListenOptions{})
	var sawSYNACK bool
	client.Tap(func(p *packet.Packet) {
		if p.TCP != nil && p.TCP.Flags.Has(packet.FlagsSYNACK) {
			sawSYNACK = true
		}
	})
	sendFragmentedSYN(t, client, server, 3, 77)
	s.Run()
	if !sawSYNACK {
		t.Fatal("server did not respond to fragmented SYN")
	}
}

func TestLinuxDefaultLimit64(t *testing.T) {
	s, client, server := pair(t)
	server.Listen(443, ListenOptions{})
	responses := 0
	client.Tap(func(p *packet.Packet) {
		if p.TCP != nil && p.TCP.Flags.Has(packet.FlagsSYNACK) {
			responses++
		}
	})
	sendFragmentedSYN(t, client, server, 45, 1)
	sendFragmentedSYN(t, client, server, 46, 2)
	sendFragmentedSYN(t, client, server, 64, 3)
	sendFragmentedSYN(t, client, server, 65, 4)
	s.Run()
	// A bare Linux host answers 45, 46, and 64 but not 65 — distinguishing
	// it from a path through a TSPU (45 yes, 46 no).
	if responses != 3 {
		t.Fatalf("responses = %d, want 3", responses)
	}
}

func TestIncompleteQueueTimesOut(t *testing.T) {
	s, client, server := pair(t)
	server.Listen(443, ListenOptions{})
	p := packet.NewTCP(client.Addr(), server.Addr(), 42000, 443, packet.FlagSYN, 1, 0, nil)
	p.IP.ID = 99
	frags, err := packet.FragmentCount(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	client.Send(frags[0])
	client.Send(frags[1]) // final fragment withheld
	s.RunUntil(60 * time.Second)
	if server.reasm.Pending() != 0 {
		t.Fatal("incomplete queue survived timeout")
	}
}
