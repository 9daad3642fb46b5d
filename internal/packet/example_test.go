package packet_test

import (
	"fmt"

	"tspusim/internal/packet"
)

func ExampleFragment() {
	p := packet.NewTCP(
		packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10"),
		40000, 443, packet.FlagsPSHACK, 1, 1, make([]byte, 3000))
	frags, _ := packet.Fragment(p, 1480)
	for _, f := range frags {
		fmt.Printf("offset=%-5d mf=%v len=%d\n", f.IP.FragOffset, f.IP.MF, len(f.RawPayload))
	}
	whole, _ := packet.Reassemble(frags)
	fmt.Println("reassembled payload:", len(whole.TCP.Payload))
	// Output:
	// offset=0     mf=true len=1480
	// offset=1480  mf=true len=1480
	// offset=2960  mf=false len=60
	// reassembled payload: 3000
}

func ExampleFlowKey4Of() {
	a := packet.NewTCP(packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10"), 40000, 443, packet.FlagSYN, 0, 0, nil)
	b := packet.NewTCP(packet.MustAddr("203.0.113.10"), packet.MustAddr("10.0.0.2"), 443, 40000, packet.FlagsSYNACK, 0, 0, nil)
	fmt.Println(packet.FlowKey4Of(a) == packet.FlowKey4Of(b))
	// Output: true
}

func ExampleTCPFlags_String() {
	fmt.Println(packet.FlagsSYNACK)
	fmt.Println(packet.FlagsRSTACK)
	// Output:
	// SYN/ACK
	// ACK/RST
}
