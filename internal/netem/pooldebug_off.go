//go:build !pooldebug

package netem

import "tspusim/internal/packet"

// Normal-build counterparts of the retention check (pooldebug.go): the one
// packet instance travels hop to hop, and a dead packet goes straight to the
// free list.

type retention struct{}

func (n *Network) handoff(pkt *packet.Packet) *packet.Packet { return pkt }
func (n *Network) release(pkt *packet.Packet)                { n.free(pkt) }
