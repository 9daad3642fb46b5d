//go:build !pooldebug

package netem

import "tspusim/internal/packet"

// No-op counterparts of the retention check (pooldebug.go): the normal build
// forwards the one packet instance hop to hop and carries no state for it.

type retention struct{}

func (n *Network) handoff(pkt *packet.Packet) *packet.Packet { return pkt }
func (n *Network) retire(*packet.Packet)                     {}
