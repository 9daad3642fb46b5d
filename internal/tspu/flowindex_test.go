package tspu

import (
	"net/netip"
	"testing"

	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// entries snapshots the index's entries in slot order. Callers that expire
// or release while walking must walk this copy: a delete shifts later
// entries back into the hole, under a live walk of the slots.
func (x *flowIndex) entries() []*flowEntry {
	var out []*flowEntry
	for _, s := range x.slots {
		if s.e != nil {
			out = append(out, s.e)
		}
	}
	return out
}

// indexKeyPool returns n distinct flow keys between seeded host pairs.
func indexKeyPool(rng *sim.Rand, n int) []packet.FlowKey4 {
	seen := make(map[packet.FlowKey4]bool, n)
	keys := make([]packet.FlowKey4, 0, n)
	for len(keys) < n {
		src := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
		dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(1 + rng.Intn(254))})
		p := packet.NewTCP(src, dst, uint16(1024+rng.Intn(60000)), 443, packet.FlagSYN, 1, 0, nil)
		if k := packet.FlowKey4Of(p); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestFlowIndexMatchesMap drives seeded put/get/delete sequences through a
// flowIndex and a Go map side by side and, after every step, checks every
// key of the pool and the length. A third of the steps pick a key whose
// home is one of the last three slots, so probe clusters wrap past the end of the
// slot array and backward-shift deletes move entries across the wrap; each
// sequence fills past several doublings and then drains, so growth lands in
// the middle of live clusters.
func TestFlowIndexMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRand(seed)
		pool := indexKeyPool(rng, 1024)
		var x flowIndex
		ref := make(map[packet.FlowKey4]*flowEntry)
		grew := 0
		pick := func(clustered bool) packet.FlowKey4 {
			if clustered && len(x.slots) > 0 {
				start := rng.Intn(len(pool))
				for j := range pool {
					if k := pool[(start+j)%len(pool)]; x.home(k) >= uint64(len(x.slots)-3) {
						return k
					}
				}
			}
			return pool[rng.Intn(len(pool))]
		}
		for step := 0; step < 3000; step++ {
			// Fill for the first half, drain for the second.
			putShare := 0.7
			if step >= 1500 {
				putShare = 0.3
			}
			before := len(x.slots)
			k := pick(rng.Bool(0.33))
			if rng.Bool(putShare) {
				e := &flowEntry{key: k}
				x.put(k, e)
				ref[k] = e
			} else {
				x.delete(k)
				delete(ref, k)
			}
			if len(x.slots) != before {
				grew++
			}
			if x.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, map holds %d", seed, step, x.len(), len(ref))
			}
			for _, k := range pool {
				if got, want := x.get(k), ref[k]; got != want {
					t.Fatalf("seed %d step %d: get(%v) = %p, map holds %p", seed, step, k, got, want)
				}
			}
		}
		if grew < 4 {
			t.Fatalf("seed %d: %d growths over the sequence, want at least 4", seed, grew)
		}
	}
}
