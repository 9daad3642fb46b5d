package tspu

import "tspusim/internal/packet"

// flowIndex is a shard's key → entry index: an open-addressed table with
// linear probing and the key stored inline in each slot, so a probe compares
// two machine words per slot without touching the entry. It is specialised
// to FlowKey4 because a Go map's generic hashing and probing of this key was
// the largest row of the per-packet profile.
//
// Deletion shifts the rest of the probe cluster back instead of leaving a
// tombstone, so flood churn never degrades probes and the table grows only
// with the live flow count; it never shrinks. Nothing iterates it outside
// tests, so slot order cannot reach any output.
type flowIndex struct {
	// slots has a power-of-two length (nil until the first put); an empty
	// slot has e == nil.
	slots []flowSlot
	mask  uint64
	n     int
}

type flowSlot struct {
	key packet.FlowKey4
	e   *flowEntry
}

const (
	flowIndexMinSlots = 8
	// The table doubles before a put would take it past 3/4 full.
	flowIndexLoadNum, flowIndexLoadDen = 3, 4
)

// home returns key's preferred slot.
func (x *flowIndex) home(key packet.FlowKey4) uint64 {
	return key.Hash() & x.mask
}

// len reports the number of entries.
func (x *flowIndex) len() int { return x.n }

// get returns the entry stored under key, or nil.
func (x *flowIndex) get(key packet.FlowKey4) *flowEntry {
	if x.n == 0 {
		return nil
	}
	for i := x.home(key); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.e == nil || s.key == key {
			return s.e
		}
	}
}

// put stores e under key, replacing any entry already there.
func (x *flowIndex) put(key packet.FlowKey4, e *flowEntry) {
	if (x.n+1)*flowIndexLoadDen > len(x.slots)*flowIndexLoadNum {
		x.grow()
	}
	for i := x.home(key); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.e == nil {
			*s = flowSlot{key: key, e: e}
			x.n++
			return
		}
		if s.key == key {
			s.e = e
			return
		}
	}
}

// delete removes key if present. The slots after it in its probe cluster
// whose home lies at or before the hole move back into it, one at a time, so
// every remaining key stays reachable from its home without a tombstone.
func (x *flowIndex) delete(key packet.FlowKey4) {
	if x.n == 0 {
		return
	}
	hole := x.home(key)
	for ; ; hole = (hole + 1) & x.mask {
		s := &x.slots[hole]
		if s.e == nil {
			return
		}
		if s.key == key {
			break
		}
	}
	for j := (hole + 1) & x.mask; x.slots[j].e != nil; j = (j + 1) & x.mask {
		// The entry at j may fill the hole iff the hole is no farther
		// from its home than j is.
		if home := x.home(x.slots[j].key); (j-home)&x.mask >= (j-hole)&x.mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = flowSlot{}
	x.n--
}

// grow doubles the slot array (or makes the first one) and reinserts every
// entry at its home under the new mask. Growth is amortized over the inserts
// that filled the table; the index never shrinks.
func (x *flowIndex) grow() {
	old := x.slots
	size := 2 * len(old)
	if size < flowIndexMinSlots {
		size = flowIndexMinSlots
	}
	x.slots = make([]flowSlot, size)
	x.mask = uint64(size - 1)
	for _, s := range old {
		if s.e == nil {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].e != nil {
			i = (i + 1) & x.mask
		}
		x.slots[i] = s
	}
}
