package tspu

import "tspusim/internal/packet"

// flowIndex is a shard's key → entry index together with the arena that
// holds the shard's entries. The index is an open-addressed table with
// linear probing over 8-byte, pointer-free slots: each slot holds a tag, the
// low 32 bits of the key's FlowKey4.Hash, and the entry's arena id. A probe
// reads an entry's key only when the tags agree, so a lookup of a new flow
// usually touches no entry, and the tag names the slot's home, so growth and
// the delete shift never rehash a key. Being pointer-free, the slot array is
// never scanned by the garbage collector. It is specialised to FlowKey4
// because a Go map's generic hashing and probing of this key was the largest
// row of the per-packet profile.
//
// Deletion shifts the rest of the probe cluster back instead of leaving a
// tombstone, so flood churn never degrades probes and the table grows only
// with the live flow count; it never shrinks. Nothing iterates it outside
// tests, so slot order cannot reach any output.
type flowIndex struct {
	// slots has a power-of-two length (nil until the first put). The mask
	// applies to 32-bit tags, so a shard indexes at most 2^32 slots, which
	// the uint32 ids bound anyway.
	slots []flowSlot
	mask  uint64
	n     int
	arena entryArena
}

// flowSlot is one index slot. id is the entry's 1-based arena id; 0 marks
// an empty slot.
type flowSlot struct {
	tag uint32
	id  uint32
}

const (
	flowIndexMinSlots = 8
	// The table doubles before a put would take it past 3/4 full.
	flowIndexLoadNum, flowIndexLoadDen = 3, 4
)

// flowTag returns key's slot tag.
func flowTag(key packet.FlowKey4) uint32 { return uint32(key.Hash()) }

// home returns the preferred slot of a key with this tag.
func (x *flowIndex) home(tag uint32) uint64 { return uint64(tag) & x.mask }

// len reports the number of entries.
func (x *flowIndex) len() int { return x.n }

// get returns the entry stored under key, or nil.
func (x *flowIndex) get(key packet.FlowKey4) *flowEntry {
	if x.n == 0 {
		return nil
	}
	tag := flowTag(key)
	for i := x.home(tag); ; i = (i + 1) & x.mask {
		s := x.slots[i]
		if s.id == 0 {
			return nil
		}
		if s.tag == tag {
			if e := x.arena.at(s.id); e.key == key {
				return e
			}
		}
	}
}

// put stores the arena entry e under e.key, replacing any entry already
// stored under that key.
func (x *flowIndex) put(e *flowEntry) {
	if (x.n+1)*flowIndexLoadDen > len(x.slots)*flowIndexLoadNum {
		x.grow()
	}
	tag := flowTag(e.key)
	for i := x.home(tag); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.id == 0 {
			*s = flowSlot{tag: tag, id: e.id}
			x.n++
			return
		}
		if s.tag == tag && x.arena.at(s.id).key == e.key {
			s.id = e.id
			return
		}
	}
}

// delete removes e if it is indexed. It finds e's slot by id, so it reads no
// other entry. The slots after it in its probe cluster whose home lies at or
// before the hole move back into it, one at a time, so every remaining key
// stays reachable from its home without a tombstone.
func (x *flowIndex) delete(e *flowEntry) {
	if x.n == 0 {
		return
	}
	hole := x.home(flowTag(e.key))
	for ; ; hole = (hole + 1) & x.mask {
		id := x.slots[hole].id
		if id == 0 {
			return
		}
		if id == e.id {
			break
		}
	}
	for j := (hole + 1) & x.mask; x.slots[j].id != 0; j = (j + 1) & x.mask {
		// The entry at j may fill the hole iff the hole is no farther
		// from its home than j is.
		if home := x.home(x.slots[j].tag); (j-home)&x.mask >= (j-hole)&x.mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = flowSlot{}
	x.n--
}

// grow doubles the slot array (or makes the first one) and reinserts every
// slot at its tag's home under the new mask. Growth is amortized over the
// inserts that filled the table; the index never shrinks.
func (x *flowIndex) grow() {
	old := x.slots
	size := 2 * len(old)
	if size < flowIndexMinSlots {
		size = flowIndexMinSlots
	}
	x.slots = make([]flowSlot, size)
	x.mask = uint64(size - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := x.home(s.tag)
		for x.slots[i].id != 0 {
			i = (i + 1) & x.mask
		}
		x.slots[i] = s
	}
}

// entryChunk is the number of entries in one arena chunk.
const entryChunk = 64

// entryArena holds a shard's flowEntry records in fixed chunks of
// entryChunk. An entry's id is its 1-based position in the arena. Chunks are
// never moved or freed, so every *flowEntry the device holds stays valid for
// the shard's life, and a pooled entry keeps its id across reuse: the arena
// grows only when the shard's free list is empty, so it holds the shard's
// peak concurrent flow count rounded up to a chunk.
type entryArena struct {
	chunks []*[entryChunk]flowEntry
	// n counts the entries handed out; the last one's id is n.
	n uint32
}

// at returns the entry with the given id.
func (a *entryArena) at(id uint32) *flowEntry {
	i := id - 1
	return &a.chunks[i/entryChunk][i%entryChunk]
}

// alloc hands out the arena's next unused entry, adding a chunk when the
// last one is full.
func (a *entryArena) alloc() *flowEntry {
	i := a.n
	if i%entryChunk == 0 {
		a.chunks = append(a.chunks, new([entryChunk]flowEntry))
	}
	a.n++
	e := &a.chunks[i/entryChunk][i%entryChunk]
	e.id = a.n
	return e
}
