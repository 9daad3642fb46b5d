package tspu

import (
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// entries snapshots the index's entries in slot order. Callers that expire
// or release while walking must walk this copy: a delete shifts later
// entries back into the hole, under a live walk of the slots.
func (x *flowIndex) entries() []*flowEntry {
	var out []*flowEntry
	for _, s := range x.slots {
		if s.id != 0 {
			out = append(out, x.arena.at(s.id))
		}
	}
	return out
}

// checkSlots verifies every occupied slot against the entry it names: the
// id is the entry's own, the tag is the entry key's, and the slot is
// reachable from its tag's home without crossing an empty slot.
func checkSlots(t *testing.T, x *flowIndex) {
	t.Helper()
	n := 0
	for i, s := range x.slots {
		if s.id == 0 {
			continue
		}
		n++
		e := x.arena.at(s.id)
		if e.id != s.id || s.tag != flowTag(e.key) {
			t.Fatalf("slot %d holds {tag %#x, id %d}, its entry has id %d and tag %#x", i, s.tag, s.id, e.id, flowTag(e.key))
		}
		for j := x.home(s.tag); j != uint64(i); j = (j + 1) & x.mask {
			if x.slots[j].id == 0 {
				t.Fatalf("slot %d (home %d) is cut off from its home by empty slot %d", i, x.home(s.tag), j)
			}
		}
	}
	if n != x.len() {
		t.Fatalf("%d occupied slots, len %d", n, x.len())
	}
}

// indexEntry hands out a fresh arena entry for key.
func indexEntry(x *flowIndex, key packet.FlowKey4) *flowEntry {
	e := x.arena.alloc()
	e.key = key
	return e
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
// key of the pool, the length and every slot. A third of the steps pick a
// key whose home is one of the last three slots, so probe clusters wrap past
// the end of the slot array and backward-shift deletes move entries across
// the wrap; each sequence fills past several doublings and then drains, so
// growth lands in the middle of live clusters. A put of a key already held
// replaces its entry; deleting the replaced entry, or an entry never put,
// must leave the index as it is.
func TestFlowIndexMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRand(seed)
		pool := indexKeyPool(rng, 1024)
		var x flowIndex
		ref := make(map[packet.FlowKey4]*flowEntry)
		stale := make(map[packet.FlowKey4]*flowEntry)
		grew := 0
		pick := func(clustered bool) packet.FlowKey4 {
			if clustered && len(x.slots) > 0 {
				start := rng.Intn(len(pool))
				for j := range pool {
					if k := pool[(start+j)%len(pool)]; x.home(flowTag(k)) >= uint64(len(x.slots)-3) {
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
				if old := ref[k]; old != nil {
					stale[k] = old
				}
				e := indexEntry(&x, k)
				x.put(e)
				ref[k] = e
			} else {
				if old := stale[k]; old != nil {
					x.delete(old)
				} else {
					x.delete(indexEntry(&x, k))
				}
				if e := ref[k]; e != nil {
					x.delete(e)
					delete(ref, k)
				}
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
			checkSlots(t, &x)
		}
		if grew < 4 {
			t.Fatalf("seed %d: %d growths over the sequence, want at least 4", seed, grew)
		}
	}
}

// tagTwins are pairs of distinct flow keys whose FlowKey4.Hash agrees in the
// low 32 bits, the slot tag, found by a birthday search over source ports.
// They share every home slot at every table size, so only the key
// comparison behind a tag match tells them apart.
var tagTwins = []struct {
	name           string
	src, dst       string
	sportA, sportB uint16
	dport          uint16
	tag            uint32
}{
	{"https", "10.0.0.1", "203.0.113.1", 10083, 17914, 443, 0x0095793f},
	{"http", "10.0.0.1", "203.0.113.1", 53648, 59238, 80, 0xd76ab556},
}

// TestFlowIndexTagCollisions holds the index to its keys, not its tags:
// two keys with one tag are both found in either insertion order, deleting
// either leaves the other, a put replaces only the entry of its own key, and
// growth keeps both.
func TestFlowIndexTagCollisions(t *testing.T) {
	for _, tc := range tagTwins {
		src, dst := packet.MustAddr(tc.src), packet.MustAddr(tc.dst)
		a := packet.FlowKey4For(packet.ProtoTCP, src, dst, tc.sportA, tc.dport)
		b := packet.FlowKey4For(packet.ProtoTCP, src, dst, tc.sportB, tc.dport)
		if a == b || flowTag(a) != tc.tag || flowTag(b) != tc.tag {
			t.Fatalf("%s: keys do not share tag %#x: %#x, %#x", tc.name, tc.tag, flowTag(a), flowTag(b))
		}
		for _, order := range [][2]packet.FlowKey4{{a, b}, {b, a}} {
			first, second := order[0], order[1]
			for victim := 0; victim < 2; victim++ {
				var x flowIndex
				e1, e2 := indexEntry(&x, first), indexEntry(&x, second)
				x.put(e1)
				x.put(e2)
				if x.get(first) != e1 || x.get(second) != e2 || x.len() != 2 {
					t.Fatalf("%s: get after two puts = %p, %p (len %d), want %p, %p", tc.name, x.get(first), x.get(second), x.len(), e1, e2)
				}
				// Replace the first key's entry: the second stays.
				r1 := indexEntry(&x, first)
				x.put(r1)
				if x.get(first) != r1 || x.get(second) != e2 || x.len() != 2 {
					t.Fatalf("%s: put replaced the wrong entry: %p, %p (len %d)", tc.name, x.get(first), x.get(second), x.len())
				}
				e1 = r1
				// Grow through three doublings with filler keys.
				fill := uint16(1)
				for slots := len(x.slots); len(x.slots) < 8*slots; fill++ {
					x.put(indexEntry(&x, packet.FlowKey4For(packet.ProtoUDP, src, dst, fill, 53)))
				}
				if x.get(first) != e1 || x.get(second) != e2 {
					t.Fatalf("%s: growth to %d slots lost a twin", tc.name, len(x.slots))
				}
				checkSlots(t, &x)
				twins := [2]*flowEntry{e1, e2}
				gone, kept := twins[victim], twins[1-victim]
				x.delete(gone)
				if x.get(gone.key) != nil || x.get(kept.key) != kept {
					t.Fatalf("%s: deleting one twin: get(deleted) = %p, get(kept) = %p, want nil, %p", tc.name, x.get(gone.key), x.get(kept.key), kept)
				}
				checkSlots(t, &x)
			}
		}
	}
}

// TestFlowSlotLayout pins the slot to 8 pointer-free bytes: the size is the
// index's cache footprint, and a pointer in it would make the garbage
// collector scan every slot array.
func TestFlowSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(flowSlot{}); n != 8 {
		t.Fatalf("flowSlot is %d B, want 8", n)
	}
	typ := reflect.TypeOf(flowSlot{})
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Fatalf("flowSlot field %s is a %s; slots must hold no pointer", typ.Field(i).Name, typ.Field(i).Type)
		}
	}
}

// TestEntryArena holds the arena to its three promises: an entry pointer
// stays valid while chunks are added, a pooled entry keeps its id, and the
// arena (and so ConntrackPoolStats' allocs) grows only to the peak number
// of concurrent flows.
func TestEntryArena(t *testing.T) {
	t.Run("pointers survive growth", func(t *testing.T) {
		ct := newShardedConntrack(DefaultTimeouts(), 1)
		sh := &ct.shards[0]
		syn := func(i int) *packet.Packet {
			return packet.NewTCP(packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10"), uint16(20000+i), 443, packet.FlagSYN, 1, 0, nil)
		}
		first := ct.observe(syn(0), true, 0)
		key := first.key
		for i := 1; len(sh.table.arena.chunks) < 4; i++ {
			ct.observe(syn(i), true, 0)
		}
		if first.key != key || sh.table.get(key) != first || sh.table.arena.at(first.id) != first {
			t.Fatalf("entry taken before three chunk growths moved or lost its key: %v, want %v", first.key, key)
		}
	})
	t.Run("pooled reuse keeps ids", func(t *testing.T) {
		ct := newShardedConntrack(DefaultTimeouts(), 1)
		sh := &ct.shards[0]
		var es []*flowEntry
		for i := 0; i < 3*entryChunk/2; i++ {
			es = append(es, sh.allocEntry())
		}
		ids := make(map[*flowEntry]uint32)
		for i, e := range es {
			if e.id != uint32(i+1) || sh.table.arena.at(e.id) != e {
				t.Fatalf("entry %d has id %d, want %d", i, e.id, i+1)
			}
			ids[e] = e.id
			sh.release(e)
		}
		for range es {
			e := sh.allocEntry()
			if want, ok := ids[e]; !ok || e.id != want {
				t.Fatalf("reused entry has id %d, want %d (pooled: %v)", e.id, want, ok)
			}
		}
		if got := sh.table.arena.n; got != uint32(len(es)) {
			t.Fatalf("arena handed out %d entries, want %d: reuse missed the pool", got, len(es))
		}
	})
	t.Run("allocs equal peak concurrency", func(t *testing.T) {
		s := sim.New()
		d := NewDevice(Config{Sim: s, LocalDir: netem.AtoB})
		pipe := nullPipe{s: s}
		next := 0
		peak := 0
		for _, wave := range []int{100, 150, 80, 150, 40} {
			for i := 0; i < wave; i++ {
				next++
				p := packet.NewTCP(netip.AddrFrom4([4]byte{10, 1, byte(next >> 8), byte(next)}), packet.MustAddr("203.0.113.10"), 30000, 443, packet.FlagSYN, 1, 0, nil)
				d.Handle(pipe, p, netem.AtoB)
			}
			peak = max(peak, d.ConntrackSize())
			s.RunUntil(s.Now() + 700*time.Second) // past every timeout
			d.Sweep()
			if n := d.ConntrackSize(); n != 0 {
				t.Fatalf("%d entries outlived every timeout", n)
			}
		}
		allocs, reuses, pooled := d.ConntrackPoolStats()
		if peak != 150 || allocs != uint64(peak) || pooled != peak || reuses != uint64(next-peak) {
			t.Fatalf("allocs %d, reuses %d, pooled %d over %d flows; want allocs = pooled = peak %d", allocs, reuses, pooled, next, peak)
		}
		if chunks := len(d.ct.shards[0].table.arena.chunks); chunks != (peak+entryChunk-1)/entryChunk {
			t.Fatalf("arena holds %d chunks for a peak of %d entries", chunks, peak)
		}
	})
}

// FuzzFlowIndex plays fuzz bytes as put/get/delete operations on a flowIndex
// and a Go map side by side, over a 32-key pool that includes the tag twins,
// so clusters wrap the slot array, the table grows from empty, and colliding
// tags meet. Each byte's top two bits pick the operation and the rest pick
// the key; after every operation the length and the key's entry must agree
// with the map, and at the end every key of the pool and every slot. Deleted
// and replaced entries are reused as the shard pool reuses them, and a
// delete of an absent key deletes an entry of that key that was never put,
// so the arena stays small. Only the first 256 operations play: that fills
// and drains the pool many times over, and it keeps each run short enough
// for the fuzzer to minimize a new input in well under a second.
func FuzzFlowIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0xc0, 0xc1, 0x80})
	f.Add([]byte{0x1c, 0x1d, 0x1e, 0x1f, 0xdc, 0x9d, 0x5e, 0xdf, 0x1c})
	seq := make([]byte, 0, 64)
	for i := byte(0); i < 32; i++ {
		seq = append(seq, i)
	}
	for i := byte(0); i < 32; i += 3 {
		seq = append(seq, 0xc0|i)
	}
	f.Add(seq)

	var pool []packet.FlowKey4
	src, dst := packet.MustAddr("10.0.0.1"), packet.MustAddr("203.0.113.1")
	for _, tc := range tagTwins {
		pool = append(pool,
			packet.FlowKey4For(packet.ProtoTCP, packet.MustAddr(tc.src), packet.MustAddr(tc.dst), tc.sportA, tc.dport),
			packet.FlowKey4For(packet.ProtoTCP, packet.MustAddr(tc.src), packet.MustAddr(tc.dst), tc.sportB, tc.dport))
	}
	for sport := uint16(1); len(pool) < 32; sport++ {
		pool = append(pool, packet.FlowKey4For(packet.ProtoTCP, src, dst, sport, 443))
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		var x flowIndex
		ref := make(map[packet.FlowKey4]*flowEntry)
		strays := make(map[packet.FlowKey4]*flowEntry)
		var free []*flowEntry
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for step, op := range ops {
			k := pool[int(op&0x3f)%len(pool)]
			switch op >> 6 {
			case 0, 1:
				var e *flowEntry
				if n := len(free); n > 0 {
					e, free = free[n-1], free[:n-1]
					e.key = k
				} else {
					e = indexEntry(&x, k)
				}
				x.put(e)
				if old := ref[k]; old != nil {
					free = append(free, old)
				}
				ref[k] = e
			case 2:
				// get: the check after every operation reads k.
			case 3:
				if e := ref[k]; e != nil {
					x.delete(e)
					delete(ref, k)
					free = append(free, e)
				} else {
					if strays[k] == nil {
						strays[k] = indexEntry(&x, k)
					}
					x.delete(strays[k])
				}
			}
			if x.len() != len(ref) {
				t.Fatalf("step %d: len %d, map holds %d", step, x.len(), len(ref))
			}
			if got := x.get(k); got != ref[k] {
				t.Fatalf("step %d: get(%v) = %p, map holds %p", step, k, got, ref[k])
			}
		}
		for _, k := range pool {
			if got := x.get(k); got != ref[k] {
				t.Fatalf("end: get(%v) = %p, map holds %p", k, got, ref[k])
			}
		}
		checkSlots(t, &x)
	})
}
