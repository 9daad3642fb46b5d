//go:build pooldebug

package tspu

// Pool poisoning (-tags=pooldebug): a released flowEntry is scribbled with
// sentinel values so a stale pointer that keeps using it trips an explicit
// panic instead of silently reading whatever flow reused the slot. The
// normal build compiles these hooks to no-ops (pooldebug_off.go), so the
// datapath and its alloc budgets are unaffected.
//
// The shard itself holds no stale references: release() unlinks an entry
// from the insertion-order and timeout-wheel lists before zeroing it. The
// scribble catches the raw *flowEntry aliases held outside the shard.

// poisonedState is far outside the ConnState enum; any guarded access to an
// entry carrying it panics.
const poisonedState ConnState = 0x7D

// poisonEntry scribbles a just-released entry. Called by release() after the
// zeroing wipe.
func poisonEntry(e *flowEntry) {
	e.state = poisonedState
	e.expires = -1
	e.rollSeq = 0xDDDDDDDD
	e.immune = 0xDD
}

// unpoisonEntry restores a pooled entry to the zero state allocEntry's
// callers expect, keeping its arena id.
func unpoisonEntry(e *flowEntry) {
	*e = flowEntry{id: e.id}
}

// checkLive panics when a poisoned (already released) entry is used. Wired
// into release (double release), lookup's map hit (a released entry still in
// the table), and activeBlock (the first deref every blocked-flow packet
// makes), so stale aliases trip on their next datapath touch.
func (e *flowEntry) checkLive(op string) {
	if e.state == poisonedState {
		panic("tspu: pooled flowEntry " + op + " after release (pooldebug)")
	}
}
