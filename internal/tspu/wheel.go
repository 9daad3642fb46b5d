package tspu

import "time"

// timeWheel is the per-shard expiry index that replaces the global map-scan
// sweep: a ring of time slots, one per wheelGran of virtual time, each the
// head of an intrusive list of the flowEntries whose expiry falls in that
// slot's window. Sweeping advances the ring to the current time and visits
// only the slots that elapsed, so reclaim cost is proportional to the flows
// that actually expired — not to the size of the table, which is what makes
// million-flow conntracks sweepable at line rate.
//
// The wheel is deliberately lazy: an entry is inserted once at creation and
// never moved when activity or a blocking hold extends its expiry (expiry is
// monotonically nondecreasing — states only lengthen and the clock only
// advances). When its slot fires, a still-live entry is simply re-bucketed at
// its current expiry. An entry that leaves the table for any other reason
// (lazy lookup expiry, pressure eviction, the bare-ACK restart) is unlinked
// from its slot by ctShard.release, so every list holds live entries only
// and the wheel's memory follows the live table.
const (
	// wheelGran is the slot width. Table 2's timeouts are whole seconds,
	// so nothing is gained by finer slots.
	wheelGran = time.Second
	// wheelSlots is the ring size. At 1 s per slot it spans 512 s, past the
	// longest measured lifetime (ESTABLISHED / SNI-II / QUIC at 480 s);
	// expiries beyond the horizon clamp to the far edge and re-bucket when
	// it fires.
	wheelSlots = 512
)

// timeWheel indexes a shard's entries by expiry; it lives inside a ctShard
// and is only ever advanced by the lane that owns that shard. The ring is
// made with the shard's first entry (ctShard.allocEntry); until then only
// base moves.
type timeWheel struct {
	// slots[i] heads the list of entries linked through wprev/wnext whose
	// wslot is i; nil until the shard's first entry.
	slots []*flowEntry
	// base is the start of slots[cursor]'s window.
	base   time.Duration
	cursor int
}

// init makes the ring, on the shard's first entry allocation.
func (w *timeWheel) init() {
	w.slots = make([]*flowEntry, wheelSlots)
}

// insert links e at the head of the slot covering its current expires time.
func (w *timeWheel) insert(e *flowEntry) {
	idx := 0
	if e.expires > w.base {
		idx = int((e.expires - w.base) / wheelGran)
		if idx >= wheelSlots {
			idx = wheelSlots - 1
		}
	}
	slot := (w.cursor + idx) & (wheelSlots - 1)
	head := w.slots[slot]
	e.wprev, e.wnext, e.wslot = nil, head, uint16(slot)
	if head != nil {
		head.wprev = e
	}
	w.slots[slot] = e
}

// unlink removes e from its slot's list.
func (w *timeWheel) unlink(e *flowEntry) {
	if e.wprev != nil {
		e.wprev.wnext = e.wnext
	} else {
		w.slots[e.wslot] = e.wnext
	}
	if e.wnext != nil {
		e.wnext.wprev = e.wprev
	}
}

// advanceWheel retires every slot whose window ended at or before now,
// expiring dead entries from the shard and re-bucketing live ones, then
// checks the current (partial) slot so the post-condition matches the
// map-scan sweep exactly: after advanceWheel(now) no entry with
// expires <= now remains. Returns the number of entries reclaimed.
func (sh *ctShard) advanceWheel(now time.Duration) int {
	w := &sh.wheel
	reclaimed := 0
	for w.base+wheelGran <= now {
		if sh.table.len() == 0 {
			// Every live entry is on the wheel, so it is empty: jump the
			// ring to now in one step.
			w.base = now - (now % wheelGran)
			break
		}
		cur := w.cursor
		w.base += wheelGran
		w.cursor = (cur + 1) & (wheelSlots - 1)
		// A clamped (beyond-horizon) re-insert maps back to cur. insert
		// links at the head, ahead of the walk, so it is not visited again.
		for e := w.slots[cur]; e != nil; {
			next := e.wnext
			if e.expires <= now {
				sh.expire(e)
				reclaimed++
			} else {
				w.unlink(e)
				w.insert(e)
			}
			e = next
		}
	}
	if w.slots == nil {
		// No ring yet, so the shard never held an entry.
		return 0
	}
	// Partial slot: entries expiring inside the current window need a check
	// too, without retiring the slot.
	for e := w.slots[w.cursor]; e != nil; {
		next := e.wnext
		if e.expires <= now {
			sh.expire(e)
			reclaimed++
		}
		e = next
	}
	return reclaimed
}
