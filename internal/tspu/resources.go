package tspu

import "time"

// Resource management. §8 closes on the observation that the TSPU trades
// resistance to evasion for cheap, commodity hardware near users: it does
// not reassemble TCP, and its ability to "patch" evasions depends on
// whether it is "provisioned with enough computation and memory resources".
// This file makes that trade-off concrete: a bounded flow table with FIFO
// pressure eviction, and a sweeper that reclaims expired state. With a bound
// configured, a state-exhaustion flood can evict an active blocking entry —
// turning the provisioning question into a measurable evasion.

// capacityState is a shard's flow-table bound and its insertion-order list:
// every live entry, oldest first, threaded through flowEntry.older/newer. It
// lives inside a ctShard and is only touched by the lane that owns it.
type capacityState struct {
	maxFlows       int
	oldest, newest *flowEntry
	// pressureEvictions counts entries evicted to make room.
	pressureEvictions int
}

// SetMaxFlows bounds the device's flow table. Zero means unlimited (the
// default, i.e. a well-provisioned device). With a sharded table the bound is
// divided evenly across shards (rounded up), so the aggregate bound is at
// least n and memory pressure is felt locally — a hot host pair exhausts its
// shard the way a hot TSPU exhausts one box, not the whole deployment.
func (d *Device) SetMaxFlows(n int) {
	shards := len(d.ct.shards)
	per := n
	if n > 0 && shards > 1 {
		per = (n + shards - 1) / shards
	}
	for i := range d.ct.shards {
		d.ct.shards[i].cap.maxFlows = per
	}
}

// PressureEvictions reports how many entries were evicted to make room.
func (d *Device) PressureEvictions() int {
	n := 0
	for i := range d.ct.shards {
		n += d.ct.shards[i].cap.pressureEvictions
	}
	return n
}

// noteInsert appends a new entry at the tail of the insertion order and, if
// the shard is over its bound, evicts from the head until it is not. Order is
// tracked even while unbounded, so enabling a bound later still has
// candidates. The entry just inserted is never its own victim.
func (sh *ctShard) noteInsert(e *flowEntry) {
	c := &sh.cap
	e.older = c.newest
	if c.newest != nil {
		c.newest.newer = e
	} else {
		c.oldest = e
	}
	c.newest = e
	if c.maxFlows <= 0 {
		return
	}
	for sh.table.len() > c.maxFlows && c.oldest != e {
		sh.release(c.oldest)
		c.pressureEvictions++
	}
}

// unlink removes e from the insertion-order list.
func (c *capacityState) unlink(e *flowEntry) {
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
}

// Sweep removes expired entries immediately instead of waiting for lazy
// eviction on next access; it returns the number reclaimed. Each shard
// advances its timeout wheel, visiting only the slots that elapsed —
// reclaim cost scales with expired flows, not table size.
func (ct *conntrack) Sweep(now time.Duration) int {
	n := 0
	for i := range ct.shards {
		n += ct.shards[i].advanceWheel(now)
	}
	return n
}

// Sweep reclaims expired conntrack entries and fragment queues.
func (d *Device) Sweep() int {
	return d.ct.Sweep(d.now())
}

// ConntrackEvictions reports how many entries have been reclaimed by timeout
// (sweeps and lazy expiry on access), as opposed to capacity pressure.
func (d *Device) ConntrackEvictions() int { return d.ct.evictionCount() }

// ConntrackPoolStats exposes the per-shard entry-pool counters, aggregated:
// fresh allocations, freelist reuses, and entries currently parked. At scale
// the invariant of interest is allocs ≈ peak concurrency even when total
// churned flows are far larger — steady-state churn must be served by reuse.
func (d *Device) ConntrackPoolStats() (allocs, reuses uint64, pooled int) {
	return d.ct.poolStats()
}

// EnableAutoSweep makes each lane sweep its own conntrack shard at most once
// per interval, piggybacked on packet handling — housekeeping rides the
// datapath rather than pinning the event loop with a self-rescheduling timer
// (which would keep the simulation alive forever), and stays lane-local so
// the batch engine's workers never sweep each other's shards.
func (d *Device) EnableAutoSweep(interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	d.sweepEvery = interval
	now := d.now()
	for i := range d.lanes {
		d.lanes[i].lastSweep = now
	}
}
