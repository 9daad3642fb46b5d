// Package sim provides a deterministic discrete-event simulator: a virtual
// clock, an event queue, and a seeded random source. Every other package in
// this module that needs time or randomness takes them from here, which makes
// whole-network experiments reproducible bit-for-bit from a single seed and
// lets timeout measurements that take minutes of "wall time" in the paper
// (§5.3.3) complete in microseconds.
//
// The event queue is allocation-free in steady state: event structs are
// pooled per-Sim (the free list refills as events are popped), the Timer
// handle is a value type, and the binary heap is hand-rolled so scheduling
// never round-trips through interface boxing. Pools are per-Sim and the
// simulator is single-threaded, so pooling cannot introduce cross-run
// nondeterminism: execution order depends only on (when, seq), never on
// event identity.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Sim is a discrete-event simulator. The zero value is not usable; construct
// with New. Sim is not safe for concurrent use: the simulation model is
// single-threaded by design (events execute in timestamp order, ties broken
// by scheduling order), which is what makes runs deterministic.
type Sim struct {
	now    time.Duration
	queue  eventQueue
	nextID uint64
	// processed counts executed events, exposed for tests and benchmarks.
	processed uint64
	running   bool
	// free is the event pool. Events are returned here when popped (fired or
	// cancelled) and reused by the next At, so After+Stop refresh cycles stop
	// churning the heap.
	free       []*event
	poolReuses uint64
}

// New returns an empty simulator whose clock starts at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Processed reports how many events have been executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet executed.
func (s *Sim) Pending() int { return len(s.queue) }

// PoolReuses reports how many scheduled events were served from the event
// pool instead of a fresh allocation. Exposed so tests can pin that stopped
// timers actually become collectible and reusable.
func (s *Sim) PoolReuses() uint64 { return s.poolReuses }

// PoolSize reports how many recycled events are waiting in the pool.
func (s *Sim) PoolSize() int { return len(s.free) }

func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		unpoisonEvent(ev)
		s.poolReuses++
		return ev
	}
	return &event{} // pool miss: amortized to zero across a run
}

// recycle returns a popped event to the pool. The generation bump invalidates
// every outstanding Timer handle to it, so a stale Stop or Reset on a reused
// event is a no-op rather than a cancellation of someone else's event.
func (s *Sim) recycle(ev *event) {
	checkEventLive(ev, "recycled")
	ev.fn = nil
	ev.cancelled = false
	ev.gen++
	poisonEvent(ev)
	s.free = append(s.free, ev)
}

// Reset returns the simulator to its initial state — clock at zero, empty
// queue, event counters cleared — while keeping the event pool, so a Sim
// reused across runs (fleet seeds, benchmark iterations) schedules without
// reallocating. Pending events are recycled with the usual generation bump,
// so Timer handles issued before the Reset turn into no-ops rather than
// cancelling whoever reuses their event structs. Pool accounting
// (PoolReuses) is cumulative across resets. Panics if called from within an
// executing event.
func (s *Sim) Reset() {
	if s.running {
		panic("sim: Reset called re-entrantly from within an event")
	}
	for len(s.queue) > 0 {
		s.recycle(s.queue.pop())
	}
	s.now = 0
	s.nextID = 0
	s.processed = 0
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality and mask bugs.
func (s *Sim) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	ev := s.alloc()
	ev.when = t
	ev.seq = s.nextID
	ev.fn = fn
	s.nextID++
	s.queue.push(ev)
	return Timer{s: s, ev: ev, gen: ev.gen, when: t}
}

// After schedules fn to run d from now. Negative d panics via At.
func (s *Sim) After(d time.Duration, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	s.RunUntil(math.MaxInt64)
}

// RunUntil executes events with timestamps <= deadline, advancing the clock.
// The clock is left at the deadline or at the time of the last event,
// whichever is later... precisely: if events remain beyond the deadline the
// clock is advanced to the deadline so subsequent After calls are relative to
// it.
func (s *Sim) RunUntil(deadline time.Duration) {
	if s.running {
		panic("sim: RunUntil called re-entrantly from within an event")
	}
	s.running = true
	defer func() { s.running = false }()
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.when > deadline {
			break
		}
		s.queue.pop()
		fn, when, cancelled := next.fn, next.when, next.cancelled
		s.recycle(next)
		if cancelled {
			continue
		}
		s.now = when
		s.processed++
		fn()
	}
	if deadline != math.MaxInt64 && deadline > s.now {
		s.now = deadline
	}
}

// RunBatch executes up to max events with timestamps <= deadline and returns
// how many ran. Unlike RunUntil it never advances the clock past the last
// executed event, so a caller can interleave simulation with external work
// (ingesting packets, checking invariants) in bounded slices.
func (s *Sim) RunBatch(deadline time.Duration, max int) int {
	if s.running {
		panic("sim: RunBatch called re-entrantly from within an event")
	}
	s.running = true
	defer func() { s.running = false }()
	ran := 0
	for ran < max && len(s.queue) > 0 {
		next := s.queue[0]
		if next.when > deadline {
			break
		}
		s.queue.pop()
		fn, when, cancelled := next.fn, next.when, next.cancelled
		s.recycle(next)
		if cancelled {
			continue
		}
		s.now = when
		s.processed++
		fn()
		ran++
	}
	return ran
}

// Step executes the single next pending event, if any, and reports whether
// one was executed.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		next := s.queue.pop()
		fn, when, cancelled := next.fn, next.when, next.cancelled
		s.recycle(next)
		if cancelled {
			continue
		}
		s.now = when
		s.processed++
		fn()
		return true
	}
	return false
}

// Timer is a handle to a scheduled event that can be cancelled or
// rescheduled. It is a value type: creating one does not allocate. The
// zero Timer is inert (Stop and Reset report false).
type Timer struct {
	s    *Sim
	ev   *event
	gen  uint32
	when time.Duration
}

// live reports whether the handle still refers to its original, pending
// event (not fired, not recycled into another timer).
func (t *Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing (false if it already fired or was already stopped). The
// event's closure is released immediately — a stopped timer does not keep
// its captures alive while the dead event waits to be popped.
func (t *Timer) Stop() bool {
	if !t.live() {
		return false
	}
	t.ev.cancelled = true
	t.ev.fn = nil
	return true
}

// Reset reschedules a still-pending timer to fire d from now, without
// touching the pool or allocating. It reports whether the timer was
// rescheduled (false if it already fired or was stopped). A reset timer
// behaves like a freshly scheduled one for tie-breaking purposes.
func (t *Timer) Reset(d time.Duration) bool {
	if !t.live() {
		return false
	}
	nt := t.s.now + d
	if nt < t.s.now {
		panic(fmt.Sprintf("sim: resetting event to %v before now %v", nt, t.s.now))
	}
	t.ev.when = nt
	t.ev.seq = t.s.nextID
	t.s.nextID++
	t.s.queue.fix(t.ev.index)
	t.when = nt
	return true
}

// When returns the virtual time the timer is (or was) scheduled for.
func (t *Timer) When() time.Duration { return t.when }

type event struct {
	when      time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	// gen is bumped every time the event is recycled; Timer handles carry
	// the generation they were issued against.
	gen   uint32
	index int
}

// eventQueue is a hand-rolled binary min-heap ordered by (when, seq). It
// replaces container/heap to keep Push/Pop free of interface boxing on the
// per-event path.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	i := len(*q) - 1
	ev.index = i
	q.up(i)
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h.swap(0, n)
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.down(0)
	}
	top.index = -1
	return top
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && q.less(r, l) {
			small = r
		}
		if !q.less(small, i) {
			break
		}
		q.swap(i, small)
		i = small
	}
}

// fix restores heap order after q[i].when or q[i].seq changed in place.
func (q eventQueue) fix(i int) {
	q.down(i)
	q.up(i)
}
