// Package engine is the batched multi-device packet pipeline: the seam that
// turns the one-packet-one-call simulator datapath into a line-rate system.
// Packets are queued into a fixed-capacity ring, keyed once with the two-word
// packet.FlowKey4, scattered by canonical host-pair hash into lanes, and run
// through a multi-lane netem.Chain of TSPU devices, the executor netem.Link
// also uses. Every lane owns a disjoint slice of conntrack, fragment, and
// counter state, so N workers process N lanes with no shared lock. As its
// chain's sink, the engine buffers each lane's survivors and After calls
// until the batch barrier, because sim.Sim is single-threaded by design.
//
// Determinism does not depend on the worker count: lanes are disjoint,
// per-lane processing preserves arrival order, flushes happen in lane order,
// and devices built for the engine derive their randomness per flow
// (tspu.Config.PerFlowRand), so a trace produces one verdict stream whether
// it is run on 1 worker or 8, in batches or packet-at-a-time.
package engine

import (
	"sync"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
)

// Config configures an Engine.
type Config struct {
	// Sim supplies virtual time and executes buffered After callbacks.
	Sim *sim.Sim
	// Devices is the in-path chain, physical order A-side to B-side. All
	// devices must be built with the same tspu.Config.Shards so lane
	// ownership lines up across the chain.
	Devices []*tspu.Device
	// Workers bounds concurrent lane processing; 0 or 1 runs lanes inline on
	// the calling goroutine (no goroutines, no synchronization — the fastest
	// mode on a single core).
	Workers int
	// BatchSize is the ring capacity (default 512).
	BatchSize int
	// Deliver, if set, receives every packet that survives the full chain —
	// both pushed packets with a Pass verdict and injected packets (fragment
	// releases) — after the batch barrier, in deterministic order.
	Deliver func(pkt *packet.Packet, dir netem.Direction)
}

// Item is one packet descriptor in the ring. Verdict is valid after the
// Process call that consumed the item returns.
type Item struct {
	Pkt     *packet.Packet
	Dir     netem.Direction
	Verdict netem.Action
	key     packet.FlowKey4
}

// outPkt is a chain survivor awaiting post-barrier delivery.
type outPkt struct {
	pkt *packet.Packet
	dir netem.Direction
}

// laneState is one lane's batch-scoped buffers. Everything here is written
// only by the worker running the lane, between barriers.
type laneState struct {
	// q holds the indexes of this batch's items owned by the lane, in
	// arrival order.
	q []int32
	// afterD/afterF buffer Pipe.After calls for post-barrier flushing
	// (parallel slices; a single slice of 16-byte structs with a func field
	// would allocate on append growth the same, this reads simpler).
	afterD []time.Duration
	afterF []func()
	// out buffers chain survivors for post-barrier delivery.
	out []outPkt
	// drops counts Drop verdicts on this lane's packets (summed into the
	// engine totals at the barrier — workers must not share a counter word).
	drops uint64
}

// engineSink is an Engine in its role as the sink of its chain: what leaves
// a lane is buffered in that lane's laneState until the batch barrier.
type engineSink Engine

// Deliver buffers a chain survivor for the post-barrier Deliver fan-out.
func (s *engineSink) Deliver(lane int, pkt *packet.Packet, dir netem.Direction) {
	if s.deliver != nil {
		ln := &s.lane[lane]
		// The lane out-buffer holds passed packets only until the post-batch
		// deliver fan-out in Process.
		ln.out = append(ln.out, outPkt{pkt: pkt, dir: dir})
	}
}

// After buffers fn for post-barrier scheduling. The simulator does not
// advance during Process, so fn lands at the same virtual instant a direct
// Sim.After call would have given it.
func (s *engineSink) After(lane int, d time.Duration, fn func()) {
	ln := &s.lane[lane]
	ln.afterD = append(ln.afterD, d)
	ln.afterF = append(ln.afterF, fn)
}

// Engine is the batch pipeline. It is driven from the simulator's thread:
// Push/Process must not be called concurrently, but one Process call may fan
// lanes out over Workers goroutines internally.
type Engine struct {
	sim     *sim.Sim
	chain   *netem.Chain
	deliver func(pkt *packet.Packet, dir netem.Direction)
	mask    uint64
	workers int

	items []Item
	n     int
	lane  []laneState

	// packets / batches / drops count lifetime totals.
	packets uint64
	batches uint64
	drops   uint64
}

// New builds an engine. An empty chain or mismatched device lane counts
// (checked by netem.NewShardedChain) are construction bugs and panic.
func New(cfg Config) *Engine {
	if cfg.Sim == nil {
		panic("engine: Config.Sim is required")
	}
	if len(cfg.Devices) == 0 {
		panic("engine: no devices")
	}
	lanes := cfg.Devices[0].NumLanes()
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	workers := min(max(cfg.Workers, 1), lanes)
	e := &Engine{
		sim:     cfg.Sim,
		deliver: cfg.Deliver,
		mask:    uint64(lanes - 1),
		workers: workers,
		items:   make([]Item, cfg.BatchSize),
		lane:    make([]laneState, lanes),
	}
	e.chain = netem.NewShardedChain(cfg.Sim, (*engineSink)(e), lanes, cfg.Devices)
	return e
}

// Totals reports lifetime packets pushed through Process, batches run, and
// Drop verdicts.
func (e *Engine) Totals() (packets, batches, drops uint64) {
	return e.packets, e.batches, e.drops
}

// Push queues one packet for the next Process call. It reports false when
// the ring is full, in which case the caller must Process (or grow the
// batch) before retrying; the packet was not queued.
func (e *Engine) Push(pkt *packet.Packet, dir netem.Direction) bool {
	if e.n == len(e.items) {
		return false
	}
	it := &e.items[e.n]
	// The ring item owns the packet until Process drains the batch and the
	// caller reclaims it.
	it.Pkt = pkt
	it.Dir = dir
	it.Verdict = netem.Pass
	e.n++
	return true
}

// Process runs every queued packet through the device chain and returns the
// items with verdicts filled in, in push order. The returned slice aliases
// the ring: it is valid until the next Push. The simulator must be idle (not
// mid-event) for the duration of the call.
func (e *Engine) Process() []Item {
	items := e.items[:e.n]
	if e.n == 0 {
		return items
	}
	// Stage 1 — key and scatter. One FlowKey4 extraction per packet; the
	// lane index is the canonical host-pair hash masked to the lane count,
	// the same function the sharded conntrack uses, so a lane's packets hit
	// only that lane's shard.
	for i := range items {
		it := &items[i]
		it.key = packet.FlowKey4Of(it.Pkt)
		l := it.key.PairHash() & e.mask
		e.lane[l].q = append(e.lane[l].q, int32(i))
	}
	// Stage 2 — per-lane chain runs, workers over disjoint lanes.
	if e.workers <= 1 {
		for l := range e.lane {
			e.runLane(l, items)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(e.workers)
		for w := 0; w < e.workers; w++ {
			go func(w int) {
				defer wg.Done()
				for l := w; l < len(e.lane); l += e.workers {
					e.runLane(l, items)
				}
			}(w)
		}
		wg.Wait()
	}
	// Stage 3 — barrier passed: flush buffered clock work and survivors in
	// lane order. The flush order is a pure function of lane assignment, so
	// the simulator sees one deterministic schedule per trace regardless of
	// Workers.
	for l := range e.lane {
		ln := &e.lane[l]
		e.drops += ln.drops
		ln.drops = 0
		for i, d := range ln.afterD {
			e.sim.After(d, ln.afterF[i])
		}
		// out is empty unless Deliver is set (engineSink.Deliver).
		for _, op := range ln.out {
			e.deliver(op.pkt, op.dir)
		}
		clear(ln.afterF)
		clear(ln.out)
		ln.afterD, ln.afterF, ln.out, ln.q = ln.afterD[:0], ln.afterF[:0], ln.out[:0], ln.q[:0]
	}
	e.packets += uint64(e.n)
	e.batches++
	e.n = 0
	return items
}

// runLane drives one lane's slice of the batch through the chain in arrival
// order. Nothing outside the lane's own state is written; the race-lanes
// drivers (TestEngineMultiWorkerRace, TestEngineLaneBranchesRace) check that
// claim under -race.
func (e *Engine) runLane(l int, items []Item) {
	ln := &e.lane[l]
	for _, idx := range ln.q {
		it := &items[idx]
		// The scatter pass partitions items rows by lane — ln.q holds only this
		// lane's indexes, so no two lanes write the same row.
		it.Verdict = e.chain.Run(l, it.Pkt, it.Dir, it.key)
		if it.Verdict == netem.Drop {
			ln.drops++
		}
	}
}

// Advance drains due virtual-clock work — flushed After callbacks, fragment
// timeouts, anything else queued on the simulator — up to deadline, running
// at most max events (max <= 0 removes the bound). It is the engine's seam
// onto sim.RunBatch: interleave Process calls with Advance to let conntrack
// timeouts and fragment queues age between traffic bursts.
func (e *Engine) Advance(deadline time.Duration, max int) int {
	if max <= 0 {
		max = int(^uint(0) >> 1)
	}
	return e.sim.RunBatch(deadline, max)
}
