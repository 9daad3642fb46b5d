// Package engine is the batched multi-device packet pipeline: the seam that
// turns the one-packet-one-call simulator datapath into a line-rate system.
// Packets are queued into a fixed-capacity ring, keyed once with the two-word
// packet.FlowKey4, scattered by canonical host-pair hash into lanes, and run
// through an in-order chain of TSPU devices via their sharded entry point —
// every lane owning a disjoint slice of conntrack, fragment, and counter
// state, so N workers process N lanes with no shared lock or aggregation
// point.
//
// The chain semantics mirror netem.Link exactly: packets traveling AtoB
// traverse device 0 first, BtoA the highest index first; a Drop verdict stops
// traversal; a device injecting a packet (fragment release) re-enters the
// chain one position past itself in the packet's direction of travel.
// Virtual-clock scheduling from inside a lane is buffered and flushed to the
// simulator after the batch barrier in lane order, because sim.Sim is
// single-threaded by design.
//
// Determinism does not depend on the worker count: lanes are disjoint,
// per-lane processing preserves arrival order, flushes happen in lane order,
// and devices built for the engine derive their randomness per flow
// (tspu.Config.PerFlowRand), so a trace produces one verdict stream whether
// it is run on 1 worker or 8, in batches or packet-at-a-time.
package engine

import (
	"fmt"
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
//
//tspuvet:laneowned
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

// Engine is the batch pipeline. It is driven from the simulator's thread:
// Push/Process must not be called concurrently, but one Process call may fan
// lanes out over Workers goroutines internally.
type Engine struct {
	sim      *sim.Sim
	devices  []*tspu.Device
	deliver  func(pkt *packet.Packet, dir netem.Direction)
	lanes    int
	mask     uint64
	workers  int
	batchCap int

	items []Item
	n     int
	lane  []laneState
	// pipes[l][d] is the Pipe a device d invocation on lane l receives;
	// prebuilt so the hot loop takes addresses instead of allocating.
	pipes [][]lanePipe

	// packets / batches / drops count lifetime totals.
	packets uint64
	batches uint64
	drops   uint64
}

// New builds an engine. It panics on an empty chain or mismatched device
// lane counts — both are construction bugs, not runtime conditions.
func New(cfg Config) *Engine {
	if cfg.Sim == nil {
		panic("engine: Config.Sim is required")
	}
	if len(cfg.Devices) == 0 {
		panic("engine: no devices")
	}
	lanes := cfg.Devices[0].NumLanes()
	for _, d := range cfg.Devices[1:] {
		if d.NumLanes() != lanes {
			panic(fmt.Sprintf("engine: device %q has %d lanes, want %d", d.Name(), d.NumLanes(), lanes))
		}
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > lanes {
		workers = lanes
	}
	e := &Engine{
		sim:      cfg.Sim,
		devices:  cfg.Devices,
		deliver:  cfg.Deliver,
		lanes:    lanes,
		mask:     uint64(lanes - 1),
		workers:  workers,
		batchCap: cfg.BatchSize,
		items:    make([]Item, cfg.BatchSize),
		lane:     make([]laneState, lanes),
		pipes:    make([][]lanePipe, lanes),
	}
	for l := 0; l < lanes; l++ {
		e.pipes[l] = make([]lanePipe, len(cfg.Devices))
		for d := range cfg.Devices {
			e.pipes[l][d] = lanePipe{e: e, lane: int32(l), idx: int32(d)}
		}
	}
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
//
//tspuvet:hotpath
func (e *Engine) Push(pkt *packet.Packet, dir netem.Direction) bool {
	if e.n == e.batchCap {
		return false
	}
	it := &e.items[e.n]
	//tspuvet:retains ring item owns the packet until Process drains the batch and the caller reclaims it
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
//
//tspuvet:hotpath
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
		for l := 0; l < e.lanes; l++ {
			e.runLane(l, items)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(e.workers)
		for w := 0; w < e.workers; w++ {
			go func(w int) { //tspuvet:allow hotpath: worker fan-out is once per batch (Workers>1 only), amortized across up to BatchSize packets
				defer wg.Done()
				for l := w; l < e.lanes; l += e.workers {
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
	for l := 0; l < e.lanes; l++ {
		ln := &e.lane[l]
		e.drops += ln.drops
		ln.drops = 0
		for i, d := range ln.afterD {
			e.sim.After(d, ln.afterF[i])
			ln.afterF[i] = nil
		}
		ln.afterD = ln.afterD[:0]
		ln.afterF = ln.afterF[:0]
		if e.deliver != nil {
			for _, op := range ln.out {
				e.deliver(op.pkt, op.dir)
			}
		}
		for i := range ln.out {
			ln.out[i] = outPkt{}
		}
		ln.out = ln.out[:0]
		ln.q = ln.q[:0]
	}
	e.packets += uint64(e.n)
	e.batches++
	e.n = 0
	return items
}

// runLane drives one lane's slice of the batch through the chain in arrival
// order. Nothing outside the lane's own state is written; lanecheck verifies
// that claim over everything reachable from here.
//
//tspuvet:hotpath
//tspuvet:lane
func (e *Engine) runLane(l int, items []Item) {
	ln := &e.lane[l]
	for _, idx := range ln.q {
		it := &items[idx]
		start := 0
		if it.Dir == netem.BtoA {
			start = len(e.devices) - 1
		}
		//tspuvet:allow lanecheck: the scatter pass partitions items rows by lane — ln.q holds only this lane's indexes, so no two lanes write the same row
		it.Verdict = e.runChain(ln, l, it.Pkt, it.Dir, it.key, start)
		if it.Verdict == netem.Drop {
			ln.drops++
		}
	}
}

// runChain runs pkt through the device chain from index idx (inclusive) in
// dir, mirroring netem.Link.process. Survivors are buffered for delivery.
//
//tspuvet:hotpath
func (e *Engine) runChain(ln *laneState, l int, pkt *packet.Packet, dir netem.Direction, key packet.FlowKey4, idx int) netem.Action {
	step := 1
	if dir == netem.BtoA {
		step = -1
	}
	for ; idx >= 0 && idx < len(e.devices); idx += step {
		if e.devices[idx].HandleSharded(&e.pipes[l][idx], pkt, dir, key, l) == netem.Drop { //tspuvet:allow hotpath: interface wraps a prebuilt per-(lane,device) pipe pointer, no allocation
			return netem.Drop
		}
	}
	if e.deliver != nil {
		//tspuvet:retains lane out-buffer holds passed packets only until the post-batch deliver fan-out in Process
		ln.out = append(ln.out, outPkt{pkt: pkt, dir: dir})
	}
	return netem.Pass
}

// lanePipe implements netem.Pipe for one (lane, device) position. Inject
// continues through the rest of the chain synchronously on the lane worker —
// legal because an injected packet shares the flow's host pair and therefore
// the lane — while After is buffered until the batch barrier, because the
// simulator is not safe to call from lane workers.
//
//tspuvet:laneowned
type lanePipe struct {
	e    *Engine
	lane int32
	idx  int32
}

// Inject mirrors netem.linkPipe.Inject: the packet enters the chain one
// position past this device in its direction of travel. Devices call it
// through the Pipe interface from lane workers, so it is a lane entry point
// in its own right (the receiver carries the lane).
//
//tspuvet:lane
func (p *lanePipe) Inject(pkt *packet.Packet, dir netem.Direction) {
	next := int(p.idx) + 1
	if dir == netem.BtoA {
		next = int(p.idx) - 1
	}
	key := packet.FlowKey4Of(pkt)
	ln := &p.e.lane[p.lane]
	p.e.runChain(ln, int(p.lane), pkt, dir, key, next)
}

func (p *lanePipe) Now() time.Duration { return p.e.sim.Now() }

// After buffers the callback for post-barrier scheduling. The simulator does
// not advance during Process, so flushing after the barrier registers fn at
// the same virtual instant a direct call would have. Like Inject, it runs on
// lane workers via the Pipe interface.
//
//tspuvet:lane
func (p *lanePipe) After(d time.Duration, fn func()) {
	ln := &p.e.lane[p.lane]
	ln.afterD = append(ln.afterD, d)
	ln.afterF = append(ln.afterF, fn)
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
