// Package lanecheck exercises the shard-affinity checker: //tspuvet:lane
// marks lane entry points, //tspuvet:laneowned marks per-lane state, and
// everything reachable from an entry point may touch lane-owned sharded
// containers only through the lane's own index.
package lanecheck

import "tspusim/internal/sim"

// laneState is one lane's private batch state.
//
//tspuvet:laneowned
type laneState struct {
	q     []int32
	drops uint64
}

// shard is one conntrack shard.
//
//tspuvet:laneowned
type shard struct {
	table map[uint64]int
	free  []*laneState
}

// pipe is the per-lane injection handle: lane-owned, but its e field points
// back into shared engine state.
//
//tspuvet:laneowned
type pipe struct {
	e    *engine
	lane int32
}

// engine is the shared top level: lanes must not write it directly.
type engine struct {
	lane   []laneState
	shards []shard
	drops  uint64
	rng    *sim.Rand
}

// item is a per-packet verdict slot; not lane-owned, so an items slice
// parameter stays caller-visible shared memory.
type item struct {
	verdict int32
}

// runLane is the lane entry point: everything below is checked.
//
//tspuvet:lane
func (e *engine) runLane(l int, items []item) {
	ln := &e.lane[l] // own shard via the lane parameter: fine
	ln.drops++       // write through lane-owned state: fine
	ln.q = append(ln.q, 1)

	sh := &e.shards[l]
	sh.table[1] = 2 // map keyed by flow hash inside the own shard: fine

	idx := l // alias of the lane index
	e.lane[idx].drops++

	sib := &e.shards[0] // want `cross-lane access: e\.shards is indexed with 0, not the lane parameter`
	sib.table[1] = 2    // want `lane-reachable code writes shared state through sib\.table\[1\]`

	e.lane[l+1].q = nil // want `cross-lane access: e\.lane is indexed with expr`

	e.drops++ // want `lane-reachable code writes shared state through e\.drops`

	items[0].verdict = 1 // want `lane-reachable code writes shared state through items\[0\]\.verdict`

	if e.rng.Bool(0.5) { // want `lane-reachable code draws from a shared sim\.Rand`
		ln.drops++
	}

	helper(e, l)
}

// helper is reached from runLane; it uses its own lane parameter, and its
// diagnostics carry the call chain.
func helper(e *engine, l int) {
	e.lane[l].q = e.lane[l].q[:0] // own lane: fine
	e.lane[2].drops++             // want `cross-lane access: e\.lane is indexed with 2.*reached via engine\.runLane → helper`
}

// dispatch shows the lanePipe shape: the pipe itself is lane-owned, but
// reaching back through pipe.e re-enters shared territory.
//
//tspuvet:lane
func (e *engine) dispatch(lane int) {
	p := &pipe{e: e, lane: int32(lane)}
	p.inject()
}

// inject indexes the shared lane table with the pipe's own lane field
// (lane-owned state carrying the lane index), which is fine; writing
// engine-level state through p.e is not. The marker is valid without an
// integer parameter because the receiver is lane-owned.
//
//tspuvet:lane
func (p *pipe) inject() {
	ln := &p.e.lane[p.lane]
	ln.drops++
	p.e.drops++ // want `lane-reachable code writes shared state through p\.e\.drops`
}

// unreachable is not lane-reachable: nothing here is checked.
func unreachable(e *engine) {
	e.drops++
	e.lane[3].drops++
}

// mismarked puts the type marker on a function.
//
//tspuvet:laneowned // want `//tspuvet:laneowned belongs on a type declaration, not on function mismarked`
func mismarked() {}

// noParam declares a lane root without a lane-index parameter.
//
//tspuvet:lane // want `a lane entry point needs an integer lane parameter named lane, l, laneID, shard, or shardID`
func noParam() {}

// floating shows a marker attached to nothing.
func floating() {
	//tspuvet:lane // want `//tspuvet:lane must be the doc comment of a function declaration`
	_ = 0
}

// laneType puts the function marker on a type.
//
//tspuvet:lane // want `//tspuvet:lane belongs on a function declaration, not on a type`
type laneType struct{}

//tspuvet:laneowned // want `//tspuvet:laneowned must be the doc comment of a type declaration`
var notAType = 0
