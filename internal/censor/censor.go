// Package censor defines the contract a nation-scale censor model must
// satisfy to be driven by the measurement toolkit. The paper's central claim
// is that TSPU behavior is a *fingerprint* — a specific bundle of timeouts,
// state-machine quirks, and fragmentation limits — and a fingerprint is only
// meaningful relative to other censors probed the same way. This package is
// the seam that makes "the same way" a compile-time guarantee: internal/tspu
// (Russia's TSPU), internal/ispdpi (the pre-2019 per-ISP DPI baseline),
// internal/censor/tm (Turkmenistan, arXiv:2304.04835) and internal/censor/in
// (India, arXiv:1808.01708) all implement Censor, and the cross-censor probe
// battery in internal/measure accepts any of them.
//
// The interface is deliberately the intersection internal/measure actually
// relies on: the packet-in/verdict-out datapath (netem.Middlebox) plus the
// introspection hooks the probe suite reads — conntrack occupancy (state
// exhaustion, residual-block accounting) and fragment-queue depth (the
// §5.3.1 45-fragment fingerprint). Everything richer — tspu.Stats block-type
// maps, per-ISP injection counters — stays on the concrete types; probes
// that need those are censor-specific by construction.
package censor

import "tspusim/internal/netem"

// Censor is a complete in-path censor model: a link middlebox whose verdict
// logic is the behavior under test, plus the introspection surface the
// cross-censor probe battery assumes of every model.
//
// Handle inherits netem.Middlebox's retention contract verbatim: packet
// ownership is sequential, and any state kept past the Handle return must be
// deep-copied. make pooldebug checks it on every censor the goldens and the
// conformance suite drive through netem links.
type Censor interface {
	netem.Middlebox

	// ConntrackSize reports the number of flow entries the censor holds.
	// A model that expires flows lazily may still count an expired flow:
	// the TSPU's entry counts until a lookup of its key or its lane's sweep
	// reclaims it, and a lane sweeps only when it handles a packet.
	// Stateless injectors (TM, keyword DPI) report 0; the probe
	// battery uses the delta across a flow flood to classify a model as
	// stateful or stateless, and residual-block probes interpret a
	// nonzero value as "state that can outlive the triggering flow".
	ConntrackSize() int

	// PendingFragQueues reports how many IP fragment queues the censor is
	// buffering. Models that forward fragments uninspected report 0.
	PendingFragQueues() int
}
