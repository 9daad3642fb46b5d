package lint_test

import (
	"testing"

	"tspusim/internal/lint"
	"tspusim/internal/lint/analysistest"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Walltime, "walltime")
}

func TestGlobalrand(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Globalrand, "globalrand")
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Maporder, "maporder")
}

func TestAllowdirective(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Allowdirective, "allowdirective")
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Hotpath, "hotpath")
}

func TestSynccheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Synccheck, "synccheck")
}

// TestHotpathRegress is the fault re-injection fixture: a shrunk conntrack
// with a deliberate fmt.Sprintf on the per-packet path, caught with the full
// call chain in the diagnostic.
func TestHotpathRegress(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Hotpath, "hotpathregress")
}

func TestRetaincheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Retaincheck, "retaincheck")
}

func TestLanecheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Lanecheck, "lanecheck")
}

func TestPoolcheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Poolcheck, "poolcheck")
}

// TestRetainRegress is the fault re-injection fixture for retaincheck: the
// capture-middlebox shape PR 6's clone-free handoff makes dangerous, stashing
// the live packet through a helper, caught with the Handle → observe chain.
func TestRetainRegress(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Retaincheck, "retainregress")
}

// TestLaneRegress is the fault re-injection fixture for lanecheck: a
// HandleSharded lane stealing work from the neighbouring conntrack shard and
// bumping an engine-level counter without synchronization.
func TestLaneRegress(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Lanecheck, "laneregress")
}

func TestStatecheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Statecheck, "statecheck")
}

// TestPurityFacts runs walltime whole-program: clockutil's wall-clock read
// taints its exported API, and the consuming package is held to it through
// the ImpureFact.
func TestPurityFacts(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Walltime, "purityfacts")
}

// TestHotpathFacts runs hotpath whole-program: an unmarked helper package's
// allocations surface at hot call sites in the consumer via AllocFacts,
// including a two-hop chain inside the helper.
func TestHotpathFacts(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Hotpath, "hotfacts")
}

// TestRetainFacts runs retaincheck whole-program: the stash helper's
// package-level stores export RetainsFacts, so forwarding a live packet
// across the package boundary is now a caller-side diagnostic too.
func TestRetainFacts(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Retaincheck, "retainfacts")
}

// TestStatecheckFacts runs statecheck whole-program: enumdef's closed enum
// membership travels as an EnumFact, and the consumer's switches are held
// exhaustive against it.
func TestStatecheckFacts(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Statecheck, "statefacts")
}
