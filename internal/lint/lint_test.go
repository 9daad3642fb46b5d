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

func TestRetaincheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Retaincheck, "retaincheck")
}

func TestLanecheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Lanecheck, "lanecheck")
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
