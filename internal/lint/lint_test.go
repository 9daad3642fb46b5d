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

func TestAllowdirective(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Allowdirective, "allowdirective")
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

// TestStatecheckFacts runs statecheck whole-program: enumdef's closed enum
// membership travels as an EnumFact, and the consumer's switches are held
// exhaustive against it.
func TestStatecheckFacts(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Statecheck, "statefacts")
}
