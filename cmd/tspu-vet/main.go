// Command tspu-vet holds the static half of the determinism contract of
// DESIGN.md: every experiment's output must be a pure function of the lab
// seed, and switches over closed state enums must stay exhaustive. It runs
// four analyzers — walltime, globalrand, statecheck, allowdirective — over
// the module (see internal/lint for what each forbids and why each has no
// runtime counterpart). The rest of the contract — byte-identical reruns,
// packet retention, lane isolation — is held by checks that run the
// program: the determinism tests and goldens, make pooldebug and make
// race-lanes.
//
// The analysis is whole-program: analyzers export facts about package-level
// objects (purity taint, closed-enum membership) that are threaded through
// the packages in dependency order, so a contract violation two packages
// away surfaces at the call site that commits it. There is one way to run
// it — the whole suite, facts in memory, non-test files only — over package
// patterns (default ./...; this is the make lint target):
//
//	tspu-vet ./...
//
// The escape-analysis gate holds the per-packet path to its zero-allocation
// contract: it compares the compiler's heap-escape diagnostics for the
// packet-path packages against ESCAPES_baseline.json:
//
//	tspu-vet -escapes            # fail on any new, grown, shrunk, or removed escape
//	tspu-vet -escapes -update    # refresh the baseline after a reviewed change
//
// Violations that are deliberate carry an inline justification:
//
//	start := time.Now() //tspuvet:allow walltime: orchestrator metrics are diagnostic only
//
// tspu-vet exits non-zero if any diagnostic survives suppression; an unused
// or malformed //tspuvet:allow is itself a diagnostic, so the allowlist
// cannot rot.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"tspusim/internal/lint/driver"
	"tspusim/internal/lint/escape"
)

// escapePackages is the default scope of the escape gate: the packages every
// packet crosses — parse, SNI extraction, the device, the engine, the chain
// walk and the scheduler.
var escapePackages = []string{
	"./internal/sim",
	"./internal/packet",
	"./internal/tlsx",
	"./internal/tspu",
	"./internal/engine",
	"./internal/netem",
}

// baselinePath is the escape gate's committed baseline, relative to the
// module root the gate runs in.
const baselinePath = "ESCAPES_baseline.json"

func main() {
	fs := flag.NewFlagSet("tspu-vet", flag.ExitOnError)
	escapesFlag := fs.Bool("escapes", false, "run the escape-analysis gate instead of the analyzers")
	updateFlag := fs.Bool("update", false, "with -escapes: rewrite "+baselinePath+" instead of diffing against it")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tspu-vet [package pattern ...]\n")
		fmt.Fprintf(os.Stderr, "       tspu-vet -escapes [-update] [package pattern ...]\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	args := fs.Args()

	if *escapesFlag {
		os.Exit(runEscapes(args, *updateFlag))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	diags, err := driver.Check("", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tspu-vet:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runEscapes implements the escape-analysis gate. Exit codes: 0 clean,
// 1 failure (the escapes differ from the baseline, or there is no baseline).
func runEscapes(patterns []string, update bool) int {
	if len(patterns) == 0 {
		patterns = escapePackages
	}
	current, err := escape.Collect("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tspu-vet -escapes:", err)
		return 1
	}
	if update {
		if err := current.Save(baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "tspu-vet -escapes:", err)
			return 1
		}
		fmt.Printf("tspu-vet: wrote %s (%d escapes under %s)\n", baselinePath, len(current.Escapes), current.GoVersion)
		return 0
	}
	baseline, err := escape.Load(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tspu-vet -escapes: %v (run `tspu-vet -escapes -update` to create the baseline)\n", err)
		return 1
	}
	if baseline.GoVersion != runtime.Version() {
		fmt.Fprintf(os.Stderr, "tspu-vet -escapes: warning: baseline recorded under %s, running %s; escape analysis can differ across toolchains\n",
			baseline.GoVersion, runtime.Version())
	}
	if !escape.Gate(os.Stderr, baseline, current, baselinePath) {
		return 1
	}
	return 0
}
