// Command tspu-vet enforces the determinism, hot-path, and ownership
// contracts of DESIGN.md: every experiment's output must be a pure function
// of the lab seed, the per-packet path must not allocate, a middlebox must
// not retain a packet it did not clone, lane-parallel code must stay inside
// its own shard, pooled records must not be touched after release, and
// switches over closed state enums must stay exhaustive. It runs ten
// analyzers — walltime, globalrand, maporder, hotpath, synccheck,
// retaincheck, lanecheck, poolcheck, statecheck, allowdirective — over the
// module (see internal/lint for what each forbids and why).
//
// The analysis is whole-program: analyzers export facts about package-level
// objects (purity taint, allocation summaries, packet retention, lane entry
// points, closed-enum membership) that are threaded through the packages in
// dependency order, so a contract violation two packages away surfaces at
// the call site that commits it.
//
// Standalone, over package patterns (the make lint target; facts travel
// in memory):
//
//	tspu-vet ./...
//	tspu-vet -maporder=false ./internal/measure
//
// Or as a vet tool, which also covers test files (facts travel between
// units as the .vetx files the go command schedules):
//
//	go vet -vettool=$(which tspu-vet) ./...
//
// The escape-analysis gate compares the compiler's heap-escape diagnostics
// for the annotated hot-path packages against a committed baseline:
//
//	tspu-vet -escapes            # fail on any escape not in ESCAPES_baseline.json
//	tspu-vet -escapes -update    # refresh the baseline after a reviewed change
//
// Violations that are deliberate carry an inline justification:
//
//	start := time.Now() //tspuvet:allow walltime: orchestrator metrics are diagnostic only
//
// Hot-path roots are declared with //tspuvet:hotpath on the function's doc
// comment; //tspuvet:coldpath <reason> cuts a callee out of the contract.
// Lane entry points carry //tspuvet:lane, per-lane types //tspuvet:laneowned,
// and deliberate packet retention is declared where it happens:
//
//	c.ring = append(c.ring, pkt) //tspuvet:retains the capture owns its tap copies
//
// //tspuvet:retains is retaincheck's own suppression verb: the reason is
// mandatory, and the directive turns into a diagnostic the moment the
// annotated line stops retaining anything.
//
// tspu-vet exits non-zero if any diagnostic survives suppression; an unused
// or malformed //tspuvet:allow is itself a diagnostic, so the allowlist
// cannot rot.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"tspusim/internal/lint"
	"tspusim/internal/lint/analysis"
	"tspusim/internal/lint/driver"
	"tspusim/internal/lint/escape"
)

// hotPathPackages is the default scope of the escape gate: the packages
// carrying //tspuvet:hotpath annotations.
var hotPathPackages = []string{
	"./internal/sim",
	"./internal/packet",
	"./internal/tlsx",
	"./internal/tspu",
	"./internal/engine",
	"./internal/netem",
}

func main() {
	// The go command probes vet tools before use: `tspu-vet -V=full` must
	// print a stable identity line, `tspu-vet -flags` the supported flags.
	if len(os.Args) == 2 && os.Args[0] != "" {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			printFlags()
			return
		}
	}

	fs := flag.NewFlagSet("tspu-vet", flag.ExitOnError)
	enabled := map[string]*bool{}
	for _, a := range lint.Analyzers() {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	jsonFlag := fs.Bool("json", false, "emit JSON diagnostics instead of text")
	escapesFlag := fs.Bool("escapes", false, "run the escape-analysis gate instead of the analyzers")
	updateFlag := fs.Bool("update", false, "with -escapes: rewrite the baseline instead of diffing against it")
	baselineFlag := fs.String("baseline", "ESCAPES_baseline.json", "with -escapes: baseline file")
	fs.Int("c", -1, "display offending line with this many lines of context (accepted for go vet compatibility)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tspu-vet [flags] [package pattern ...]\n")
		fmt.Fprintf(os.Stderr, "       tspu-vet -escapes [-update] [package pattern ...]\n")
		fmt.Fprintf(os.Stderr, "       tspu-vet [flags] unit.cfg   (go vet -vettool protocol)\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	args := fs.Args()

	if *escapesFlag {
		os.Exit(runEscapes(args, *baselineFlag, *updateFlag))
	}

	var analyzers []*analysis.Analyzer
	ran := map[string]bool{}
	for _, a := range lint.Analyzers() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
			ran[a.Name] = true
		}
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(driver.RunUnitchecker(args[0], analyzers, ran, func(diags []driver.Diagnostic) {
			emit(diags, *jsonFlag)
		}))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	diags, err := driver.Check("", args, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tspu-vet:", err)
		os.Exit(1)
	}
	emit(diags, *jsonFlag)
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runEscapes implements the escape-analysis gate. Exit codes: 0 clean,
// 1 failure (new escape, or no baseline to diff against).
func runEscapes(patterns []string, baselinePath string, update bool) int {
	if len(patterns) == 0 {
		patterns = hotPathPackages
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
	added, removed := escape.Diff(baseline, current)
	for _, r := range removed {
		fmt.Fprintf(os.Stderr, "tspu-vet -escapes: note: baseline escape no longer produced: %s (refresh with -update)\n", r)
	}
	if len(added) > 0 {
		for _, a := range added {
			fmt.Fprintf(os.Stderr, "tspu-vet -escapes: new heap escape: %s\n", a)
		}
		fmt.Fprintf(os.Stderr, "tspu-vet -escapes: %d new heap escape(s) not in %s; fix them or record the decision with -update\n",
			len(added), baselinePath)
		return 1
	}
	return 0
}

func emit(diags []driver.Diagnostic, asJSON bool) {
	if asJSON {
		type jsonDiag struct {
			Posn     string `json:"posn"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{Posn: d.Pos.String(), Analyzer: d.Analyzer, Message: d.Message})
		}
		json.NewEncoder(os.Stdout).Encode(out)
		return
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
}

// printVersion emits the identity line the go command hashes for its build
// cache, in the same shape x/tools' unitchecker uses.
func printVersion() {
	exe, err := os.Executable()
	if err == nil {
		if data, rerr := os.ReadFile(exe); rerr == nil {
			fmt.Printf("tspu-vet version devel comments-go-here buildID=%02x\n", sha256.Sum256(data))
			return
		}
	}
	fmt.Println("tspu-vet version devel comments-go-here buildID=unknown")
}

// printFlags describes the tool's flags as JSON so the go command can vet
// which command-line flags it may forward. The escape-gate flags are
// standalone-only and deliberately absent: go vet must never forward them.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	for _, a := range lint.Analyzers() {
		out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	out = append(out,
		jsonFlag{Name: "json", Bool: true, Usage: "emit JSON diagnostics"},
		jsonFlag{Name: "c", Bool: false, Usage: "display context lines"},
	)
	data, _ := json.Marshal(out)
	fmt.Println(string(data))
}
