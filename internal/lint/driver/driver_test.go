package driver_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tspusim/internal/lint/driver"
)

// The simulator core and the report renderer are the two packages the
// determinism contract protects most directly; they must always come back
// clean, which also exercises the whole load → typecheck → analyze →
// suppress pipeline against real module packages.
func TestCheckCorePackagesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	diags, err := driver.Check("", []string{
		"tspusim/internal/sim",
		"tspusim/internal/report",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// The fleet orchestrator deals in real wall time on purpose; every one of
// its clock reads must be excused by a reasoned directive, so the package is
// clean under the full suite but dirty when suppression cannot apply — the
// live proof that the allowlist is what keeps the build green.
func TestCheckFleetSuppressedByDirectives(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	diags, err := driver.Check("", []string{"tspusim/internal/fleet"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// writeModule lays out a synthetic module for black-box driver runs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const dirtyA = `package synth

import "time"

func A() time.Time {
	return time.Now()
}

// Mode is a closed enum.
//
//tspuvet:closedenum
type Mode int

const (
	On Mode = iota
	Off
)

func Name(m Mode) string {
	switch m {
	case On:
		return "on"
	}
	return ""
}
`

const dirtyB = `package synth

import "time"

func C() time.Duration {
	return time.Since(time.Time{}) //tspuvet:allow walltime: fixture exercising suppression
}

//tspuvet:allow statecheck: stale directive that suppresses nothing
func Unused() {}
`

// The multichecker over a synthetic module: diagnostics from all files
// arrive sorted by position, suppression drops the excused violation, and
// the stale directive surfaces as its own finding.
func TestCheckSyntheticModuleOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": "module synthmod\n\ngo 1.22\n",
		"a.go":   dirtyA,
		"b.go":   dirtyB,
	})
	diags, err := driver.Check(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, filepath.Base(d.Pos.Filename)+":"+d.Analyzer)
	}
	want := []string{"a.go:walltime", "a.go:statecheck", "b.go:allowdirective"}
	if len(got) != len(want) {
		t.Fatalf("diagnostics = %v, want analyzers %v", diags, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag[%d] = %s, want %s (full: %s)", i, got[i], want[i], diags[i])
		}
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %s before %s", diags[i-1], diags[i])
		}
	}
}

// buildVet compiles the real tspu-vet binary for black-box exit-code tests.
func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tspu-vet")
	out, err := exec.Command("go", "build", "-o", bin, "tspusim/cmd/tspu-vet").CombinedOutput()
	if err != nil {
		t.Fatalf("building tspu-vet: %v\n%s", err, out)
	}
	return bin
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("not an exit error: %v", err)
	}
	return ee.ExitCode()
}

// The binary's exit codes: 0 on a clean module, 1 on a dirty one, with the
// diagnostics on its output.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the tspu-vet binary")
	}
	bin := buildVet(t)
	dirty := writeModule(t, map[string]string{
		"go.mod": "module synthmod\n\ngo 1.22\n",
		"a.go":   dirtyA,
	})
	clean := writeModule(t, map[string]string{
		"go.mod": "module synthclean\n\ngo 1.22\n",
		"a.go":   "package synth\n\nfunc Fine() int { return 1 }\n",
	})

	run := func(dir string) (int, string) {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return exitCode(t, err), string(out)
	}

	code, out := run(dirty)
	if code != 1 {
		t.Errorf("dirty module: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "walltime") || !strings.Contains(out, "statecheck") {
		t.Errorf("dirty module output missing expected diagnostics:\n%s", out)
	}
	if code, out := run(clean); code != 0 {
		t.Errorf("clean module: exit %d, want 0\n%s", code, out)
	}
}

// The synthfacts module is the cross-package regression bed for the facts
// layer: dep (annotated-but-fact-exporting sources of impurity and a closed
// enum) and top (one surviving consumer diagnostic per fact kind, each
// paired with a suppressed twin so the directives in top only stay fresh
// when the facts actually arrive).
const synthDep = `// Package dep exports facts from sites that are excused locally.
package dep

import "time"

// Kind is a closed verdict enum for the consumer's switches.
//
//tspuvet:closedenum
type Kind int

// Kinds.
const (
	KA Kind = iota
	KB
	KC
)

// Stamp reads the wall clock; excused here, but the taint still travels.
func Stamp() time.Time {
	return time.Now() //tspuvet:allow walltime: fixture boundary; callers see the taint via facts
}
`

const synthTop = `// Package top consumes dep through the fact store.
package top

import (
	"time"

	"synthfacts/dep"
)

// Step picks up dep's wall-clock taint: the surviving walltime finding.
func Step() time.Duration {
	return dep.Stamp().Sub(time.Time{})
}

// Report makes the identical call under an impurity stamp: silenced.
//
//tspuvet:impure fixture: progress metrics only
func Report() time.Time {
	return dep.Stamp()
}

// Describe misses KC: the surviving statecheck finding.
func Describe(k dep.Kind) string {
	switch k {
	case dep.KA:
		return "a"
	case dep.KB:
		return "b"
	}
	return ""
}

// DescribeAllowed hides members behind an annotated default.
func DescribeAllowed(k dep.Kind) string {
	switch k {
	case dep.KA:
		return "a"
	default: //tspuvet:allow statecheck: fixture remaining kinds share a path
		return "other"
	}
}
`

func writeSynthfacts(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod":     "module synthfacts\n\ngo 1.22\n",
		"dep/dep.go": synthDep,
		"top/top.go": synthTop,
	})
}

// synthfactsWant is the surviving diagnostic set: one finding per fact kind,
// all in the consuming package, in position order.
var synthfactsWant = []struct{ analyzer, substr string }{
	{"walltime", "call to dep.Stamp reaches wall-clock time (reached via dep.Stamp → time.Now)"},
	{"statecheck", "switch over closed enum dep.Kind does not handle KC"},
}

func checkSynthfactsDiags(t *testing.T, label string, diags []driver.Diagnostic) {
	t.Helper()
	if len(diags) != len(synthfactsWant) {
		t.Errorf("%s: %d diagnostics, want %d: %v", label, len(diags), len(synthfactsWant), diags)
		return
	}
	for i, w := range synthfactsWant {
		d := diags[i]
		if d.Analyzer != w.analyzer || !strings.Contains(d.Message, w.substr) ||
			filepath.Base(d.Pos.Filename) != "top.go" {
			t.Errorf("%s: diag[%d] = %s, want %s in top.go containing %q", label, i, d, w.analyzer, w.substr)
		}
	}
}

// Whole-program analysis over the synthfacts module: exactly one surviving
// diagnostic per fact kind, every one in the consuming package and caused by
// a fact dep exported, and the same output no matter what
// order the packages are named in — dependency ordering, not argument
// ordering, decides when facts are available.
func TestCheckSynthfactsCrossPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	dir := writeSynthfacts(t)
	orders := [][]string{
		{"./..."},
		{"./dep", "./top"},
		{"./top", "./dep"},
	}
	var first []driver.Diagnostic
	for _, patterns := range orders {
		diags, err := driver.Check(dir, patterns)
		if err != nil {
			t.Fatalf("Check(%v): %v", patterns, err)
		}
		checkSynthfactsDiags(t, strings.Join(patterns, " "), diags)
		if first == nil {
			first = diags
			continue
		}
		for i := range diags {
			if diags[i] != first[i] {
				t.Errorf("pattern order %v changed diag[%d]: %s vs %s", patterns, i, diags[i], first[i])
			}
		}
	}
}

// The same module through the tspu-vet binary: exit 1, every cross-package
// finding printed, and nothing from the excused twins or the dependency.
func TestSynthfactsBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the tspu-vet binary")
	}
	bin := buildVet(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = writeSynthfacts(t)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 1 {
		t.Errorf("exit %d, want 1\n%s", code, out)
	}
	for _, w := range synthfactsWant {
		if !strings.Contains(string(out), w.substr) {
			t.Errorf("output missing %q:\n%s", w.substr, out)
		}
	}
	if strings.Count(string(out), "call to dep.Stamp") != 1 || strings.Count(string(out), "closed enum dep.Kind") != 1 ||
		strings.Contains(string(out), "dep.go:") {
		t.Errorf("suppressed or dependency-side finding leaked:\n%s", out)
	}
}
