// Package escape implements tspu-vet's escape-analysis gate: it runs the
// compiler's own escape analysis (`go build -gcflags=-m -l`) over the
// packet-path packages, normalizes the heap-escape diagnostics into a stable
// report, and diffs that report against a committed baseline
// (ESCAPES_baseline.json, the same commit-the-expectation shape as the
// BENCH_device.json gate).
//
// The gate is the static half of the per-packet zero-allocation contract.
// The compiler decides what reaches the heap, so no hand-written allocation
// rule can drift from it. What the gate cannot see is left to the
// AllocsPerRun tests in the packet-path packages: allocations in packages
// outside its scope (the standard library among them), and a string
// conversion or concatenation of at most 32 bytes, which the compiler puts
// in a stack buffer — those tests drive names longer than that. Any escape
// not present in the baseline fails the gate, and so does a baseline entry
// the build no longer produces (a stale entry would let the escape come back
// unseen); intentional changes are recorded by regenerating the baseline
// with -update, which makes every change to the heap profile a reviewed,
// committed decision.
//
// Reports drop line and column numbers on purpose: unrelated edits move
// code, and a baseline keyed on positions would churn on every refactor.
// The key is (file, message), with a count for multiplicity, so the gate
// fires on genuinely new escapes and stays quiet under code motion.
package escape

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Escape is one normalized escape-analysis finding: every occurrence of the
// same compiler message in the same file collapses into one entry with a
// count.
type Escape struct {
	File    string `json:"file"`    // slash-separated, relative to the module root
	Message string `json:"message"` // compiler text, e.g. "moved to heap: x"
	Count   int    `json:"count"`
}

// Report is the normalized escape profile of a set of packages.
type Report struct {
	// GoVersion records the toolchain the report was produced with; escape
	// analysis results legitimately differ across compiler versions, so a
	// mismatch is surfaced as a warning when diffing.
	GoVersion string   `json:"go_version"`
	Packages  []string `json:"packages"`
	Escapes   []Escape `json:"escapes"`
}

// diagRe matches a compiler diagnostic line: path/file.go:line:col: message.
var diagRe = regexp.MustCompile(`^(\S+\.go):\d+:\d+: (.*)$`)

// heapEscape reports whether a -m message describes a heap allocation, as
// opposed to inlining notes or "does not escape" confirmations.
func heapEscape(msg string) bool {
	return strings.Contains(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap")
}

// Collect builds the escape report for patterns by running
// `go build -gcflags=-m -l` in dir (empty means the current directory).
// Inlining is disabled (-l) so the findings attribute to the function that
// wrote the allocation, not to wherever it happened to inline. The go
// command replays compiler diagnostics from the build cache, so repeated
// runs are cheap and a clean tree needs no forced rebuild.
func Collect(dir string, patterns []string) (*Report, error) {
	args := append([]string{"build", "-gcflags=-m -l"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, buildError(dir, patterns, err, out.String())
	}

	counts := map[Escape]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		m := diagRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || !heapEscape(m[2]) {
			continue
		}
		// Generic instantiation can attribute diagnostics to stdlib source
		// (absolute paths); only module files, printed relative to dir, are
		// this gate's business.
		if filepath.IsAbs(m[1]) {
			continue
		}
		key := Escape{File: filepath.ToSlash(m[1]), Message: m[2]}
		counts[key]++
	}
	rep := &Report{GoVersion: runtime.Version(), Packages: append([]string(nil), patterns...)}
	for key, n := range counts { // entries are fully sorted two lines below
		key.Count = n
		rep.Escapes = append(rep.Escapes, key)
	}
	sort.Slice(rep.Escapes, func(i, j int) bool {
		a, b := rep.Escapes[i], rep.Escapes[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Message < b.Message
	})
	sort.Strings(rep.Packages)
	return rep, nil
}

// buildError reports a failed -m build. Its output interleaves the compile
// errors with hundreds of escape diagnostics from the packages that did
// build, so the errors are taken from a plain `go build` of the same
// patterns, which prints nothing else; the -m output is the fallback if that
// build unexpectedly succeeds.
func buildError(dir string, patterns []string, err error, mOut string) error {
	cmd := exec.Command("go", append([]string{"build"}, patterns...)...)
	cmd.Dir = dir
	if plain, perr := cmd.CombinedOutput(); perr != nil {
		return fmt.Errorf("go build: %v\n%s", perr, strings.TrimSpace(string(plain)))
	}
	return fmt.Errorf("go build -gcflags=-m: %v\n%s", err, strings.TrimSpace(mOut))
}

// Load reads a baseline report from path.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &rep, nil
}

// Save writes the report to path, stably formatted for review-friendly
// diffs.
func (r *Report) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// Diff compares current against the baseline. Added lists escapes (or count
// increases) absent from the baseline; stale lists baseline entries the
// current build no longer produces, or produces fewer times. Both fail the
// gate.
func Diff(baseline, current *Report) (added, stale []string) {
	base := map[Escape]int{}
	for _, e := range baseline.Escapes {
		base[Escape{File: e.File, Message: e.Message}] = e.Count
	}
	cur := map[Escape]int{}
	for _, e := range current.Escapes {
		key := Escape{File: e.File, Message: e.Message}
		cur[key] = e.Count
		if n := base[key]; e.Count > n {
			if n == 0 {
				added = append(added, fmt.Sprintf("%s: %s (x%d)", e.File, e.Message, e.Count))
			} else {
				added = append(added, fmt.Sprintf("%s: %s (x%d, baseline x%d)", e.File, e.Message, e.Count, n))
			}
		}
	}
	for _, e := range baseline.Escapes {
		if n := cur[Escape{File: e.File, Message: e.Message}]; n < e.Count {
			stale = append(stale, fmt.Sprintf("%s: %s (x%d, baseline x%d)", e.File, e.Message, n, e.Count))
		}
	}
	sort.Strings(added)
	sort.Strings(stale)
	return added, stale
}

// Gate diffs current against baseline, writes every difference to w
// (naming baselinePath, the file baseline was read from), and reports
// whether the gate passes.
func Gate(w io.Writer, baseline, current *Report, baselinePath string) bool {
	added, stale := Diff(baseline, current)
	for _, a := range added {
		fmt.Fprintf(w, "tspu-vet -escapes: new heap escape: %s\n", a)
	}
	if len(added) > 0 {
		fmt.Fprintf(w, "tspu-vet -escapes: %d new heap escape(s) not in %s; fix them or record the decision with -update\n",
			len(added), baselinePath)
	}
	for _, s := range stale {
		fmt.Fprintf(w, "tspu-vet -escapes: stale baseline entry: %s\n", s)
	}
	if len(stale) > 0 {
		fmt.Fprintf(w, "tspu-vet -escapes: %d baseline escape(s) in %s no longer produced at the recorded count; record the removal with -update so a reintroduced escape fails the gate\n",
			len(stale), baselinePath)
	}
	return len(added) == 0 && len(stale) == 0
}
