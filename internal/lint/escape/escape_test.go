package escape_test

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tspusim/internal/lint/escape"
)

func report(escapes ...escape.Escape) *escape.Report {
	return &escape.Report{GoVersion: "go1.x", Packages: []string{"./p"}, Escapes: escapes}
}

// The gate's core promise: a heap escape absent from the baseline is
// reported, a count increase of a known escape is reported, and code motion
// (same escapes, any order) is not.
func TestDiffFlagsNewEscape(t *testing.T) {
	baseline := report(
		escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 1},
	)
	current := report(
		escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 1},
		escape.Escape{File: "p/a.go", Message: "&entry{} escapes to heap", Count: 2},
	)
	added, stale := escape.Diff(baseline, current)
	if len(added) != 1 || len(stale) != 0 {
		t.Fatalf("added=%v stale=%v, want exactly one added", added, stale)
	}
	if want := "p/a.go: &entry{} escapes to heap (x2)"; added[0] != want {
		t.Errorf("added[0] = %q, want %q", added[0], want)
	}

	grown := report(
		escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 3},
	)
	added, _ = escape.Diff(baseline, grown)
	if len(added) != 1 {
		t.Fatalf("count increase not flagged: %v", added)
	}
}

func TestDiffCleanAndRemoved(t *testing.T) {
	baseline := report(
		escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 1},
		escape.Escape{File: "p/b.go", Message: "leaks param: q", Count: 1},
	)
	added, stale := escape.Diff(baseline, baseline)
	if len(added) != 0 || len(stale) != 0 {
		t.Fatalf("identical reports must diff clean, got added=%v stale=%v", added, stale)
	}
	if !escape.Gate(io.Discard, baseline, baseline, "base.json") {
		t.Error("identical reports failed the gate")
	}

	shrunk := report(
		escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 1},
	)
	added, stale = escape.Diff(baseline, shrunk)
	if want := []string{"p/b.go: leaks param: q (x0, baseline x1)"}; len(added) != 0 || !slices.Equal(stale, want) {
		t.Fatalf("removed escape: added=%v stale=%v, want stale=%v", added, stale, want)
	}
}

// A baseline entry the build no longer produces, or produces fewer times,
// fails the gate with the -update hint: left in place, it would let the
// escape come back without anyone seeing it.
func TestGateFailsOnStaleEntries(t *testing.T) {
	baseline := report(
		escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 3},
		escape.Escape{File: "p/b.go", Message: "leaks param: q", Count: 1},
	)
	for _, tc := range []struct {
		name    string
		current *escape.Report
		want    string
	}{
		{"removed", report(
			escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 3},
		), "stale baseline entry: p/b.go: leaks param: q (x0, baseline x1)"},
		{"decreased", report(
			escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 2},
			escape.Escape{File: "p/b.go", Message: "leaks param: q", Count: 1},
		), "stale baseline entry: p/a.go: moved to heap: x (x2, baseline x3)"},
	} {
		var out strings.Builder
		if escape.Gate(&out, baseline, tc.current, "base.json") {
			t.Errorf("%s: gate passed, want failure", tc.name)
		}
		if !strings.Contains(out.String(), tc.want) || !strings.Contains(out.String(), "-update") {
			t.Errorf("%s: gate output %q, want %q and the -update hint", tc.name, out.String(), tc.want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rep := report(
		escape.Escape{File: "p/a.go", Message: "moved to heap: x", Count: 2},
	)
	path := filepath.Join(t.TempDir(), "ESCAPES_baseline.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := escape.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != rep.GoVersion || len(got.Escapes) != 1 || got.Escapes[0] != rep.Escapes[0] {
		t.Errorf("round trip mismatch: %+v vs %+v", got, rep)
	}
}

// Collect runs the real compiler over a synthetic module containing one
// unmistakable heap escape and one function that must not escape, pinning
// both the parse of -m output and the normalization.
func TestCollectSyntheticModule(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module synthescape\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "p", "p.go"), `package p

func Leak() *int {
	x := 42
	return &x
}

func Stays() int {
	y := 7
	return y
}
`)
	rep, err := escape.Collect(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range rep.Escapes {
		if e.File == "p/p.go" && e.Message == "moved to heap: x" && e.Count == 1 {
			found = true
		}
		if e.Message == "moved to heap: y" {
			t.Errorf("non-escaping local reported: %+v", e)
		}
	}
	if !found {
		t.Errorf("escape of x not collected; report: %+v", rep.Escapes)
	}

	// The synthetic-new-escape negative test against a live Collect run: a
	// baseline recorded before the escape was written must fail the gate.
	baseline := &escape.Report{GoVersion: rep.GoVersion, Packages: rep.Packages}
	if escape.Gate(io.Discard, baseline, rep, "base.json") {
		t.Error("gate did not fail on a new escape against an empty baseline")
	}
}

// A module that does not compile fails Collect with the compiler's error
// up front, not buried in the escape diagnostics of the packages that did
// compile.
func TestCollectReportsCompileErrorFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module brokenescape\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "ok", "ok.go"), `package ok

func Leak() *int {
	x := 42
	return &x
}
`)
	writeFile(t, filepath.Join(dir, "bad", "bad.go"), `package bad

func Unused() {
	z := 1
}
`)
	_, err := escape.Collect(dir, []string{"./..."})
	if err == nil {
		t.Fatal("Collect succeeded on a module that does not compile")
	}
	lines := strings.SplitN(err.Error(), "\n", 4)
	if head := strings.Join(lines[:min(len(lines), 3)], "\n"); !strings.Contains(head, "declared and not used") {
		t.Errorf("first lines of the error do not name the compile error:\n%s", err)
	}
	if strings.Contains(err.Error(), "moved to heap") {
		t.Errorf("error carries escape diagnostics:\n%s", err)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
