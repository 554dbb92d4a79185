package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunnerPartialDiagnostics is the regression test for the
// one-broken-package-hides-all-findings bug: Runner.Run must return the
// diagnostics from healthy packages alongside the broken package's error,
// and skip the whole-module checks when it has one.
func TestRunnerPartialDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module brokentest\n\ngo 1.22\n")
	// sim is in walltime's deterministic package set: one guaranteed
	// finding from a healthy package.
	write("sim/sim.go", `package sim

import "time"

func Now() time.Time { return time.Now() }
`)
	// bad parses but fails to type-check: the load error for this package
	// must not suppress sim's diagnostic.
	write("bad/bad.go", `package bad

func f() { undefined() }
`)
	// Nothing uses Unused: deadexport would flag it if it ran.
	write("internal/dead/dead.go", `package dead

func Unused() {}
`)

	for _, analyzers := range [][]*Analyzer{{WallTime}, {WallTime, DeadExport}} {
		diags, err := (&Runner{Analyzers: analyzers}).Run(dir, "./...")
		if err == nil {
			t.Fatalf("want a load error for package bad, got nil (diags: %v)", diags)
		}
		if !strings.Contains(err.Error(), "bad") {
			t.Errorf("error does not mention the broken package: %v", err)
		}
		// The whole-module check is skipped: a broken package's
		// references are missing, so its findings would be suspect.
		if len(diags) != 1 {
			t.Fatalf("want 1 partial diagnostic from package sim, got %d: %v", len(diags), diags)
		}
		d := diags[0]
		if d.Analyzer != "walltime" || !strings.Contains(d.Message, "time.Now") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestRunnerOutsideModule: a pattern naming a package outside the module
// is an error, not a silent pass.
func TestRunnerOutsideModule(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	_, err := (&Runner{Analyzers: []*Analyzer{WallTime}}).Run(".", "fmt")
	if err == nil || !strings.Contains(err.Error(), "fmt is not in the module") {
		t.Fatalf("want an error naming fmt, got %v", err)
	}
}
