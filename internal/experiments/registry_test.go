package experiments

import (
	"strings"
	"testing"
)

// TestRegistryWellFormed: names are unique and non-empty, every entry
// has a title and a run function, and Lookup/Names agree with Registry.
func TestRegistryWellFormed(t *testing.T) {
	reg := Registry()
	if len(reg) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name == "" || e.Title == "" || e.at == nil {
			t.Errorf("malformed entry: %+v", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate name %q", e.Name)
		}
		seen[e.Name] = true
		if strings.TrimSpace(e.Name) != e.Name || strings.Contains(e.Name, ",") {
			t.Errorf("name %q not usable in a comma-separated -only list", e.Name)
		}
		got, ok := Lookup(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) failed", e.Name)
		}
	}
	names := Names()
	if len(names) != len(reg) {
		t.Fatalf("Names() has %d entries, registry %d", len(names), len(reg))
	}
	for i, n := range names {
		if n != reg[i].Name {
			t.Errorf("Names()[%d] = %q, registry order has %q", i, n, reg[i].Name)
		}
	}
}

// TestLookupUnknown: unknown names must not resolve.
func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("fig4"); ok {
		t.Error("Lookup accepted unknown name fig4")
	}
	if _, ok := Lookup(""); ok {
		t.Error("Lookup accepted empty name")
	}
}

// TestRegistryEntryDeterminism: an entry run twice at the same seed
// produces byte-identical output — the property the parallel runner
// relies on. Uses cheap closed-form experiments to stay fast.
func TestRegistryEntryDeterminism(t *testing.T) {
	for _, name := range []string{"table1", "fig2", "fig3", "fig5"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing entry %q", name)
		}
		a, err := e.Run(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := e.Run(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Output != b.Output {
			t.Errorf("%s: output not deterministic at fixed seed", name)
		}
		if a.Output == "" {
			t.Errorf("%s: empty output", name)
		}
	}
}

// TestRegistryFullStackEntry runs one full-stack entry end to end and
// checks the structured fields the runner reports.
func TestRegistryFullStackEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	e, ok := Lookup("fig7")
	if !ok {
		t.Fatal("missing fig7 entry")
	}
	res, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == "" {
		t.Error("fig7: empty output")
	}
	if res.Events == 0 {
		t.Error("fig7: no events reported")
	}
	if len(res.Artifacts) != 2 {
		t.Errorf("fig7: got %d artifacts, want 2", len(res.Artifacts))
	}
	for _, a := range res.Artifacts {
		if a.Name == "" || len(a.Series) == 0 {
			t.Errorf("fig7: malformed artifact %+v", a)
		}
	}
}
