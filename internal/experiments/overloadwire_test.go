package experiments

import (
	"strings"
	"testing"
)

// TestOverloadWire checks the overload-wire rows of the claims table — a
// crowd of twice the slots sees Rejects but every receiver streams to
// completion, the server sheds layers while the table is saturated and
// restores them once the crowd drains, and the base layer stays lossless
// throughout the brownout — and that the run reports its events and the
// admission and overload lines.
func TestOverloadWire(t *testing.T) {
	checkClaims(t, "overload-wire")
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	res := runAt(t, "overload-wire", seed1(0))
	if res.Events == 0 {
		t.Error("no datagram events reported")
	}
	for _, want := range []string{"admission", "overload", "rejected", "shed", "green"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("output missing %q:\n%s", want, res.Output)
		}
	}
}

// TestOverloadWireRegistryEntry: the registry entry surfaces the drill's
// output, events, and admission metrics.
func TestOverloadWireRegistryEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	if _, ok := Lookup("overload-wire"); !ok {
		t.Fatal("missing overload-wire entry")
	}
	res := runAt(t, "overload-wire", seed1(0))
	if res.Output == "" {
		t.Error("empty output")
	}
	if res.Events == 0 {
		t.Error("no events reported")
	}
	if res.Metrics["completed"] != res.Metrics["receivers"] {
		t.Errorf("completed %v of %v receivers",
			res.Metrics["completed"], res.Metrics["receivers"])
	}
	if res.Metrics["rejected"] == 0 {
		t.Error("flash crowd produced no rejects")
	}
}
