package experiments

import (
	"strings"
	"testing"
)

// TestWireLoopback checks the wire-loopback rows of the claims table
// (green survives, the bottleneck engaged, goodput near capacity) and
// that the run reports its events, the metrics pelsbench -json surfaces
// and the per-colour table.
func TestWireLoopback(t *testing.T) {
	checkClaims(t, "wire-loopback")
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	res := runAt(t, "wire-loopback", seed1(0))
	if res.Events == 0 {
		t.Error("no datagram events reported")
	}
	for _, key := range []string{"gamma", "rate_bps", "frames", "yellow_loss", "overflow_drops"} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	for _, want := range []string{"goodput", "green", "yellow", "red", "gamma"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("output missing %q:\n%s", want, res.Output)
		}
	}
}

// TestWireLoopbackRegistryEntry: the registry entry wires Output, Events,
// and Metrics of the drill through to the runner.
func TestWireLoopbackRegistryEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	if _, ok := Lookup("wire-loopback"); !ok {
		t.Fatal("missing wire-loopback entry")
	}
	res := runAt(t, "wire-loopback", seed1(0))
	if res.Output == "" {
		t.Error("empty output")
	}
	if res.Events == 0 {
		t.Error("no events reported")
	}
	if len(res.Metrics) == 0 {
		t.Error("no metrics reported")
	}
	if res.Metrics["green_lost"] != 0 {
		t.Errorf("green loss %v, want 0", res.Metrics["green_lost"])
	}
}
