package experiments

import (
	"strings"
	"sync"
	"testing"
)

// wireLoopbackDrill streams a shortened live session through the emulator
// once for both tests below: it runs on the wall clock.
var wireLoopbackDrill = sync.OnceValues(func() (WireLoopbackResult, error) {
	cfg := DefaultWireLoopbackConfig()
	cfg.Frames = 120 // ~1.2 s: enough to converge past the MKC ramp
	cfg.Seed = 1
	return WireLoopback(cfg)
})

// TestWireLoopback checks the structured outcome of the drill: green
// survives, the bottleneck engaged, and the metrics map carries the
// per-color view pelsbench -json surfaces.
func TestWireLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	res, err := wireLoopbackDrill()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if m["green_lost"] != 0 || m["green_rcvd"] == 0 {
		t.Errorf("green not protected: rcvd %v lost %v", m["green_rcvd"], m["green_lost"])
	}
	if m["red_lost"] == 0 {
		t.Error("no red loss: the bottleneck never engaged")
	}
	if m["goodput_bps"] < 0.5*m["capacity_bps"] || m["goodput_bps"] > 1.1*m["capacity_bps"] {
		t.Errorf("goodput %v bps implausible against capacity %v bps",
			m["goodput_bps"], m["capacity_bps"])
	}
	if res.Datagrams() == 0 {
		t.Error("no datagram events reported")
	}
	for _, key := range []string{"gamma", "rate_bps", "frames", "yellow_loss", "overflow_drops"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	out := FormatWireLoopback(res)
	for _, want := range []string{"goodput", "green", "yellow", "red", "gamma"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
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
	run, err := wireLoopbackDrill()
	if err != nil {
		t.Fatal(err)
	}
	res := wireLoopbackResult(run)
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
