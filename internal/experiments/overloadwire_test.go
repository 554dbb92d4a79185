package experiments

import (
	"strings"
	"sync"
	"testing"
)

// overloadWireDrill runs the flash-crowd drill once for both tests below:
// it takes seconds of wall clock.
var overloadWireDrill = sync.OnceValues(func() (OverloadWireResult, error) {
	cfg := DefaultOverloadWireConfig()
	cfg.Seed = 1
	return OverloadWire(cfg)
})

// TestOverloadWire checks the drill end to end against the overload
// contract: a crowd of 2x capacity sees Rejects but every receiver
// eventually streams to completion, the server sheds layers while the
// table is saturated and restores them once the crowd drains, and
// base-layer delivery stays lossless throughout the brownout.
func TestOverloadWire(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	res, err := overloadWireDrill()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Config.Receivers {
		t.Errorf("completed %d/%d receivers", res.Completed, res.Config.Receivers)
	}
	if res.Server.RejectedFull == 0 || res.Rejects == 0 {
		t.Errorf("no rejects despite 2x overload: server %d, swarm saw %d",
			res.Server.RejectedFull, res.Rejects)
	}
	if res.Server.Sheds == 0 {
		t.Error("occupancy never crossed the shed watermark")
	}
	if res.Server.Restores == 0 {
		t.Error("shed never restored after the crowd drained")
	}
	if res.Server.ShedLevel != 0 {
		t.Errorf("shed level still %d after unwind", res.Server.ShedLevel)
	}
	m := res.Metrics()
	if m["green_lost"] != 0 || m["green_rcvd"] == 0 {
		t.Errorf("base layer not protected during brownout: rcvd %v lost %v",
			m["green_rcvd"], m["green_lost"])
	}
	if res.Faults.Duplicated == 0 {
		t.Error("hello storm duplicated nothing; admission path untested")
	}
	out := FormatOverloadWire(res)
	for _, want := range []string{"admission", "overload", "rejected", "shed", "green"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
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
	run, err := overloadWireDrill()
	if err != nil {
		t.Fatal(err)
	}
	res := overloadWireResult(run)
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
