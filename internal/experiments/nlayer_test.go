package experiments

import (
	"maps"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestNLayerLadder checks the 8-layer ladder's claim rows (the base
// layer is lossless, the top probe layer carries the congestion, there
// is congestion at all, and layer 1 carries packets) and that per-layer observability is present: an
// occupancy series per layer in the artifact, loss, delay and occupancy
// per layer in the metrics and counters in the obs registry.
func TestNLayerLadder(t *testing.T) {
	checkClaims(t, "nlayer-testbed")
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	res := runAt(t, "nlayer-testbed", seed1(0))
	if res.Output == "" {
		t.Error("empty output")
	}
	if res.Events == 0 {
		t.Error("no events reported")
	}
	if len(res.Artifacts) != 1 || len(res.Artifacts[0].Series) != 8 {
		t.Fatalf("want 1 artifact with 8 occupancy series, got %+v", res.Artifacts)
	}
	for i := 0; i < 8; i++ {
		name := packet.LayerName(i)
		for _, suffix := range []string{"_loss", "_mean_delay_ms", "_mean_occupancy"} {
			if _, ok := res.Metrics[name+suffix]; !ok {
				t.Errorf("metric %s%s missing", name, suffix)
			}
		}
	}
	if res.Obs == nil {
		t.Fatal("no obs registry attached")
	}
	snap := res.Obs.Snapshot()
	for i := 0; i < 8; i++ {
		name := packet.LayerName(i)
		for _, metric := range []string{"queue." + name + ".loss_rate", "queue." + name + ".occupancy_pkts.n"} {
			if _, ok := snap[metric]; !ok {
				t.Errorf("obs metric %q missing", metric)
			}
		}
	}
}

// TestNLayerDeterministic pins determinism at a short duration: same seed,
// same bytes out.
func TestNLayerDeterministic(t *testing.T) {
	e, _ := Lookup("nlayer-testbed")
	run := func() Result {
		res, err := e.at(seed1(5 * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a.Output != b.Output || !maps.Equal(a.Metrics, b.Metrics) {
		t.Errorf("nlayer not deterministic:\n%s\nvs\n%s", a.Output, b.Output)
	}
}
