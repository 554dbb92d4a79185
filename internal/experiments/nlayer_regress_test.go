package experiments

import "testing"

// Pinned 3-layer outputs, first captured on the commit immediately before
// the N-layer generalization and re-captured once when pels.Source became
// the simulator's driver of session.Session (EXPERIMENTS.md gives both).
// The contract is that the classic green/yellow/red configuration stays
// bit-exact: same event counts, same SHA-256 over the full observability
// CSV, same figure-7 metrics.
const (
	pinnedChaosFingerprint = "ef23bbd911b8899bb13de9931a11222fdc65f820e3be02d504efeeabc882522e"
	pinnedChaosEvents      = 206621
)

// TestChaosFingerprintPinnedAcrossLayerRefactor runs the full chaos
// testbed (fault plans, gateway swap, every control loop live) and
// compares the observability CSV hash against the pre-refactor pin.
func TestChaosFingerprintPinnedAcrossLayerRefactor(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run in -short mode")
	}
	res, err := ChaosTestbed(DefaultChaosTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != pinnedChaosEvents {
		t.Errorf("chaos event count = %d, want pinned %d", res.Events, pinnedChaosEvents)
	}
	if res.Fingerprint != pinnedChaosFingerprint {
		t.Errorf("chaos fingerprint diverged from pre-refactor pin:\ngot  %s\nwant %s",
			res.Fingerprint, pinnedChaosFingerprint)
	}
}

// TestFigure7MetricsPinnedAcrossLayerRefactor pins the figure-7 scaling
// runs (4 and 8 flows, 120 s) to their pinned values. Floats are
// compared exactly: the 3-layer code path must execute the identical
// sequence of operations.
func TestFigure7MetricsPinnedAcrossLayerRefactor(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-7 runs in -short mode")
	}
	pinned := map[int]struct {
		measured, gammaTail, redLossTail float64
		events                           uint64
	}{
		4: {0.07486933133020765, 0.10125854957975215, 0.7834088850171943, 1151290},
		8: {0.13702943068291495, 0.1836864617754172, 0.7866786072898807, 1170476},
	}
	runs, err := Figure7(DefaultFigure7Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		want, ok := pinned[run.NumFlows]
		if !ok {
			t.Errorf("unexpected flow count %d in figure-7 runs", run.NumFlows)
			continue
		}
		//pelsvet:allow floateq
		if run.MeasuredLoss != want.measured {
			t.Errorf("n=%d MeasuredLoss = %.17g, want pinned %.17g", run.NumFlows, run.MeasuredLoss, want.measured)
		}
		//pelsvet:allow floateq
		if run.GammaTail != want.gammaTail {
			t.Errorf("n=%d GammaTail = %.17g, want pinned %.17g", run.NumFlows, run.GammaTail, want.gammaTail)
		}
		//pelsvet:allow floateq
		if run.RedLossTail != want.redLossTail {
			t.Errorf("n=%d RedLossTail = %.17g, want pinned %.17g", run.NumFlows, run.RedLossTail, want.redLossTail)
		}
		if run.Events != want.events {
			t.Errorf("n=%d Events = %d, want pinned %d", run.NumFlows, run.Events, want.events)
		}
	}
}
