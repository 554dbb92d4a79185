package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// TestChaosTestbedReconvergence is the acceptance test of the fault
// subsystem: a full fault schedule (burst loss, link flap, feedback
// starvation, corruption, reverse-path reordering and duplication) plus a
// gateway swap mid-stream, after which the senders must reconverge to
// within 10% of their pre-fault aggregate rate with zero green-layer
// drops, and every fault kind must have bitten, or the run proves
// nothing. The rows are the chaos-testbed rows of the claims table.
func TestChaosTestbedReconvergence(t *testing.T) { checkClaims(t, "chaos-testbed") }

// TestChaosTestbedDeterministic runs the same chaos scenario twice from
// the same seed and requires bit-identical observability output — the
// determinism contract of the fault subsystem.
func TestChaosTestbedDeterministic(t *testing.T) {
	e, _ := Lookup("chaos-testbed")
	run := func(seed int64) (string, uint64) {
		res, err := e.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		return obsFingerprint(t, res), res.Events
	}
	a, aEvents := run(1)
	b, bEvents := run(1)
	if a != b {
		t.Fatalf("same-seed runs diverged: %s vs %s", a, b)
	}
	if aEvents != bEvents {
		t.Fatalf("same-seed runs processed different event counts: %d vs %d", aEvents, bEvents)
	}
	// A different seed must take a different trajectory, or the injector
	// is not actually seeded.
	if c, _ := run(2); c == a {
		t.Fatal("different seeds produced identical runs")
	}
}

// obsFingerprint is the SHA-256 over a run's observability CSV: equal
// fingerprints mean bit-identical runs.
func obsFingerprint(t *testing.T, res Result) string {
	t.Helper()
	h := sha256.New()
	if err := res.Obs.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestChaosWireSmoke streams live through the faulted emulator with the
// gateway swap. Wall-clock timing makes exact numbers unstable, so the
// assertions are structural: the stream completes, the sender notices
// the router change, and data keeps flowing.
func TestChaosWireSmoke(t *testing.T) {
	cfg := DefaultChaosWireConfig()
	if testing.Short() {
		// Shrink to ~1.5s: keep the burst-loss episode and the swap,
		// drop the long link flap whose window falls past the end.
		cfg.Frames = 150
		cfg.SwapAfter = time.Second
		cfg.Forward.Events = cfg.Forward.Events[:1]
		cfg.Reverse.Events = nil
	}
	res, err := WireLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receiver.Datagrams == 0 {
		t.Fatal("receiver saw no datagrams")
	}
	if res.Sender.RouterChanges < 1 {
		t.Fatalf("sender never observed the gateway swap: %+v", res.Sender)
	}
	if res.Forward.Offered == 0 {
		t.Fatal("forward injector saw no traffic")
	}
}
