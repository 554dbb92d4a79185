package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestSimulatorLossLedgerBalances: in the default testbed the datagrams
// the receivers count lost from sequence gaps are the ones the
// bottleneck's PELS queue dropped, color by color — green and yellow
// exactly; red at most, because a red drop after a flow's last delivered
// red leaves no gap for its receiver to see. At 8 flows green is not zero:
// the flows start together and the queue drops base-layer packets in the
// first seconds, which the ledger attributes like any other drop.
func TestSimulatorLossLedgerBalances(t *testing.T) {
	for _, n := range []int{4, 8} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			cfg := DefaultTestbedConfig()
			cfg.Seed, cfg.NumPELS = 1, n
			tb, err := runTestbed(cfg, 60*time.Second, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
				var lost uint64
				for _, sink := range tb.Sinks {
					lost += sink.Received().Colors[c].Lost
				}
				dropped := uint64(tb.PELSQueues.PELS.ColorCounters(c).Dropped)
				t.Logf("%v: receivers lost %d, queue dropped %d", c, lost, dropped)
				if c == packet.Red && lost > dropped || c != packet.Red && lost != dropped {
					t.Errorf("%v: receivers lost %d, the queue dropped %d", c, lost, dropped)
				}
			}
			for i, sink := range tb.Sinks {
				if r := sink.Received().SeqRegressions; r != 0 {
					t.Errorf("flow %d: %d sequence regressions on a path that neither reorders nor duplicates", i, r)
				}
			}
		})
	}
}
