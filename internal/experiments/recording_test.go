package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestDelayRecorderOnlyWhenAttached: a testbed records per-packet delays
// and γ histories only once RecordTraces is called. Without it no
// "*_delay_ms" or "gamma_f*" series is registered and LayerDelay and
// GammaSeries stay nil. With it every layer's series holds one sample per
// packet that left that layer's queue (OnTransmit fires at the dequeue, so
// the counts match exactly), and each flow's γ series has exactly the
// sample times of its rate series: in PELS mode an accepted feedback adds
// one sample to each.
func TestDelayRecorderOnlyWhenAttached(t *testing.T) {
	for _, layers := range []int{2, 3, 5} {
		for _, record := range []bool{false, true} {
			cfg := DefaultTestbedConfig()
			cfg.NumPELS = 4
			if layers != 3 {
				cfg.Bottleneck.Priority = queue.NLayerPriorityConfig(layers)
			}
			tb, err := NewTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if record {
				tb.RecordTraces()
			}
			if err := tb.Run(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			var delayNames, gammaNames []string
			for _, name := range tb.Obs.SeriesNames() {
				if strings.HasSuffix(name, "_delay_ms") {
					delayNames = append(delayNames, name)
				}
				if strings.HasPrefix(name, "gamma_f") {
					gammaNames = append(gammaNames, name)
				}
			}
			if !record {
				if tb.LayerDelay != nil || tb.GreenDelay != nil || tb.YellowDelay != nil || tb.RedDelay != nil {
					t.Errorf("%d layers, no recorder: delay series are set", layers)
				}
				if tb.GammaSeries != nil {
					t.Errorf("%d layers, no recorder: GammaSeries is set", layers)
				}
				if len(delayNames) > 0 || len(gammaNames) > 0 {
					t.Errorf("%d layers, no recorder: registry holds %v %v", layers, delayNames, gammaNames)
				}
				continue
			}
			if len(tb.GammaSeries) != cfg.NumPELS || len(gammaNames) != cfg.NumPELS {
				t.Fatalf("%d layers: %d GammaSeries, %d registered (%v)", layers, len(tb.GammaSeries), len(gammaNames), gammaNames)
			}
			for i, gs := range tb.GammaSeries {
				if gs != tb.Obs.Series(fmt.Sprintf("gamma_f%d", i)).TimeSeries() {
					t.Errorf("%d layers: GammaSeries[%d] is not the registry's gamma_f%d", layers, i, i)
				}
				rs := tb.RateSeries[i]
				if gs.Len() != rs.Len() || gs.Len() == 0 {
					t.Fatalf("%d layers: flow %d has %d γ samples and %d rate samples", layers, i, gs.Len(), rs.Len())
				}
				for g, r := gs.Iter(0, gs.Len()), rs.Iter(0, rs.Len()); g.Next() && r.Next(); {
					if g.Sample().At != r.Sample().At {
						t.Fatalf("%d layers: flow %d γ sample at %v, rate sample at %v", layers, i, g.Sample().At, r.Sample().At)
					}
				}
			}
			if len(tb.LayerDelay) != layers || len(delayNames) != layers {
				t.Fatalf("%d layers: %d LayerDelay series, %d registered (%v)", layers, len(tb.LayerDelay), len(delayNames), delayNames)
			}
			if tb.GreenDelay != tb.LayerDelay[0] || tb.YellowDelay != tb.LayerDelay[1] || tb.RedDelay != tb.LayerDelay[min(2, layers-1)] {
				t.Errorf("%d layers: Green/Yellow/RedDelay do not alias layers 0, 1, %d", layers, min(2, layers-1))
			}
			for l, ts := range tb.LayerDelay {
				dq := tb.PELSQueues.PELS.Layer(l).Counters.Dequeued
				if int64(ts.Len()) != dq {
					t.Errorf("%d layers: layer %d has %d delay samples, %d packets dequeued", layers, l, ts.Len(), dq)
				}
				if l == 0 && dq == 0 {
					t.Errorf("%d layers: no green packet crossed the bottleneck", layers)
				}
			}
		}
	}
}

// simOnlyEntries are the registry entries that run on the simulator alone;
// the others run the live stack on the wall clock and print different
// bytes from run to run.
var (
	simOnlyEntries = []string{
		"table1", "fig2", "fig3", "fig5", "fig7", "fig8", "fig9", "fig10",
		"ablations", "multibottleneck", "utilization", "isolation", "controllers",
		"rttfairness", "mixed", "chaos-testbed", "nlayer-testbed", "rdscaling",
	}
	wallClockEntries = []string{"wire-loopback", "chaos-wire", "overload-wire"}
)

const simOutputsGolden = "testdata/sim_outputs_seed3.txt"

// TestSimulatorRegistryOutputsPinned runs every simulator-only registry
// entry at seed 3 and compares one SHA-256 per entry — over its event
// count, its printed output, every artifact CSV and its obs CSV — with the
// golden file, one "name sha256" line per entry, so a diff names the entry
// that moved. Regenerate with -update after a change meant to move them.
func TestSimulatorRegistryOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("every simulator experiment in -short mode")
	}
	for _, name := range Names() {
		if !slices.Contains(simOnlyEntries, name) && !slices.Contains(wallClockEntries, name) {
			t.Errorf("registry entry %q is in neither simOnlyEntries nor wallClockEntries", name)
		}
	}
	got := make(map[string]string, len(simOnlyEntries))
	var golden strings.Builder
	for _, name := range simOnlyEntries {
		entry, ok := Lookup(name)
		if !ok {
			t.Fatalf("registry has no entry %q", name)
		}
		res, err := entry.Run(3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = resultHash(t, res)
		fmt.Fprintf(&golden, "%s %s\n", name, got[name])
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(simOutputsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simOutputsGolden, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(simOutputsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		want[name] = sum
	}
	for _, name := range simOnlyEntries {
		if got[name] != want[name] {
			t.Errorf("%s: sha256 %s, golden %q", name, got[name], want[name])
		}
	}
	if len(want) != len(simOnlyEntries) {
		t.Errorf("golden has %d entries, want %d", len(want), len(simOnlyEntries))
	}
}

// resultHash is the SHA-256 over everything an entry publishes.
func resultHash(t *testing.T, res Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "events %d\n%s", res.Events, res.Output)
	for _, a := range res.Artifacts {
		fmt.Fprintf(h, "artifact %s\n", a.Name)
		if err := stats.WriteCSV(h, a.Series...); err != nil {
			t.Fatal(err)
		}
	}
	if res.Obs != nil {
		fmt.Fprintf(h, "obs\n")
		if err := res.Obs.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
