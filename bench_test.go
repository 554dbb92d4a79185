package repro_test

// One benchmark per simulator-only registry entry: every table and figure
// of the paper's evaluation (§6) and the extensions, each run end to end
// through the entry pelsbench runs, with its Result.Metrics reported as
// custom metrics. So
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation and doubles as a performance harness
// for the simulator itself. Metrics come from the first iteration (seed
// 1): the last one's seed is b.N, which changes with -benchtime.

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// BenchmarkRegistry runs every entry that runs on the simulator alone;
// the live-stack entries, the ones named after the wire, run on the wall
// clock and belong to bench/.
func BenchmarkRegistry(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	for _, e := range experiments.Registry() {
		if strings.Contains(e.Name, "wire") {
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			var first experiments.Result
			for i := 0; i < b.N; i++ {
				res, err := e.Run(int64(i + 1))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					first = res
				}
			}
			b.ReportMetric(float64(first.Events), "events/run")
			keys := make([]string, 0, len(first.Metrics))
			for k := range first.Metrics {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				// A unit may not hold whitespace.
				b.ReportMetric(first.Metrics[k], strings.ReplaceAll(k, " ", "_"))
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator performance: events
// per second pushing the paper's default scenario through the engine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	var firstRun float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultTestbedConfig()
		cfg.Seed = int64(i + 1)
		tb, err := experiments.NewTestbed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.Run(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			firstRun = float64(tb.Eng.Processed())
		}
	}
	b.ReportMetric(firstRun, "events/run")
}
