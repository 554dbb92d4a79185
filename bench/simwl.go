package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/experiments"
	"repro/internal/fgs"
	"repro/internal/queue"
	"repro/internal/stats"
	"repro/internal/units"
)

// The simulator workloads do a fixed amount of simulated work per run —
// sized so it takes about -seconds on the reference machine — rather than
// running until a wall-clock deadline: the same events in every run are
// what make events/s comparable between two commits and let a fingerprint
// over the simulated outcomes prove a speed-up changed none of them.

// simRun is what one simulator workload yields.
type simRun struct {
	setupS float64
	usage
	events    uint64
	delivered float64
	utility   float64
	// unitMs is wall ms per unit of service (simulated second, or pass over
	// the figures), grouped by window slice where the window has slices.
	unitMs  [][]float64
	peakRSS float64
	// Per timed block of the window, when the workload has blocks: events
	// per wall second and CPU ns per event. Their medians are reported, so
	// a burst of interference from the host costs the blocks it hits and
	// not the run.
	blockRate, blockCPU []float64

	packets     int64 // bottleneck packets transmitted in the window (barbell)
	fingerprint string

	attempted, failed int64
	notes             []string
}

func (s *simRun) fail(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

func (s *simRun) endToEndMetrics() map[string]float64 {
	cpuPerOp, opsPerS := float64(s.cpu.Nanoseconds())/float64(s.events), float64(s.events)/s.wall.Seconds()
	if len(s.blockRate) > 0 {
		cpuPerOp, opsPerS = stats.Percentile(s.blockCPU, 50), stats.Percentile(s.blockRate, 50)
	}
	return map[string]float64{
		"setup_s":        s.setupS,
		"cpu_ns_per_op":  cpuPerOp,
		"ops_per_s":      opsPerS,
		"delivered_frac": s.delivered,
		"utility":        s.utility,
		"latency_p50_ms": slicedPercentile(s.unitMs, 50),
		"latency_p90_ms": slicedPercentile(s.unitMs, 90),
		"peak_rss_mb":    s.peakRSS,
	}
}

// Bar-bell sizing. The paper's Fig. 6 topology carries 2 video flows on a
// 4 Mb/s bottleneck; here it is scaled 16x so the event mix is that of a
// loaded router: 32 PELS flows at C/N = 500 kb/s each, 8 greedy TCP flows
// on the Internet half of the link, and layer buffers scaled with the rate.
const (
	barbellPELS = 32
	barbellTCP  = 8
	// barbellWarm is the simulated time run during set-up: long enough
	// for MKC and gamma to settle, so the window measures steady state.
	barbellWarm = 20 * time.Second
	// barbellSimPerSecond is how many simulated seconds the window covers
	// per second of -seconds, fixed at what the seed commit simulates in
	// about 0.9 s of wall time on the reference machine.
	barbellSimPerSecond = 80
	// barbellBlock is the simulated time of one timed block: about 0.1 s
	// of wall time, long enough to hold its share of GC cycles.
	barbellBlock = 10 * time.Second
)

func barbellConfig(seed int64) experiments.TestbedConfig {
	cfg := experiments.DefaultTestbedConfig()
	cfg.Seed = seed
	cfg.BottleneckRate = 32 * units.Mbps
	cfg.AccessRate = 10 * units.Mbps
	cfg.NumPELS = barbellPELS
	cfg.NumTCP = barbellTCP
	cfg.Bottleneck.Priority = queue.PriorityConfig{GreenLimit: 1600, YellowLimit: 1600, RedLimit: 160}
	cfg.Bottleneck.InternetLimit = 1600
	// Flows join over the first two simulated seconds in a seed-drawn
	// order, so the seed shapes the transient the warm-up absorbs.
	rng := rand.New(rand.NewSource(seed))
	cfg.StartTimes = make([]time.Duration, barbellPELS)
	for i := range cfg.StartTimes {
		cfg.StartTimes[i] = time.Duration(rng.Int63n(int64(2 * time.Second)))
	}
	return cfg
}

// runBarbell measures one long steady-state simulation.
func runBarbell(p params) (*simRun, error) {
	run := &simRun{attempted: barbellPELS}
	tb, setupS, err := medianSetup(5,
		func() (*experiments.Testbed, error) {
			tb, err := experiments.NewTestbed(barbellConfig(p.seed))
			if err != nil {
				return nil, err
			}
			return tb, tb.Run(barbellWarm)
		},
		func(*experiments.Testbed) error { return nil },
	)
	if err != nil {
		return nil, err
	}
	run.setupS = setupS

	blocks := int(p.seconds * barbellSimPerSecond / barbellBlock.Seconds())
	if blocks < 1 {
		blocks = 1
	}
	var recv0 int64
	for _, s := range tb.Sinks {
		recv0 += s.BytesReceived()
	}
	pkts0 := tb.Forward.TransmittedPackets()
	ev0 := tb.Eng.Processed()
	t0 := takeProbe()
	prevWall, prevCPU, prevEvents := t0.wall, t0.cpu, ev0
	run.unitMs = make([][]float64, windowSlices)
	for i := 1; i <= blocks; i++ {
		if err := tb.Eng.RunUntil(barbellWarm + time.Duration(i)*barbellBlock); err != nil {
			return nil, err
		}
		wall, cpu, events := time.Now(), processCPU(), tb.Eng.Processed()
		n := float64(events - prevEvents)
		slice := (i - 1) * windowSlices / blocks
		run.unitMs[slice] = append(run.unitMs[slice], float64(wall.Sub(prevWall).Nanoseconds())/1e6/barbellBlock.Seconds())
		run.blockRate = append(run.blockRate, n/wall.Sub(prevWall).Seconds())
		run.blockCPU = append(run.blockCPU, float64((cpu-prevCPU).Nanoseconds())/n)
		prevWall, prevCPU, prevEvents = wall, cpu, events
	}
	t1 := takeProbe()
	run.usage = t1.since(t0)
	run.events = tb.Eng.Processed() - ev0
	run.packets = tb.Forward.TransmittedPackets() - pkts0
	run.peakRSS = peakRSSMB()

	var recv int64
	var frames []fgs.FrameResult
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(tb.Eng.Processed())
	for i, s := range tb.Sinks {
		recv += s.BytesReceived()
		frames = append(frames, s.Frames()...)
		word(uint64(tb.Sources[i].BytesSent()))
		word(uint64(s.BytesReceived()))
	}
	run.fingerprint = hex.EncodeToString(h.Sum(nil))
	window := time.Duration(blocks) * barbellBlock
	run.delivered = float64(recv-recv0) * 8 / (tb.Cfg.PELSCapacity().Bps() * window.Seconds())
	run.utility = fgs.Aggregate(frames).AggregateUtil

	// The simulated outcome must still be the paper's: every flow at the
	// MKC fixed point r* = C/N + alpha/beta, the base layer never dropped.
	want := tb.StationaryRate().KbpsValue()
	var mean float64
	for i, rs := range tb.RateSeries {
		got := rs.MeanAfter(barbellWarm)
		mean += got / float64(len(tb.RateSeries))
		if got < 0.9*want || got > 1.1*want {
			run.failed++
			run.fail("flow %d steady rate %.1f kb/s is not within 10%% of r* = %.1f kb/s", i, got, want)
		}
	}
	if mean < 0.95*want || mean > 1.05*want {
		run.fail("mean steady rate %.1f kb/s is not within 5%% of r* = %.1f kb/s", mean, want)
	}
	if drops := tb.PELSQueues.PELS.Layer(0).Counters.Dropped; drops > 0 {
		run.fail("%d green packets dropped at the bottleneck", drops)
	}
	return run, nil
}

// simOnly are the registry entries that run on the simulator alone (the
// wire-* and *-wire entries run on the wall clock and are the live
// workloads' business).
var simOnly = []string{
	"table1", "fig2", "fig3", "fig5", "fig7", "fig8", "fig9", "fig10",
	"ablations", "multibottleneck", "utilization", "isolation", "controllers",
	"rttfairness", "mixed", "chaos-testbed", "nlayer-testbed", "rdscaling",
}

// figuresSecondsPerPass is what one pass over simOnly takes on the
// reference machine at the seed commit; the number of passes is fixed from
// it so the work does not depend on how fast the run goes.
const figuresSecondsPerPass = 4.5

// runFigures measures the "one paper figure" unit of work: every
// simulator-only experiment, serially, each building its own engines.
func runFigures(p params, only []string) (*simRun, error) {
	run := &simRun{}
	if only == nil {
		only = simOnly
	}
	// Set-up runs the utilization experiment through its typed API: it
	// warms the heap and the code the figures share, and its PELS row is
	// the workload's utility — the share of transmitted video bytes the
	// simulated decoders could use.
	ucfg := experiments.DefaultUtilizationConfig()
	ucfg.Seed = p.seed
	rows, setupS, err := medianSetup(5,
		func() ([]experiments.UtilizationResult, error) { return experiments.Utilization(ucfg) },
		func([]experiments.UtilizationResult) error { return nil },
	)
	if err != nil {
		return nil, err
	}
	run.setupS = setupS
	for _, r := range rows {
		if r.Scheme == "pels" {
			run.utility = r.UsefulUtilization
		}
	}

	passes := int(p.seconds/figuresSecondsPerPass + 0.5)
	if passes < 1 {
		passes = 1
	}
	h := sha256.New()
	t0 := takeProbe()
	for pass := 0; pass < passes; pass++ {
		passStart := time.Now()
		for _, name := range only {
			entry, ok := experiments.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("sim-figures: registry has no entry %q", name)
			}
			run.attempted++
			res, err := entry.Run(p.seed)
			if err != nil {
				run.failed++
				run.fail("%s: %v", name, err)
				continue
			}
			run.events += res.Events
			if pass == 0 {
				fmt.Fprintf(h, "%s\n%d\n%s\n", name, res.Events, res.Output)
			}
		}
		// Too few passes to slice: one group, plain percentiles.
		if run.unitMs == nil {
			run.unitMs = make([][]float64, 1)
		}
		run.unitMs[0] = append(run.unitMs[0], float64(time.Since(passStart).Nanoseconds())/1e6)
	}
	t1 := takeProbe()
	run.usage = t1.since(t0)
	run.peakRSS = peakRSSMB()
	run.fingerprint = hex.EncodeToString(h.Sum(nil))
	run.delivered = float64(run.attempted-run.failed) / float64(run.attempted)
	if run.events == 0 {
		return nil, fmt.Errorf("sim-figures: no simulator events were processed")
	}
	return run, nil
}
