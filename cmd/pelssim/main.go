// Command pelssim runs one configurable bar-bell PELS simulation (the
// paper's Fig. 6 topology) and reports per-flow rates, per-color loss and
// delay, utility, and reconstructed video quality. With -csv DIR the
// underlying time series are exported for plotting.
//
// Examples:
//
//	pelssim -flows 4 -duration 120s
//	pelssim -flows 2 -besteffort -duration 60s
//	pelssim -flows 8 -bottleneck 4000 -pelsshare 0.5 -csv out/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/pels"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/video"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pelssim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		flows      = flag.Int("flows", 2, "number of PELS video flows")
		tcpFlows   = flag.Int("tcp", 2, "number of TCP cross-traffic flows")
		duration   = flag.Duration("duration", 60*time.Second, "simulated duration")
		bottleneck = flag.Float64("bottleneck", 4000, "bottleneck capacity in kb/s")
		pelsShare  = flag.Float64("pelsshare", 0.5, "WRR share of the bottleneck for PELS traffic")
		alpha      = flag.Float64("alpha", 20, "MKC additive gain alpha in kb/s")
		beta       = flag.Float64("beta", 0.5, "MKC multiplicative gain beta")
		sigma      = flag.Float64("sigma", 0.5, "gamma controller gain sigma")
		pthr       = flag.Float64("pthr", 0.75, "target red packet loss p_thr")
		interval   = flag.Duration("T", 30*time.Millisecond, "router feedback interval T")
		frameIvl   = flag.Duration("frame", 500*time.Millisecond, "video frame interval")
		bestEffort = flag.Bool("besteffort", false, "run the best-effort baseline instead of PELS")
		seed       = flag.Int64("seed", 1, "simulation seed")
		csvDir     = flag.String("csv", "", "directory for CSV time series")
		scenario   = flag.String("scenario", "", "JSON scenario file (overrides the other flags)")
	)
	flag.Parse()

	if *scenario != "" {
		return runScenario(*scenario, *csvDir)
	}

	cfg := experiments.DefaultTestbedConfig()
	cfg.Seed = *seed
	cfg.NumPELS = *flows
	cfg.NumTCP = *tcpFlows
	cfg.BottleneckRate = units.BitRate(*bottleneck) * units.Kbps
	cfg.Bottleneck.PELSWeight = *pelsShare
	cfg.Bottleneck.InternetWeight = 1 - *pelsShare
	cfg.FeedbackInterval = *interval
	cfg.BestEffort = *bestEffort
	cfg.Session.FrameInterval = *frameIvl

	mkc := cfg.Session.WithDefaults().MKC
	mkc.Alpha = units.BitRate(*alpha) * units.Kbps
	mkc.Beta = *beta
	cfg.Session.MKC = mkc
	gamma := fgs.DefaultGammaConfig()
	gamma.Sigma = *sigma
	gamma.PThr = *pthr
	cfg.Session.Gamma = gamma

	return execute(cfg, *duration, *csvDir)
}

// runScenario loads a JSON scenario and executes it.
func runScenario(path, csvDir string) error {
	s, err := experiments.LoadScenarioFile(path)
	if err != nil {
		return err
	}
	cfg, err := s.TestbedConfig()
	if err != nil {
		return err
	}
	if s.Name != "" {
		fmt.Printf("scenario: %s\n", s.Name)
	}
	return execute(cfg, s.RunDuration(), csvDir)
}

// execute runs one testbed and prints the full report.
func execute(cfg experiments.TestbedConfig, duration time.Duration, csvDir string) error {
	tb, err := experiments.NewTestbed(cfg)
	if err != nil {
		return err
	}
	tb.RecordDelays()

	// Playout analyzers: frames must decode by start + 2 frame intervals.
	effective := cfg.Session.WithDefaults()
	playouts := make([]*pels.Playout, len(tb.Sinks))
	for i, sink := range tb.Sinks {
		pl, err := pels.NewPlayout(effective.Frame, 2*effective.FrameInterval, effective.FrameInterval)
		if err != nil {
			return err
		}
		playouts[i] = pl
		sink.OnPacket = pl.Observe
	}
	fmt.Printf("topology: bottleneck %v (PELS share %v), %d PELS + %d TCP flows, mode %s\n",
		cfg.BottleneckRate, cfg.PELSCapacity(), cfg.NumPELS, cfg.NumTCP, modeName(cfg.BestEffort))
	effMKC := cfg.Session.WithDefaults().MKC
	fmt.Printf("predicted equilibrium: rate %v/flow, loss %.4f\n",
		effMKC.StationaryRate(cfg.PELSCapacity(), cfg.NumPELS),
		effMKC.StationaryLoss(cfg.PELSCapacity(), cfg.NumPELS))

	if err := tb.Run(duration); err != nil {
		return err
	}

	warm := duration / 2
	fmt.Printf("\nafter %v (statistics over the second half):\n", duration)
	fmt.Printf("  feedback loss: %.4f\n", tb.MeasuredPELSLoss(warm))
	for i, rs := range tb.RateSeries {
		fmt.Printf("  flow %d: rate %.1f kb/s", i, rs.MeanAfter(warm))
		if !cfg.BestEffort {
			fmt.Printf(", gamma %.3f", tb.GammaSeries[i].Last())
		}
		fmt.Println()
	}
	if tb.PELSQueues != nil {
		for _, c := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
			cnt := tb.PELSQueues.PELS.ColorCounters(c)
			fmt.Printf("  %s queue: arrived %d, dropped %d (%.2f%%)\n",
				c, cnt.Arrived, cnt.Dropped, 100*cnt.LossRate())
		}
		fmt.Printf("  delays: green %.1f ms, yellow %.1f ms, red %.1f ms\n",
			tb.GreenDelay.Mean(), tb.YellowDelay.Mean(), tb.RedDelay.Mean())
	} else {
		v := tb.BEQueues.Video
		fmt.Printf("  video queue: arrived %d, dropped %d (%.2f%%)\n",
			v.Arrived, v.Dropped, 100*v.LossRate())
	}

	fmt.Println("\nper-flow video quality:")
	spec := cfg.Session.WithDefaults().Frame
	model := video.DefaultRDModel()
	model.MaxEnhBytes = spec.MaxEnhBytes()
	for i, sink := range tb.Sinks {
		st := sink.Stats()
		frames := sink.Frames()
		useful := make([]int, len(frames))
		complete := make([]bool, len(frames))
		for j, f := range frames {
			useful[j] = f.UsefulBytes(spec.PacketSize)
			complete[j] = f.BaseComplete
		}
		trace := video.ForemanTrace(len(frames))
		psnr := video.SequencePSNR(trace, model, useful, complete)
		fmt.Printf("  flow %d: %d frames, base complete %d, utility %.3f, mean PSNR %.2f dB (+%.1f%% over base)\n",
			i, st.Frames, st.BaseComplete, st.MeanUtility, stats.Mean(psnr), video.ImprovementPercent(trace, psnr))
	}

	fmt.Println("\nplayout deadlines (start + 2 frame intervals):")
	for i, pl := range playouts {
		onTime := pl.OnTimeStats()
		fmt.Printf("  flow %d: %d late packets (%v), on-time utility %.3f\n",
			i, pl.LatePackets(), lateSummary(pl), onTime.MeanUtility)
	}

	fmt.Printf("\nbottleneck utilization: %.3f\n", tb.Forward.Utilization(duration))
	tcpBytes := int64(0)
	for _, r := range tb.TCPReceivers {
		tcpBytes += r.BytesDelivered()
	}
	if len(tb.TCPReceivers) > 0 {
		fmt.Printf("tcp cross-traffic goodput: %v\n", units.RateFromBytes(tcpBytes, duration))
	}

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
		series := []*stats.TimeSeries{tb.FeedbackLoss, tb.FeedbackRate, tb.GreenDelay, tb.YellowDelay, tb.RedDelay, tb.RedLossSeries}
		series = append(series, tb.RateSeries...)
		series = append(series, tb.GammaSeries...)
		path := filepath.Join(csvDir, "pelssim.csv")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := stats.WriteCSV(f, series...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		fmt.Printf("time series written to %s\n", path)
	}
	return nil
}

// lateSummary renders per-color late-packet counts compactly.
func lateSummary(pl *pels.Playout) string {
	late := pl.LateByColor()
	parts := make([]string, 0, len(late))
	for _, c := range []packet.Color{packet.Green, packet.Yellow, packet.Red, packet.BestEffort} {
		if n := late[c]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

func modeName(bestEffort bool) string {
	if bestEffort {
		return "best-effort"
	}
	return "pels"
}
