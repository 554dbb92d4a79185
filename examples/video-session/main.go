// Video session: a full adaptive streaming session with dynamics.
//
// Four PELS flows share the paper's bar-bell bottleneck with TCP cross
// traffic. Mid-session, four more flows join (halving everyone's fair
// share) and later leave again. The example tracks how flow 0's rate, γ,
// and delivered video quality adapt through the transitions — the
// day-to-day behaviour a streaming deployment of PELS would exhibit.
//
// Run with: go run ./examples/video-session
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/video"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "video-session:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := experiments.DefaultTestbedConfig()
	cfg.NumPELS = 8
	// Flows 0-3 stream the whole session; flows 4-7 join at t=60 s.
	cfg.StartTimes = []time.Duration{0, 0, 0, 0,
		60 * time.Second, 60 * time.Second, 60 * time.Second, 60 * time.Second}
	tb, err := experiments.NewTestbed(cfg)
	if err != nil {
		return err
	}
	// Flow 0's γ history is printed below; only recorded traces keep one.
	tb.RecordTraces()

	// Stop the late joiners at t=120 s, then keep running to t=180 s.
	for i := 4; i < 8; i++ {
		src := tb.Sources[i]
		tb.Eng.At(120*time.Second, src.Stop)
	}
	const duration = 180 * time.Second
	if err := tb.Run(duration); err != nil {
		return err
	}

	scfg := cfg.Session.WithDefaults()
	fmt.Println("adaptive session: 4 flows, +4 at t=60s, -4 at t=120s (flow 0 shown)")
	fmt.Printf("fair share: %v with 4 flows, %v with 8\n\n",
		scfg.MKC.StationaryRate(cfg.PELSCapacity(), 4),
		scfg.MKC.StationaryRate(cfg.PELSCapacity(), 8))

	fmt.Printf("%8s %12s %10s %14s\n", "t(s)", "rate(kb/s)", "gamma", "phase")
	for at := 10 * time.Second; at <= duration; at += 10 * time.Second {
		phase := "4 flows"
		if at > 60*time.Second && at <= 120*time.Second {
			phase = "8 flows"
		} else if at > 120*time.Second {
			phase = "4 flows again"
		}
		fmt.Printf("%8.0f %12.0f %10.3f %14s\n",
			at.Seconds(), lastBefore(tb.RateSeries[0], at), lastBefore(tb.GammaSeries[0], at), phase)
	}

	// Reconstruct flow 0's video through the Foreman R-D model.
	sink := tb.Sinks[0]
	frames := sink.Frames()
	if len(frames) > 1 {
		frames = frames[:len(frames)-1]
	}
	spec := scfg.Frame
	useful := make([]int, len(frames))
	complete := make([]bool, len(frames))
	for i, f := range frames {
		useful[i] = f.UsefulBytes(spec.PacketSize)
		complete[i] = f.BaseComplete
	}
	trace := video.ForemanTrace(len(frames))
	model := video.DefaultRDModel()
	model.MaxEnhBytes = spec.MaxEnhBytes()
	psnr := video.SequencePSNR(trace, model, useful, complete)

	third := len(psnr) / 3
	fmt.Printf("\nflow 0 video quality by phase:\n")
	fmt.Printf("  4 flows:       %.2f dB mean PSNR\n", mean(psnr[:third]))
	fmt.Printf("  8 flows:       %.2f dB (lower share → thinner enhancement)\n", mean(psnr[third:2*third]))
	fmt.Printf("  4 flows again: %.2f dB (rate reclaimed)\n", mean(psnr[2*third:]))
	st := sink.Stats()
	fmt.Printf("\nutility stayed at %.3f across every transition — the γ controller\n", st.MeanUtility)
	fmt.Println("re-aims the red probes at each new loss level so yellow data survives.")
	return nil
}

// lastBefore returns the most recent sample at or before at, or 0.
func lastBefore(ts *stats.TimeSeries, at time.Duration) float64 {
	if i := ts.Search(at + 1); i > 0 {
		return ts.Sample(i - 1).Value
	}
	return 0
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
