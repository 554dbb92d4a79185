// MKC fairness: reproduce the dynamics of paper Fig. 9 (right) and compare
// Max-min Kelly Control against AIMD.
//
// Flow F1 starts alone and exponentially claims the whole PELS capacity;
// F2 joins at t=10 s and both converge — without oscillation — to the fair
// share r* = C/N + α/β (paper eq. 10, Lemma 6). The same scenario is then
// repeated with AIMD sources to show the sawtooth the paper calls
// "unacceptable" for video.
//
// Run with: go run ./examples/mkc-fairness
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/experiments"
	"repro/internal/packet"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mkc-fairness:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("=== MKC (paper Fig. 9 right) ===")
	res, err := experiments.Figure9(experiments.DefaultFigure9Config())
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure9(res))
	fmt.Println("\nrate evolution (kb/s, sampled every 2s):")
	printRates(res.Rates, 40*time.Second)

	fmt.Println("\n=== the same feedback driving AIMD ===")
	aimdSawtooth()
	return nil
}

func printRates(rates []*stats.TimeSeries, duration time.Duration) {
	fmt.Printf("%6s", "t(s)")
	for i := range rates {
		fmt.Printf("%10s", fmt.Sprintf("F%d", i+1))
	}
	fmt.Println()
	for at := time.Duration(0); at <= duration; at += 2 * time.Second {
		fmt.Printf("%6.0f", at.Seconds())
		for _, rs := range rates {
			v := valueAt(rs, at)
			if v < 0 {
				fmt.Printf("%10s", "-")
			} else {
				fmt.Printf("%10.0f", v)
			}
		}
		fmt.Println()
	}
}

// valueAt returns the most recent sample at or before t, or -1.
func valueAt(ts *stats.TimeSeries, t time.Duration) float64 {
	if i := ts.Search(t + 1); i > 0 {
		return ts.Sample(i - 1).Value
	}
	return -1
}

// aimdSawtooth drives MKC and AIMD controllers against the same analytic
// single-bottleneck feedback and prints their tail behaviour.
func aimdSawtooth() {
	const capacity = 2000.0 // kb/s
	mkc := cc.NewMKC(cc.DefaultMKCConfig())
	aimd := cc.NewAIMD(cc.DefaultAIMDConfig())
	run := func(name string, ctrl cc.Controller) {
		var tail []float64
		for k := uint64(1); k <= 400; k++ {
			r := ctrl.Rate().KbpsValue()
			loss := (r - capacity) / r
			ctrl.OnFeedback(packet.Feedback{RouterID: 1, Epoch: k, Loss: loss, Valid: true})
			if k > 300 {
				tail = append(tail, ctrl.Rate().KbpsValue())
			}
		}
		fmt.Printf("  %-5s tail: mean %7.1f kb/s, stddev %6.1f, min %7.1f, max %7.1f\n",
			name, stats.Mean(tail), stats.StdDev(tail), stats.Percentile(tail, 0), stats.Percentile(tail, 100))
	}
	run("MKC", mkc)
	run("AIMD", aimd)
	fmt.Println("\nMKC sits at a single stationary point; AIMD oscillates forever —")
	fmt.Println("which is why the paper pairs PELS with Kelly controls for video.")
}
