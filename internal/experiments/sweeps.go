package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/pels"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/video"
)

// The experiments that are a testbed plus its tail metrics. Their claims
// are rows of the claims table; DESIGN.md §6 and EXPERIMENTS.md say what
// each one shows.

// figure7Sweep regenerates both panels of paper Fig. 7 — the evolution of
// γ (left) and the red loss rate (right) — at the paper's two loss levels,
// ≈7 % and ≈14 %, which the default testbed reaches with 4 and 8 PELS
// flows. γ(sim) is flow 0's γ over the final quarter of the run, against
// γ* = p*/p_thr at the eq. (10) loss p* = Nα/(βC+Nα); redloss is the red
// queue's per-interval loss over the second half, against p_thr.
var figure7Sweep = func() sweep {
	pthr := func(tb *Testbed) float64 { return tb.Cfg.Session.WithDefaults().Gamma.PThr }
	predicted := func(tb *Testbed) float64 {
		return tb.Cfg.Session.WithDefaults().MKC.StationaryLoss(tb.Cfg.PELSCapacity(), tb.Cfg.NumPELS)
	}
	s := sweep{
		dur: 120 * time.Second, label: "%-8s", labelName: "flows",
		cols: []column{
			{"loss(sim)", "%-12.4f", func(tb *Testbed, _ int) float64 { return tb.MeasuredPELSLoss(tb.Eng.Now() / 2) }},
			{"loss(model)", "%-12.4f", func(tb *Testbed, _ int) float64 { return predicted(tb) }},
			{"gamma(sim)", "%-12.4f", func(tb *Testbed, _ int) float64 { return tb.GammaSeries[0].MeanAfter(tb.Eng.Now() * 3 / 4) }},
			{"gamma*", "%-12.4f", func(tb *Testbed, _ int) float64 { return analysis.GammaFixedPoint(predicted(tb), pthr(tb)) }},
			{"redloss", "%-12.4f", func(tb *Testbed, _ int) float64 { return tb.RedLossSeries.MeanAfter(tb.Eng.Now() / 2) }},
			{"p_thr", "%-8.2f", func(tb *Testbed, _ int) float64 { return pthr(tb) }},
			// γ starts at 0.5 and must dip to γ_low before congestion.
			{"gamma_min", "", func(tb *Testbed, _ int) float64 {
				least := math.Inf(1)
				for it := tb.GammaSeries[0].Iter(0, tb.GammaSeries[0].Len()); it.Next(); {
					least = min(least, it.Sample().Value)
				}
				return least
			}},
			{"events", "", func(tb *Testbed, _ int) float64 { return float64(tb.Eng.Processed()) }},
			{"green_lost", "", greenLost},
		},
		trace: func(tb *Testbed) Artifact {
			return Artifact{fmt.Sprintf("fig7_n%d.csv", tb.Cfg.NumPELS), []*stats.TimeSeries{tb.GammaSeries[0], tb.RedLossSeries}}
		},
	}
	for i, n := range []int{4, 8} {
		s.runs = append(s.runs, tweak{fmt.Sprintf("n%d", n), func(tc *TestbedConfig) { tc.NumPELS = n }})
		s.rows = append(s.rows, row{key: fmt.Sprintf("n%d", n), label: fmt.Sprint(n), run: i})
	}
	return s
}()

// ablationSweep runs the design-choice variants of DESIGN.md §6 at the
// 4-flow (≈7 % loss) operating point where every mechanism is active:
// FIFO colours (best-effort), no epoch deduplication, γ pinned below and
// above γ*, γ over the enhancement share only, green-only feedback, two
// priorities (QBSS-like, §2.1: no red probes) and AIMD in place of MKC.
// For the FIFO variant both losses are the video queue's.
var ablationSweep = sweep{
	dur: 90 * time.Second, pels: 4, label: "%-22s", labelName: "variant",
	runs: []tweak{
		{"baseline", func(*TestbedConfig) {}},
		{"fifo", func(tc *TestbedConfig) { tc.BestEffort = true }},
		{"no-dedup", func(tc *TestbedConfig) {
			mkc := tc.Session.WithDefaults().MKC
			mkc.DedupEpochs = false
			tc.Session.MKC = mkc
		}},
		{"fixed-gamma-low", func(tc *TestbedConfig) { tc.Session.Gamma = fixedGamma(0.03) }},
		{"fixed-gamma-high", func(tc *TestbedConfig) { tc.Session.Gamma = fixedGamma(0.4) }},
		{"gamma-enh-share", func(tc *TestbedConfig) { tc.Session.RedShare = fgs.RedShareEnhancement }},
		{"green-only-feedback", func(tc *TestbedConfig) { tc.GreenOnlyFeedback = true }},
		{"two-priority", func(tc *TestbedConfig) { tc.Session.Gamma = fixedGamma(0) }},
		{"aimd-controller", func(tc *TestbedConfig) { tc.Session.ControllerFactory, _ = controllerFactory("aimd") }},
	},
	cols: []column{
		{"utility", "%-10.3f", tailUtility},
		{"yellowloss", "%-12.4f", yellowLoss},
		{"redloss", "%-10.3f", redLoss},
		{"rate(kb/s)", "%-12.1f", rateMean},
		{"rate-stddev", "%-12.1f", rateStdDev},
	},
}

// fixedGamma pins γ at g.
func fixedGamma(g float64) fgs.GammaConfig {
	return fgs.GammaConfig{Sigma: 0, PThr: 0.75, Initial: g, Min: g, Max: g, Clamp: true, AllowUnstable: true}
}

// controllerSweep runs the PELS stack once under every congestion
// controller of ccTable: the paper's §5 claim is that PELS works with any
// of them, so utility must hold while rate smoothness differs.
var controllerSweep = sweep{
	dur: 90 * time.Second, pels: 4, label: "%-8s", labelName: "cc",
	runs: controllerRuns(),
	cols: []column{
		{"utility", "%-10.3f", tailUtility},
		{"rate(kb/s)", "%-12.1f", rateMean},
		{"rate-stddev", "%-12.1f", rateStdDev},
		{"yellowloss", "%-12.4f", yellowLoss},
	},
}

func controllerRuns() []tweak {
	runs := make([]tweak, len(ccTable))
	for i, c := range ccTable {
		runs[i] = tweak{c.name, func(tc *TestbedConfig) { tc.Session.ControllerFactory = c.mk }}
	}
	return runs
}

// utilizationSweep backs the paper's §1 goal of high useful link
// utilization: of the video bytes crossing the bottleneck, the share the
// decoders can use (complete base layers plus useful prefixes). Random
// loss spends most of the budget on undecodable enhancement bytes; PELS
// wastes only the red probes it sacrifices on purpose.
var utilizationSweep = sweep{
	dur: 90 * time.Second, pels: 4, label: "%-14s", labelName: "scheme",
	runs: []tweak{
		{"pels", func(*TestbedConfig) {}},
		{"best-effort", func(tc *TestbedConfig) { tc.BestEffort = true }},
	},
	cols: []column{
		{"transmitted", "%-14.0f", func(tb *Testbed, _ int) float64 { return float64(tb.VideoBytesTransmitted) }},
		{"delivered", "%-14.0f", func(tb *Testbed, _ int) float64 { return float64(deliveredBytes(tb)) }},
		{"useful", "%-14.0f", func(tb *Testbed, _ int) float64 { return float64(usefulBytes(tb)) }},
		{"deliv/tx", "%-10.3f", func(tb *Testbed, _ int) float64 { return perTransmitted(tb, deliveredBytes(tb)) }},
		{"useful/tx", "%-10.3f", func(tb *Testbed, _ int) float64 { return perTransmitted(tb, usefulBytes(tb)) }},
	},
}

func deliveredBytes(tb *Testbed) (n int64) {
	for _, sink := range tb.Sinks {
		n += sink.BytesReceived()
	}
	return n
}

func usefulBytes(tb *Testbed) (n int64) {
	spec := tb.Cfg.Session.WithDefaults().Frame
	for _, sink := range tb.Sinks {
		for _, f := range sink.Frames() {
			if f.BaseComplete {
				n += int64(spec.BaseBytes())
			}
			n += int64(f.UsefulBytes(spec.PacketSize))
		}
	}
	return n
}

func perTransmitted(tb *Testbed, n int64) float64 {
	if tb.VideoBytesTransmitted <= 0 {
		return 0
	}
	return float64(n) / float64(tb.VideoBytesTransmitted)
}

// UtilizationConfig selects the seed of the utilization experiment.
type UtilizationConfig struct {
	Seed int64
}

// DefaultUtilizationConfig runs at seed 1.
func DefaultUtilizationConfig() UtilizationConfig { return UtilizationConfig{Seed: 1} }

// UtilizationResult is one scheme's useful link utilization.
type UtilizationResult struct {
	Scheme            string
	UsefulUtilization float64
}

// Utilization measures useful link utilization for PELS and best-effort:
// the utilization entry's runs, without its text.
func Utilization(cfg UtilizationConfig) ([]UtilizationResult, error) {
	_, vals, _, err := utilizationSweep.measure(geometry{seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	out := make([]UtilizationResult, len(vals))
	for i, t := range utilizationSweep.runs { // useful/tx is the last column
		out[i] = UtilizationResult{t.key, vals[i][len(utilizationSweep.cols)-1]}
	}
	return out, nil
}

// isolationSweep backs the paper's §6.1 claim that "the PELS and Internet
// queues do not affect each other in any way": more PELS flows must leave
// TCP goodput at the Internet WRR share, and more TCP flows must leave the
// PELS aggregate at its share. The other side holds 2 flows, so the 2 + 2
// point is one run that both sweeps print.
var isolationSweep = func() sweep {
	s := sweep{
		dur: 60 * time.Second, label: "%s",
		head: []column{
			{"pels_share_kbps", "WRR shares: PELS %.0f kb/s,", func(tb *Testbed, _ int) float64 {
				return tb.Cfg.PELSCapacity().KbpsValue()
			}},
			{"internet_share_kbps", "Internet %.0f kb/s", func(tb *Testbed, _ int) float64 {
				return float64(tb.Cfg.BottleneckRate)/1000 - tb.Cfg.PELSCapacity().KbpsValue()
			}},
		},
		cols: []column{
			{"tcp_kbps", "tcp=%.0f kb/s", func(tb *Testbed, _ int) float64 {
				var n int64
				for _, r := range tb.TCPReceivers {
					n += r.BytesDelivered()
				}
				return units.RateFromBytes(n, tb.Eng.Now()).KbpsValue()
			}},
			// Arrivals at the bottleneck over the second half.
			{"pels_kbps", " pels=%.0f kb/s", func(tb *Testbed, _ int) float64 {
				return tb.FeedbackRate.MeanAfter(tb.Eng.Now() / 2)
			}},
		},
	}
	for _, side := range []struct{ name, label, section string }{
		{"pels", "  %d PELS flows:", "PELS-load sweep (TCP goodput must hold at its share):"},
		{"tcp", "  %d TCP flows: ", "TCP-load sweep (PELS throughput must hold at its share):"},
	} {
		for i, n := range []int{1, 2, 4, 8} {
			nPELS, nTCP := n, 2
			if side.name == "tcp" {
				nPELS, nTCP = 2, n
			}
			key := fmt.Sprintf("%s%d", side.name, n)
			rw := row{key: key, label: fmt.Sprintf(side.label, n), run: len(s.runs)}
			if side.name == "tcp" && n == 2 {
				rw.run = 1 // pels2's run
			} else {
				s.runs = append(s.runs, tweak{key, func(tc *TestbedConfig) { tc.NumPELS, tc.NumTCP = nPELS, nTCP }})
			}
			if i == 0 {
				rw.section = side.section
			}
			s.rows = append(s.rows, rw)
		}
	}
	return s
}()

// rttFairnessSweep backs Lemma 6's corollary: "unlike AIMD or TCP, MKC
// does not penalize flows with higher RTT". Flows with a 20× spread of
// one-way access delay must converge to the same eq. (10) rate.
var rttFairnessSweep = func() sweep {
	delays := []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond}
	s := sweep{
		dur: 90 * time.Second, label: "%s",
		runs: []tweak{{"rtt", func(tc *TestbedConfig) { tc.NumPELS, tc.AccessDelays = len(delays), delays }}},
		head: []column{
			{"fair_rate_kbps", "fair stationary rate (eq. 10): %.0f kb/s,", fairRate},
			{"jain", "Jain index %.4f", func(tb *Testbed, _ int) float64 {
				rates := make([]float64, len(tb.RateSeries))
				for i := range rates {
					rates[i] = rateMean(tb, i)
				}
				return jain(rates)
			}},
		},
		cols: []column{{"rate_kbps", "rate %.0f kb/s", rateMean}},
	}
	for i, d := range delays {
		s.rows = append(s.rows, row{key: fmt.Sprintf("f%d", i), label: fmt.Sprintf("  flow %d: access delay %-6v", i, d), flow: i})
	}
	return s
}()

// jain computes Jain's fairness index (Σx)² / (n·Σx²).
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// mixedSweep puts MKC and AIMD flows (two each) on the same PELS queues, a
// question the paper leaves open. MKC's equilibrium keeps the feedback
// loss positive, and AIMD halves on every positive-loss interval, so AIMD
// collapses to the base layer while MKC takes the bandwidth it frees; the
// PELS guarantee (utility ≈ 1 for every flow) must hold regardless.
var mixedSweep = func() sweep {
	names := []string{"mkc", "mkc", "aimd", "aimd"}
	s := sweep{
		dur: 90 * time.Second, label: "%-15s", labelName: "flow   cc",
		runs: []tweak{{"mixed", func(tc *TestbedConfig) {
			tc.NumPELS = len(names)
			tc.SessionTweaks = make([]func(*pels.Config), len(names))
			for i, name := range names {
				mk, _ := controllerFactory(name)
				tc.SessionTweaks[i] = func(sc *pels.Config) { sc.ControllerFactory = mk }
			}
		}}},
		head: []column{{"fair_rate_kbps", "homogeneous fair rate (eq. 10): %.0f kb/s", fairRate}},
		cols: []column{
			{"rate(kb/s)", "%-12.0f", rateMean},
			{"utility", "%-10.3f", tailUtility},
		},
	}
	for i, name := range names {
		s.rows = append(s.rows, row{key: fmt.Sprintf("f%d", i), label: fmt.Sprintf("%-6d %s", i, name), flow: i})
	}
	return s
}()

// rdScalingSweep compares the paper's constant rate scaling (x_i =
// r·interval) with the complexity-aware R-D scaling its §6.5 points to
// ("quality fluctuation ... can be further reduced using sophisticated R-D
// scaling methods [5]") at Fig. 10's ≈10 % loss level: the R-D-aware
// source gives complex frames more bytes, flattening PSNR at the same
// rate. Both curves are Fig. 10's evaluation window of flow 0, so they
// cover the same frames exactly when their "frames" match.
var rdScalingSweep = func() sweep {
	trace := video.ForemanTrace(300)
	level := figure10Levels[0]
	psnr := func(tb *Testbed) []float64 {
		frames := evalFrames(tb)
		frames = frames[:min(len(frames), figure10Frames)]
		spec := tb.Cfg.Session.WithDefaults().Frame
		model := video.DefaultRDModel()
		model.MaxEnhBytes = spec.MaxEnhBytes()
		p, _, _ := framePSNR(trace, model, spec, frames)
		return p
	}
	return sweep{
		dur: 150 * time.Second, label: "%-18s", labelName: "scaler",
		runs: []tweak{
			{"constant", level.apply},
			{"rd-aware", func(tc *TestbedConfig) {
				level.apply(tc)
				tc.Session.NewScaler = func() fgs.Scaler {
					return fgs.NewRDScaler(func(frame int) float64 { return trace.Frame(frame).Complexity })
				}
			}},
		},
		rows: []row{{key: "constant", label: "constant (paper)"}, {key: "rd-aware", label: "rd-aware [5]", run: 1}},
		cols: []column{
			{"mean PSNR", "%-12.2f", func(tb *Testbed, _ int) float64 { return stats.Mean(psnr(tb)) }},
			{"stddev", "%-12.2f", func(tb *Testbed, _ int) float64 { return stats.StdDev(psnr(tb)) }},
			{"swing", "%-12.1f", func(tb *Testbed, _ int) float64 { return swing(psnr(tb)) }},
			{"rate(kb/s)", "%-12.0f", rateMean},
			{"frames", "", func(tb *Testbed, _ int) float64 { return float64(len(psnr(tb))) }},
		},
	}
}()

// The columns several sweeps share. Tail means are over the second half
// of the run, tail utility over the second half of a flow's frames.

func tailUtility(tb *Testbed, flow int) float64 {
	frames := tb.Sinks[flow].Frames()
	if len(frames) > 20 {
		frames = frames[len(frames)/2:]
	}
	return fgs.Aggregate(frames).MeanUtility
}

func rateMean(tb *Testbed, flow int) float64 {
	return tb.RateSeries[flow].MeanAfter(tb.Eng.Now() / 2)
}

func rateStdDev(tb *Testbed, flow int) float64 {
	return stats.StdDev(tb.RateSeries[flow].ValuesAfter(tb.Eng.Now() / 2))
}

func fairRate(tb *Testbed, _ int) float64 { return tb.StationaryRate().KbpsValue() }

// greenLost sums the base-layer datagrams every receiver counted lost.
func greenLost(tb *Testbed, _ int) (n float64) {
	for _, sink := range tb.Sinks {
		n += float64(sink.Received().Colors[packet.Green].Lost)
	}
	return n
}

// yellowLoss and redLoss are the bottleneck's loss rates per colour; a
// best-effort run has one video queue, whose loss both report.
func yellowLoss(tb *Testbed, _ int) float64 { return colorLoss(tb, packet.Yellow) }

func redLoss(tb *Testbed, _ int) float64 { return colorLoss(tb, packet.Red) }

func colorLoss(tb *Testbed, c packet.Color) float64 {
	if tb.PELSQueues == nil {
		return tb.BEQueues.Video.LossRate()
	}
	counters := tb.PELSQueues.PELS.ColorCounters(c)
	return counters.LossRate()
}
