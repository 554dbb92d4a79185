package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fgs"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/video"
)

// Figure10Run compares PELS and best-effort streaming at one congestion
// level, reproducing paper Fig. 10: per-frame PSNR of the reconstructed
// Foreman sequence under ~10% and ~19% packet loss. The paper reports
// best-effort improving base-layer PSNR by ~24%/16% while PELS improves it
// by ~60%/55%, with best-effort fluctuating by as much as 15 dB.
type Figure10Run struct {
	NumFlows     int
	TargetLoss   float64
	PELSLoss     float64 // measured feedback loss, PELS run
	BELoss       float64 // measured feedback loss, best-effort run
	Frames       int
	BasePSNR     []float64
	PELSPSNR     []float64
	BEPSNR       []float64
	BaseMean     float64
	PELSMean     float64
	BEMean       float64
	PELSImprove  float64 // percent over base-layer-only
	BEImprove    float64
	PELSSwing    float64 // max-min PSNR after warmup
	BESwing      float64
	PELSUtility  float64
	BEUtility    float64
	PELSUseful   float64 // mean useful enhancement packets per frame
	BEUseful     float64
	PELSComplete int // frames with complete base layer
	BEComplete   int
	// Events is the number of simulator events processed across the
	// PELS and best-effort runs.
	Events uint64
}

// Figure10Level selects one congestion operating point via the MKC
// equilibrium p* = Nα/(βC+Nα).
type Figure10Level struct {
	Flows int
	Alpha units.BitRate
	// FrameInterval overrides the session frame interval (0 = default).
	// Shorter intervals raise R_max, letting each flow transmit a larger
	// share of the full FGS frame at the same loss level.
	FrameInterval time.Duration
}

// Figure10Config parameterizes the comparison.
type Figure10Config struct {
	// Levels are the target loss operating points, chosen so both the
	// loss level and the per-flow share of the full FGS frame match the
	// paper's Fig. 10 regime (flows transmitting most of each frame):
	// 2 flows at α=60 kb/s give p* ≈ 10.7%, at α=120 kb/s p* ≈ 19.4%,
	// with a 350 ms frame interval so R_max ≈ 1.44 mb/s exceeds the
	// equilibrium rate. (Scaling flow count alone cannot reach 19% on the
	// paper's topology: the base layers would oversubscribe the 2 mb/s
	// PELS share outright.)
	Levels   []Figure10Level
	Duration time.Duration
	// WarmupFrames are skipped before PSNR evaluation; EvalFrames bounds
	// the number of evaluated frames (0 = all remaining).
	WarmupFrames int
	EvalFrames   int
	Seed         int64
}

// DefaultFigure10Config mirrors the paper's two loss levels.
func DefaultFigure10Config() Figure10Config {
	return Figure10Config{
		Levels: []Figure10Level{
			{Flows: 2, Alpha: 60 * units.Kbps, FrameInterval: 350 * time.Millisecond},
			{Flows: 2, Alpha: 120 * units.Kbps, FrameInterval: 350 * time.Millisecond},
		},
		Duration:     150 * time.Second,
		WarmupFrames: 60,
		EvalFrames:   200,
		Seed:         1,
	}
}

// Figure10 regenerates paper Fig. 10: for each congestion level it runs
// the full stack once with PELS queues and once with the best-effort
// bottleneck, extracts flow 0's per-frame useful-prefix statistics, and
// reconstructs PSNR through the Foreman R-D model.
func Figure10(cfg Figure10Config) ([]Figure10Run, error) {
	// Stream 2i is level i under PELS, stream 2i+1 the same level under
	// best-effort: one index space, so both levels' pairs run side by side.
	streams := make([]figure10Outcome, 2*len(cfg.Levels))
	err := fanOut(len(streams), func(i int) error {
		level, bestEffort, scheme := cfg.Levels[i/2], i%2 == 1, "PELS"
		if bestEffort {
			scheme = "best-effort"
		}
		var err error
		if streams[i], err = figure10Stream(cfg, level, bestEffort); err != nil {
			return fmt.Errorf("experiments: figure 10 %s (n=%d): %w", scheme, level.Flows, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	runs := make([]Figure10Run, len(cfg.Levels))
	for i, level := range cfg.Levels {
		runs[i] = figure10Level(cfg, level, streams[2*i], streams[2*i+1])
	}
	return runs, nil
}

// figure10Outcome is what one full-stack stream contributes to a level.
type figure10Outcome struct {
	frames []fgs.FrameResult // flow 0, post-warmup
	loss   float64           // measured feedback loss
	events uint64
}

func figure10Level(cfg Figure10Config, level Figure10Level, pels, be figure10Outcome) Figure10Run {
	n := level.Flows
	pelsFrames, beFrames := pels.frames, be.frames
	count := len(pelsFrames)
	if len(beFrames) < count {
		count = len(beFrames)
	}
	if cfg.EvalFrames > 0 && count > cfg.EvalFrames {
		count = cfg.EvalFrames
	}
	pelsFrames, beFrames = pelsFrames[:count], beFrames[:count]

	tcfg := figure10Testbed(cfg, level, false)
	scfg := tcfg.Session.WithDefaults()
	spec := scfg.Frame
	trace := video.ForemanTrace(300) // canonical period; indexed by frame number
	model := video.DefaultRDModel()
	model.MaxEnhBytes = spec.MaxEnhBytes()

	run := Figure10Run{
		NumFlows:   n,
		TargetLoss: scfg.MKC.StationaryLoss(tcfg.PELSCapacity(), n),
		PELSLoss:   pels.loss,
		BELoss:     be.loss,
		Frames:     count,
		Events:     pels.events + be.events,
	}

	run.BasePSNR = basePSNRCurve(trace, pelsFrames)
	run.PELSPSNR, run.PELSUseful, run.PELSComplete = framePSNR(trace, model, spec, pelsFrames)
	run.BEPSNR, run.BEUseful, run.BEComplete = framePSNR(trace, model, spec, beFrames)

	run.BaseMean = stats.Mean(run.BasePSNR)
	run.PELSMean = stats.Mean(run.PELSPSNR)
	run.BEMean = stats.Mean(run.BEPSNR)
	run.PELSImprove = improvementVsBase(run.BasePSNR, run.PELSPSNR)
	run.BEImprove = improvementVsBase(run.BasePSNR, run.BEPSNR)
	run.PELSSwing = swing(run.PELSPSNR)
	run.BESwing = swing(run.BEPSNR)
	run.PELSUtility = fgs.Aggregate(pelsFrames).MeanUtility
	run.BEUtility = fgs.Aggregate(beFrames).MeanUtility
	return run
}

func figure10Testbed(cfg Figure10Config, level Figure10Level, bestEffort bool) TestbedConfig {
	tcfg := DefaultTestbedConfig()
	tcfg.Seed = cfg.Seed
	tcfg.BestEffort = bestEffort
	level.apply(&tcfg)
	return tcfg
}

// apply sets the level's flow count, frame interval and α.
func (level Figure10Level) apply(tcfg *TestbedConfig) {
	tcfg.NumPELS = level.Flows
	if level.FrameInterval > 0 {
		tcfg.Session.FrameInterval = level.FrameInterval
	}
	if level.Alpha > 0 {
		mkc := tcfg.Session.WithDefaults().MKC
		mkc.Alpha = level.Alpha
		tcfg.Session.MKC = mkc
	}
}

// figure10Stream runs one full-stack simulation.
func figure10Stream(cfg Figure10Config, level Figure10Level, bestEffort bool) (figure10Outcome, error) {
	tb, err := runTestbed(figure10Testbed(cfg, level, bestEffort), cfg.Duration, false)
	if err != nil {
		return figure10Outcome{}, err
	}
	return figure10Outcome{evalFrames(tb, cfg.WarmupFrames), tb.MeasuredPELSLoss(cfg.Duration / 2), tb.Eng.Processed()}, nil
}

// evalFrames is flow 0's frames past the first warmup ones, less the last,
// which the end of the run may cut off.
func evalFrames(tb *Testbed, warmup int) []fgs.FrameResult {
	frames := tb.Sinks[0].Frames()
	if len(frames) > warmup {
		frames = frames[warmup:]
	}
	if len(frames) > 1 {
		frames = frames[:len(frames)-1]
	}
	return frames
}

// framePSNR reconstructs per-frame PSNR, indexing the trace by each
// frame's actual number so the curve aligns with what the source (and an
// R-D-aware scaler) saw — not by position in the post-warmup slice.
func framePSNR(trace *video.Trace, model video.RDModel, spec fgs.FrameSpec, frames []fgs.FrameResult) ([]float64, float64, int) {
	psnr := make([]float64, len(frames))
	var meanUseful float64
	nComplete := 0
	for i, f := range frames {
		tf := trace.Frame(f.Frame)
		if !f.BaseComplete {
			psnr[i] = model.ConcealmentPSNR
		} else {
			c := tf.Complexity
			if c < 1 {
				c = 1
			}
			psnr[i] = tf.BasePSNR + model.Gain(f.UsefulBytes(spec.PacketSize))/c
			nComplete++
		}
		meanUseful += float64(f.UsefulEnh)
	}
	if len(frames) > 0 {
		meanUseful /= float64(len(frames))
	}
	return psnr, meanUseful, nComplete
}

// improvementVsBase returns the mean relative PSNR improvement in percent
// of psnr over the aligned base-layer-only curve.
func improvementVsBase(base, psnr []float64) float64 {
	n := len(base)
	if len(psnr) < n {
		n = len(psnr)
	}
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		if base[i] > 0 {
			sum += (psnr[i] - base[i]) / base[i] * 100
		}
	}
	return sum / float64(n)
}

// basePSNRCurve is the base-layer-only quality for the same frame numbers.
func basePSNRCurve(trace *video.Trace, frames []fgs.FrameResult) []float64 {
	out := make([]float64, len(frames))
	for i, f := range frames {
		out[i] = trace.Frame(f.Frame).BasePSNR
	}
	return out
}

func swing(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	min, max := vs[0], vs[0]
	for _, v := range vs {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// FormatFigure10 summarizes both loss levels.
func FormatFigure10(runs []Figure10Run) string {
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "flows=%d target p*=%.3f (measured: pels=%.3f be=%.3f), %d frames\n",
			r.NumFlows, r.TargetLoss, r.PELSLoss, r.BELoss, r.Frames)
		fmt.Fprintf(&b, "  base-only: %.2f dB\n", r.BaseMean)
		fmt.Fprintf(&b, "  best-effort: %.2f dB (+%.1f%%), swing %.1f dB, utility %.3f, useful %.1f pkts/frame\n",
			r.BEMean, r.BEImprove, r.BESwing, r.BEUtility, r.BEUseful)
		fmt.Fprintf(&b, "  PELS:        %.2f dB (+%.1f%%), swing %.1f dB, utility %.3f, useful %.1f pkts/frame\n",
			r.PELSMean, r.PELSImprove, r.PELSSwing, r.PELSUtility, r.PELSUseful)
	}
	return b.String()
}

func figure10At(g geometry) (Result, error) {
	cfg := DefaultFigure10Config()
	cfg.Seed, cfg.Duration = g.seed, g.or(cfg.Duration)
	runs, err := Figure10(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{Output: FormatFigure10(runs), Metrics: make(map[string]float64)}
	for i, r := range runs {
		res.Events += r.Events
		res.Artifacts = append(res.Artifacts, Artifact{
			Name:   fmt.Sprintf("fig10_n%d.csv", r.NumFlows),
			Series: psnrSeries(r),
		})
		l := fmt.Sprintf("level%d.", i)
		for k, v := range map[string]float64{
			"target_loss": r.TargetLoss, "pels_loss": r.PELSLoss, "be_loss": r.BELoss, "frames": float64(r.Frames),
			"base_psnr": r.BaseMean, "pels_psnr": r.PELSMean, "be_psnr": r.BEMean,
			"pels_gain_pct": r.PELSImprove, "be_gain_pct": r.BEImprove, "pels_swing_db": r.PELSSwing, "be_swing_db": r.BESwing,
			"pels_utility": r.PELSUtility, "be_utility": r.BEUtility, "pels_useful": r.PELSUseful, "be_useful": r.BEUseful,
			"pels_complete": float64(r.PELSComplete), "be_complete": float64(r.BEComplete),
		} {
			res.Metrics[l+k] = v
		}
	}
	return res, nil
}

// psnrSeries converts a Figure10Run's per-frame PSNR arrays into series
// indexed by frame number (stored in the time column as frame count).
func psnrSeries(r Figure10Run) []*stats.TimeSeries {
	base := stats.NewTimeSeries("base_psnr")
	be := stats.NewTimeSeries("besteffort_psnr")
	pels := stats.NewTimeSeries("pels_psnr")
	for i := range r.BasePSNR {
		base.Add(time.Duration(i)*time.Second, r.BasePSNR[i])
	}
	for i := range r.BEPSNR {
		be.Add(time.Duration(i)*time.Second, r.BEPSNR[i])
	}
	for i := range r.PELSPSNR {
		pels.Add(time.Duration(i)*time.Second, r.PELSPSNR[i])
	}
	return []*stats.TimeSeries{base, be, pels}
}
