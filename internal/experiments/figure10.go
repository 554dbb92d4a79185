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

// figure10Level is one congestion operating point, selected via the MKC
// equilibrium p* = Nα/(βC+Nα): its flow count, α and frame interval.
type figure10Level struct {
	flows         int
	alpha         units.BitRate
	frameInterval time.Duration
}

// figure10Levels are Fig. 10's two loss levels, chosen so both the loss
// level and the per-flow share of the full FGS frame match the paper's
// regime (flows transmitting most of each frame): 2 flows at α = 60 kb/s
// give p* ≈ 10.7 %, at α = 120 kb/s p* ≈ 19.4 %, with a 350 ms frame
// interval so R_max ≈ 1.44 mb/s exceeds the equilibrium rate. (Scaling
// flow count alone cannot reach 19 % on the paper's topology: the base
// layers would oversubscribe the 2 mb/s PELS share outright.)
var figure10Levels = []figure10Level{
	{flows: 2, alpha: 60 * units.Kbps, frameInterval: 350 * time.Millisecond},
	{flows: 2, alpha: 120 * units.Kbps, frameInterval: 350 * time.Millisecond},
}

// figure10Warmup frames are skipped before PSNR evaluation, which then
// covers at most figure10Frames frames.
const figure10Warmup, figure10Frames = 60, 200

// apply sets the level's flow count, frame interval and α.
func (level figure10Level) apply(tcfg *TestbedConfig) {
	tcfg.NumPELS = level.flows
	tcfg.Session.FrameInterval = level.frameInterval
	mkc := tcfg.Session.WithDefaults().MKC
	mkc.Alpha = level.alpha
	tcfg.Session.MKC = mkc
}

// figure10At compares PELS and best-effort streaming at each level,
// reproducing paper Fig. 10: per-frame PSNR of the reconstructed Foreman
// sequence under ~10 % and ~19 % packet loss. The paper reports best-effort
// improving base-layer PSNR by ~24 %/16 % while PELS improves it by
// ~60 %/55 %, with best-effort fluctuating by as much as 15 dB. Each level
// runs the full stack for 150 s (unless the geometry says otherwise) once
// with PELS queues and once with the best-effort bottleneck, takes flow 0's
// per-frame useful-prefix statistics, and reconstructs PSNR through the
// Foreman R-D model.
func figure10At(g geometry) (Result, error) {
	duration := g.or(150 * time.Second)
	// Stream 2i is level i under PELS, stream 2i+1 the same level under
	// best-effort: one index space, so both levels' pairs run side by side.
	streams := make([]figure10Outcome, 2*len(figure10Levels))
	err := fanOut(len(streams), func(i int) error {
		level, bestEffort, scheme := figure10Levels[i/2], i%2 == 1, "PELS"
		if bestEffort {
			scheme = "best-effort"
		}
		var err error
		if streams[i], err = figure10Stream(g.seed, duration, level, bestEffort); err != nil {
			return fmt.Errorf("experiments: figure 10 %s (n=%d): %w", scheme, level.flows, err)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	trace := video.ForemanTrace(300) // canonical period; indexed by frame number
	res := Result{Metrics: make(map[string]float64)}
	var b strings.Builder
	for i, level := range figure10Levels {
		pels, be := streams[2*i], streams[2*i+1]
		count := min(len(pels.frames), len(be.frames), figure10Frames)
		pelsFrames, beFrames := pels.frames[:count], be.frames[:count]
		tcfg := figure10Testbed(g.seed, level, false)
		scfg := tcfg.Session.WithDefaults()
		spec := scfg.Frame
		model := video.DefaultRDModel()
		model.MaxEnhBytes = spec.MaxEnhBytes()
		base := basePSNRCurve(trace, pelsFrames)
		pelsPSNR, pelsUseful, pelsComplete := framePSNR(trace, model, spec, pelsFrames)
		bePSNR, beUseful, beComplete := framePSNR(trace, model, spec, beFrames)

		l := map[string]float64{
			"target_loss":   scfg.MKC.StationaryLoss(tcfg.PELSCapacity(), level.flows),
			"frames":        float64(count),
			"base_psnr":     stats.Mean(base),
			"pels_loss":     pels.loss,
			"pels_psnr":     stats.Mean(pelsPSNR),
			"pels_gain_pct": improvementVsBase(base, pelsPSNR),
			"pels_swing_db": swing(pelsPSNR),
			"pels_utility":  fgs.Aggregate(pelsFrames).MeanUtility,
			"pels_useful":   pelsUseful,
			"pels_complete": float64(pelsComplete),
			"be_loss":       be.loss,
			"be_psnr":       stats.Mean(bePSNR),
			"be_gain_pct":   improvementVsBase(base, bePSNR),
			"be_swing_db":   swing(bePSNR),
			"be_utility":    fgs.Aggregate(beFrames).MeanUtility,
			"be_useful":     beUseful,
			"be_complete":   float64(beComplete),
		}
		for name, v := range l {
			res.Metrics[fmt.Sprintf("level%d.%s", i, name)] = v
		}
		fmt.Fprintf(&b, "flows=%d target p*=%.3f (measured: pels=%.3f be=%.3f), %.0f frames\n",
			level.flows, l["target_loss"], l["pels_loss"], l["be_loss"], l["frames"])
		fmt.Fprintf(&b, "  base-only: %.2f dB\n", l["base_psnr"])
		fmt.Fprintf(&b, "  best-effort: %.2f dB (+%.1f%%), swing %.1f dB, utility %.3f, useful %.1f pkts/frame\n",
			l["be_psnr"], l["be_gain_pct"], l["be_swing_db"], l["be_utility"], l["be_useful"])
		fmt.Fprintf(&b, "  PELS:        %.2f dB (+%.1f%%), swing %.1f dB, utility %.3f, useful %.1f pkts/frame\n",
			l["pels_psnr"], l["pels_gain_pct"], l["pels_swing_db"], l["pels_utility"], l["pels_useful"])

		res.Events += pels.events + be.events
		res.Artifacts = append(res.Artifacts, Artifact{
			Name: fmt.Sprintf("fig10_level%d.csv", i),
			Series: []*stats.TimeSeries{
				frameSeries("base_psnr", base), frameSeries("besteffort_psnr", bePSNR), frameSeries("pels_psnr", pelsPSNR),
			},
		})
	}
	res.Output = b.String()
	return res, nil
}

// figure10Outcome is what one full-stack stream contributes to a level.
type figure10Outcome struct {
	frames []fgs.FrameResult // flow 0, post-warmup
	loss   float64           // measured feedback loss
	events uint64
}

func figure10Testbed(seed int64, level figure10Level, bestEffort bool) TestbedConfig {
	tcfg := DefaultTestbedConfig()
	tcfg.Seed = seed
	tcfg.BestEffort = bestEffort
	level.apply(&tcfg)
	return tcfg
}

// figure10Stream runs one full-stack simulation.
func figure10Stream(seed int64, duration time.Duration, level figure10Level, bestEffort bool) (figure10Outcome, error) {
	tb, err := runTestbed(figure10Testbed(seed, level, bestEffort), duration, false)
	if err != nil {
		return figure10Outcome{}, err
	}
	return figure10Outcome{evalFrames(tb), tb.MeasuredPELSLoss(duration / 2), tb.Eng.Processed()}, nil
}

// evalFrames is flow 0's frames past the first figure10Warmup ones, less
// the last, which the end of the run may cut off.
func evalFrames(tb *Testbed) []fgs.FrameResult {
	frames := tb.Sinks[0].Frames()
	if len(frames) > figure10Warmup {
		frames = frames[figure10Warmup:]
	}
	if len(frames) > 1 {
		frames = frames[:len(frames)-1]
	}
	return frames
}

// framePSNR reconstructs per-frame PSNR, indexing the trace by each
// frame's actual number so the curve aligns with what the source (and an
// R-D-aware scaler) saw — not by position in the post-warmup slice. It
// also returns the mean useful enhancement packets per frame and the
// number of frames with a complete base layer.
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

// frameSeries holds one value per evaluated frame, its index in the time
// column as whole seconds, for CSV export.
func frameSeries(name string, vs []float64) *stats.TimeSeries {
	ts := stats.NewTimeSeries(name)
	for i, v := range vs {
		ts.Add(time.Duration(i)*time.Second, v)
	}
	return ts
}
