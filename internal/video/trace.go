package video

import (
	"math"
)

// TraceFrame is one frame of a synthetic sequence: its base-layer PSNR and
// a relative coding complexity ≥ 1. Complex (high-motion) frames need more
// enhancement bits for the same quality gain, so the R-D gain of a frame is
// divided by its complexity.
type TraceFrame struct {
	Index      int
	BasePSNR   float64
	Complexity float64
}

// Trace is a deterministic per-frame quality trace.
type Trace struct {
	Name   string
	Frames []TraceFrame
}

// Frame returns frame i, wrapping around for sequences longer than the
// trace (looping playback, as streaming evaluations commonly do).
func (t *Trace) Frame(i int) TraceFrame {
	if len(t.Frames) == 0 {
		return TraceFrame{Index: i, BasePSNR: 30, Complexity: 1}
	}
	f := t.Frames[i%len(t.Frames)]
	f.Index = i
	return f
}

// ForemanTrace synthesizes an n-frame CIF-Foreman-like base-layer PSNR
// trace. The real sequence has three regimes that drive its PSNR profile:
// a talking-head opening (moderate, slowly varying quality), a fast camera
// pan (sharp quality dip from motion), and a static construction-site
// ending (higher, stable quality). The synthetic trace reproduces those
// regimes with a deterministic waveform so experiments are reproducible
// without the copyrighted bitstream.
func ForemanTrace(n int) *Trace {
	frames := make([]TraceFrame, n)
	for i := range frames {
		pos := float64(i%300) / 300 // position within the canonical 300-frame sequence
		var base, complexity float64
		switch {
		case pos < 0.6: // talking head
			base = 29.0 + 1.2*math.Sin(2*math.Pi*pos*5)
			complexity = 1.25 + 0.15*math.Sin(2*math.Pi*pos*9)
		case pos < 0.75: // camera pan
			dip := math.Sin(math.Pi * (pos - 0.6) / 0.15)
			base = 28.0 - 2.5*dip
			complexity = 1.4 + 0.35*dip
		default: // construction site
			base = 30.5 + 0.8*math.Sin(2*math.Pi*pos*3)
			complexity = 1.1
		}
		// Small deterministic frame-to-frame texture so curves are not
		// artificially smooth.
		base += 0.4 * math.Sin(float64(i)*1.7)
		frames[i] = TraceFrame{Index: i, BasePSNR: base, Complexity: complexity}
	}
	return &Trace{Name: "foreman-cif", Frames: frames}
}

// SequencePSNR reconstructs the per-frame PSNR of a streamed sequence:
// trace frame i is enhanced with usefulEnhBytes[i] decodable bytes (frames
// beyond the slice get zero enhancement). baseComplete[i] marks frames
// whose base layer arrived intact; a nil slice means all complete. The
// enhancement gain is divided by the frame's coding complexity: complex
// frames need more bits for the same quality.
func SequencePSNR(t *Trace, m RDModel, usefulEnhBytes []int, baseComplete []bool) []float64 {
	out := make([]float64, len(usefulEnhBytes))
	for i := range usefulEnhBytes {
		f := t.Frame(i)
		complete := true
		if baseComplete != nil && i < len(baseComplete) {
			complete = baseComplete[i]
		}
		if !complete {
			out[i] = m.ConcealmentPSNR
			continue
		}
		c := f.Complexity
		if c < 1 {
			c = 1
		}
		out[i] = f.BasePSNR + m.Gain(usefulEnhBytes[i])/c
	}
	return out
}

// ImprovementPercent returns the mean relative PSNR improvement of psnr
// over the trace's base-layer-only quality, in percent — the metric the
// paper reports for Fig. 10 ("best-effort improves the base-layer PSNR by
// 24%, PELS by 60%").
func ImprovementPercent(t *Trace, psnr []float64) float64 {
	if len(psnr) == 0 {
		return 0
	}
	var sum float64
	for i, v := range psnr {
		base := t.Frame(i).BasePSNR
		if base > 0 {
			sum += (v - base) / base * 100
		}
	}
	return sum / float64(len(psnr))
}
