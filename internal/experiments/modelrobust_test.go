package experiments

import (
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/stats"
	"repro/internal/video"
)

// TestFigure10RobustToQualityModel reruns the Fig. 10 comparison through
// the bitplane quality model instead of the logarithmic R-D curve: the
// conclusions (PELS ≫ best-effort, by a similar factor) must not depend on
// which byte→dB mapping is used — both models see the same useful-prefix
// statistics.
func TestFigure10RobustToQualityModel(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	level := figure10Levels[0]
	pels, err := figure10Stream(1, 100*time.Second, level, false)
	if err != nil {
		t.Fatal(err)
	}
	be, err := figure10Stream(1, 100*time.Second, level, true)
	if err != nil {
		t.Fatal(err)
	}
	pelsFrames, beFrames := pels.frames, be.frames
	spec := figure10Testbed(1, level, false).Session.WithDefaults().Frame
	bp := video.DefaultBitplaneModel()
	rd := video.DefaultRDModel()
	rd.MaxEnhBytes = spec.MaxEnhBytes()

	meanGain := func(gain func(int) float64, frames []fgs.FrameResult) float64 {
		vals := make([]float64, len(frames))
		for i, f := range frames {
			vals[i] = gain(f.UsefulBytes(spec.PacketSize))
		}
		return stats.Mean(vals)
	}

	pelsBP := meanGain(bp.Gain, pelsFrames)
	beBP := meanGain(bp.Gain, beFrames)
	pelsRD := meanGain(rd.Gain, pelsFrames)
	beRD := meanGain(rd.Gain, beFrames)
	t.Logf("bitplane: PELS %.1f dB vs BE %.1f dB; log R-D: PELS %.1f dB vs BE %.1f dB",
		pelsBP, beBP, pelsRD, beRD)

	for name, pair := range map[string][2]float64{
		"bitplane": {pelsBP, beBP},
		"log-rd":   {pelsRD, beRD},
	} {
		pels, be := pair[0], pair[1]
		if pels < 2*be {
			t.Errorf("%s model: PELS %.1f dB not ≥ 2× best-effort %.1f dB", name, pels, be)
		}
		if pels < 10 {
			t.Errorf("%s model: PELS gain %.1f dB implausibly low", name, pels)
		}
	}
	// The two models must agree on the PELS/BE advantage within a factor
	// of two (shape robustness).
	ratioBP, ratioRD := pelsBP/beBP, pelsRD/beRD
	if ratioBP > 2*ratioRD || ratioRD > 2*ratioBP {
		t.Errorf("model disagreement: PELS/BE ratio %.1f (bitplane) vs %.1f (log)", ratioBP, ratioRD)
	}
}
