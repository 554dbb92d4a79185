package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/units"
)

// frameLog is a scaler that records the frame numbers it is asked about.
type frameLog struct{ frames []int }

func (l *frameLog) Budget(frame int, rate units.BitRate, interval time.Duration) int {
	l.frames = append(l.frames, frame)
	return rate.BytesIn(interval)
}

// TestScalerPerFlow runs two flows from one session template and checks
// that each flow has a scaler of its own: a scaler keeps a running mean and
// a conservation credit, so one shared by two flows would see the frame
// numbers 0, 0, 1, 1, … of both.
func TestScalerPerFlow(t *testing.T) {
	var logs []*frameLog
	cfg := DefaultTestbedConfig()
	cfg.NumTCP = 0
	cfg.Session.NewScaler = func() fgs.Scaler {
		l := &frameLog{}
		logs = append(logs, l)
		return l
	}
	if _, err := runTestbed(cfg, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(logs) != cfg.NumPELS {
		t.Fatalf("%d scalers for %d flows", len(logs), cfg.NumPELS)
	}
	for i, l := range logs {
		if len(l.frames) < 3 {
			t.Fatalf("scaler %d planned %d frames in 5 s", i, len(l.frames))
		}
		for n, f := range l.frames {
			if f != n {
				t.Fatalf("scaler %d: call %d is for frame %d, want %d (frames %v)", i, n, f, n, l.frames[:n+1])
			}
		}
	}
}

// TestRDScalingSmoothsQuality verifies the paper's §6.5 pointer: R-D-aware
// rate scaling reduces PSNR fluctuation at the same average rate.
func TestRDScalingSmoothsQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	cfg := DefaultRDScalingConfig()
	cfg.Duration = 120 * time.Second
	res, err := RDScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatRDScaling(res))

	if res.RDStdDev >= res.ConstantStdDev {
		t.Errorf("rd-aware stddev %.2f not below constant %.2f", res.RDStdDev, res.ConstantStdDev)
	}
	if res.RDSwing > res.ConstantSwing {
		t.Errorf("rd-aware swing %.1f above constant %.1f", res.RDSwing, res.ConstantSwing)
	}
	// Rate conservation: the scaler must not change the sending rate.
	if math.Abs(res.RDRate-res.ConstantRate) > res.ConstantRate*0.02 {
		t.Errorf("rd-aware rate %.0f deviates from constant %.0f", res.RDRate, res.ConstantRate)
	}
	// And it must not cost meaningful mean quality.
	if res.RDMean < res.ConstantMean-0.5 {
		t.Errorf("rd-aware mean %.2f dB sacrificed more than 0.5 dB vs %.2f", res.RDMean, res.ConstantMean)
	}
}
