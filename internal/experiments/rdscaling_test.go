package experiments

import (
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
	if _, err := runTestbed(cfg, 5*time.Second, false); err != nil {
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
