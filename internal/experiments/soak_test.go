package experiments

import (
	"testing"
	"time"
)

// TestSoakLongRun runs the default scenario for 10 simulated minutes and
// checks for drift: the control loop must hold its equilibrium through the
// whole run, event and series growth must stay linear (no leaks), and the
// engine must never be left with a runaway pending-event backlog.
func TestSoakLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := DefaultTestbedConfig()
	cfg.NumPELS = 4
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const duration = 10 * time.Minute
	if err := tb.Run(duration); err != nil {
		t.Fatal(err)
	}

	want := tb.StationaryRate().KbpsValue()
	// Equilibrium must hold in EVERY minute of the second half, not just
	// on average — drift would show up as a trend.
	for m := 5; m < 10; m++ {
		lo := time.Duration(m) * time.Minute
		hi := lo + time.Minute
		got := tb.RateSeries[0].MeanBetween(lo, hi)
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("minute %d: rate %.0f kb/s drifted from %.0f", m, got, want)
		}
	}
	// Utility holds across the whole run.
	for i, s := range tb.Sinks {
		if st := s.Stats(); st.MeanUtility < 0.9 {
			t.Errorf("sink %d utility %.3f over 10 minutes", i, st.MeanUtility)
		}
	}
	// The engine drained its work: pending events are bounded by the
	// standing tickers and in-flight packets, not accumulated garbage.
	if p := tb.Eng.Pending(); p > 10000 {
		t.Errorf("pending events = %d after the run, looks like a leak", p)
	}
	t.Logf("10-minute soak: %d events, %d pending, rate %.0f kb/s",
		tb.Eng.Processed(), tb.Eng.Pending(), tb.RateSeries[0].MeanAfter(9*time.Minute))
}
