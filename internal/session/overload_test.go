package session

import (
	"context"
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/wire"
)

func TestOverloadConfigDefaults(t *testing.T) {
	if (OverloadConfig{}).Enabled() {
		t.Error("zero config reports enabled; Capacity must arm the controller")
	}
	o := NewOverload(OverloadConfig{Capacity: 10 * units.Mbps}, 4)
	cfg := o.Config()
	if !cfg.Enabled() {
		t.Error("capacity set but controller disabled")
	}
	if cfg.High != 0.85 || cfg.Low != 0.60 {
		t.Errorf("watermarks %v/%v, want 0.85/0.60", cfg.High, cfg.Low)
	}
	if cfg.MaxShed != 3 {
		t.Errorf("MaxShed %d for 4 layers, want 3 (base always sends)", cfg.MaxShed)
	}
	if cfg.Hold != 500*time.Millisecond || cfg.Every != 50*time.Millisecond {
		t.Errorf("Hold/Every %v/%v, want 500ms/50ms", cfg.Hold, cfg.Every)
	}

	// MaxShed can never eat the base layer, however large the ask.
	o = NewOverload(OverloadConfig{Capacity: 10 * units.Mbps, MaxShed: 99}, 3)
	if got := o.Config().MaxShed; got != 2 {
		t.Errorf("MaxShed clamp: %d for 3 layers, want 2", got)
	}
	// Degenerate layer counts fall back to the classic 3-layer template.
	o = NewOverload(OverloadConfig{Capacity: 10 * units.Mbps}, 0)
	if got := o.Config().MaxShed; got != 2 {
		t.Errorf("MaxShed %d for defaulted layers, want 2", got)
	}
}

func TestLoadSignalsScore(t *testing.T) {
	for _, tc := range []struct {
		sig  loadSignals
		want float64
	}{
		{loadSignals{}, 0},
		{loadSignals{Occupancy: 0.3, Backlog: 0.9, Lateness: 0.1, Demand: 0.5}, 0.9},
		{loadSignals{Occupancy: 1.2}, 1.2},
		{loadSignals{Demand: 0.7, Lateness: 0.71}, 0.71},
	} {
		if got := tc.sig.Score(); got != tc.want {
			t.Errorf("Score(%+v) = %v, want %v", tc.sig, got, tc.want)
		}
	}
}

// TestOverloadHysteresis walks the controller through a full overload
// episode on a synthetic clock: climb one layer per Hold while the score
// pins High, sit still inside the dead band, unwind at Low.
func TestOverloadHysteresis(t *testing.T) {
	o := NewOverload(OverloadConfig{
		Capacity: 10 * units.Mbps,
		Hold:     100 * time.Millisecond,
	}, 3)
	now := time.Unix(3000, 0)
	hot := loadSignals{Occupancy: 0.9}

	lvl, changed := o.Update(now, hot)
	if lvl != 1 || !changed {
		t.Fatalf("first High crossing: level %d changed %v, want 1 true", lvl, changed)
	}
	// Within Hold nothing moves, however hot the signal.
	now = now.Add(50 * time.Millisecond)
	if lvl, changed = o.Update(now, loadSignals{Demand: 5}); lvl != 1 || changed {
		t.Fatalf("dwell violated: level %d changed %v inside Hold", lvl, changed)
	}
	// One more step per elapsed Hold, clamped at MaxShed (2 for 3 layers).
	now = now.Add(100 * time.Millisecond)
	if lvl, _ = o.Update(now, hot); lvl != 2 {
		t.Fatalf("second step: level %d, want 2", lvl)
	}
	now = now.Add(time.Second)
	if lvl, changed = o.Update(now, hot); lvl != 2 || changed {
		t.Fatalf("MaxShed clamp: level %d changed %v, want 2 false", lvl, changed)
	}

	// The dead band between Low and High holds the level forever.
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		if lvl, changed = o.Update(now, loadSignals{Occupancy: 0.7}); lvl != 2 || changed {
			t.Fatalf("dead band moved the level: %d changed %v", lvl, changed)
		}
	}

	// Load recedes: one restore per Hold until fully unwound.
	for want := 1; want >= 0; want-- {
		now = now.Add(time.Second)
		if lvl, changed = o.Update(now, loadSignals{Occupancy: 0.2}); lvl != want || !changed {
			t.Fatalf("restore: level %d changed %v, want %d true", lvl, changed, want)
		}
	}
	now = now.Add(time.Second)
	if lvl, changed = o.Update(now, loadSignals{}); lvl != 0 || changed {
		t.Fatalf("idle controller moved: level %d changed %v", lvl, changed)
	}
}

// TestSessionExpireStuck: the watchdog fires only when BOTH feedback and
// the send path have been silent for the window, and closes with
// ReasonStuck exactly once.
func TestSessionExpireStuck(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newTestSession(t, Config{}, &captureWriter{}, t0)
	window := 3 * time.Second

	if s.expireStuck(t0.Add(time.Hour), 0) {
		t.Fatal("disabled watchdog (window 0) fired")
	}
	if s.expireStuck(t0.Add(window-time.Millisecond), window) {
		t.Fatal("watchdog fired before the window elapsed")
	}

	// A datagram on the wire pushes the horizon out even with feedback
	// still silent: sending sessions are making progress, not stuck.
	t1 := t0.Add(2 * time.Second)
	if _, done := s.pump(t1, newScratch()); done {
		t.Fatal("session finished during the first pump")
	}
	if s.expireStuck(t0.Add(window), window) {
		t.Fatal("watchdog ignored pump progress")
	}

	t2 := t1.Add(window)
	if !s.expireStuck(t2, window) {
		t.Fatal("watchdog did not fire after a fully silent window")
	}
	if s.State() != StateClosed || s.CloseReason() != wire.ReasonStuck {
		t.Fatalf("state %v reason %v, want closed/stuck", s.State(), s.CloseReason())
	}
	if s.expireStuck(t2.Add(time.Hour), window) {
		t.Fatal("watchdog fired twice on a closed session")
	}
}

// TestOverloadSeesBlockedDriver: with every chunk buffer in flight the
// driver waits for one, the Backlog signal alone puts the load score at
// High, and the wait ends with the context — a shutdown cannot deadlock on
// workers that never return a buffer.
func TestOverloadSeesBlockedDriver(t *testing.T) {
	s, clk, _ := handServer(t, discard{}, func(cfg *ServerConfig) {
		cfg.Overload.Capacity = 1000 * units.Mbps
	})
	held := make([][]*Timer, 0, cap(s.free))
	for len(s.free) > 0 {
		held = append(held, <-s.free)
	}
	admitArmed(s, 1, clk.Now())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		s.driver(ctx)
	}()
	// The fake clock never blocks, so the driver reaches a session's first
	// tick at once; it is waiting when the timer has fired and no chunk has
	// been queued.
	awaitFired := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); s.wheel.Len() != 0; {
			if time.Now().After(deadline) {
				t.Fatal("the driver never fired the session's timer")
			}
			time.Sleep(time.Millisecond)
		}
	}
	awaitFired()
	select {
	case <-returned:
		t.Fatal("the driver returned under a live context")
	case chunk := <-s.jobs:
		t.Fatalf("a chunk of %d went out with no buffer free", len(chunk))
	case <-time.After(20 * time.Millisecond):
	}
	sig := s.signals(0)
	if sig.Backlog != 1 || sig.Score() < s.overload.Config().High {
		t.Fatalf("blocked driver: Backlog %v, score %v, High %v", sig.Backlog, sig.Score(), s.overload.Config().High)
	}

	// One buffer back and the chunk goes out.
	s.free <- held[0]
	select {
	case chunk := <-s.jobs:
		if len(chunk) != 1 || chunk[0].Owner.key.Flow != 1 {
			t.Fatalf("chunk %v, want flow 1 alone", chunk)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the driver did not take the returned buffer")
	}

	// Blocked again on the next session, it must still honour ctx.
	admitArmed(s, 2, clk.Now())
	awaitFired()
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the driver blocked on the free list ignored its context")
	}
}
