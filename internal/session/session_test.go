package session

import (
	"net"
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/units"
	"repro/internal/wire"
)

// captureWriter records every datagram written, decoded.
type captureWriter struct {
	headers []wire.Header
}

func (w *captureWriter) WriteTo(b []byte, _ net.Addr) (int, error) {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		panic(err)
	}
	w.headers = append(w.headers, h)
	return len(b), nil
}

// drive pumps the session on a virtual clock until done, jumping straight
// to each returned deadline. maxSteps bounds runaway loops.
func drive(t *testing.T, s *Session, now time.Time, maxSteps int) time.Time {
	t.Helper()
	w := newScratch()
	for i := 0; i < maxSteps; i++ {
		next, done := s.pump(now, w)
		if done {
			return now
		}
		if next <= now.Sub(s.origin) {
			t.Fatalf("pump returned non-advancing deadline %v at %v", next, now.Sub(s.origin))
		}
		now = s.origin.Add(next)
	}
	t.Fatalf("session did not finish within %d pumps", maxSteps)
	return now
}

func newTestSession(t *testing.T, cfg Config, out wire.PacketWriter, now time.Time) *Session {
	t.Helper()
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	key := Key{Addr: "127.0.0.1:7777", Flow: 3}
	s, err := NewSession(key, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7777}, out, cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionStreamsMaxFramesAndCloses(t *testing.T) {
	t0 := time.Unix(1000, 0)
	out := &captureWriter{}
	s := newTestSession(t, Config{MaxFrames: 5}, out, t0)
	end := drive(t, s, t0, 100000)

	st := s.Stats()
	if st.Frames != 5 {
		t.Fatalf("streamed %d frames, want 5", st.Frames)
	}
	if s.State() != StateClosed {
		t.Fatalf("state %v after MaxFrames, want closed", s.State())
	}
	if st.Datagrams == 0 || uint64(len(out.headers)) != st.Datagrams {
		t.Fatalf("stats datagrams %d vs written %d", st.Datagrams, len(out.headers))
	}
	// Pacing must spread the frames over wall time: 5 frames at the
	// default interval cannot complete instantaneously.
	if end.Sub(t0) <= 0 {
		t.Fatal("session completed without consuming virtual time")
	}

	// Per-color sequence spaces must each be gapless from 0.
	next := map[packet.Color]uint64{}
	for _, h := range out.headers {
		if h.Flow != 3 {
			t.Fatalf("datagram carries flow %d, want 3", h.Flow)
		}
		if h.Seq != next[h.Color] {
			t.Fatalf("color %v sequence %d, want %d", h.Color, h.Seq, next[h.Color])
		}
		next[h.Color]++
	}
}

func TestSessionFeedbackDedupAndRate(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newTestSession(t, Config{}, &captureWriter{}, t0)
	r0 := s.Rate()

	fb := packet.Feedback{RouterID: 1, Epoch: 1, Loss: 0, Valid: true}
	if !s.HandleFeedback(fb, t0) {
		t.Fatal("first label of epoch 1 not accepted")
	}
	if s.HandleFeedback(fb, t0.Add(time.Millisecond)) {
		t.Fatal("duplicate epoch accepted; dedup failed")
	}
	if s.Rate() <= r0 {
		t.Fatalf("rate %v did not grow on loss-free feedback from %v", s.Rate(), r0)
	}
	// A batch with duplicates accepts only the fresh epochs.
	batch := []packet.Feedback{
		{RouterID: 1, Epoch: 2, Loss: 0, Valid: true},
		{RouterID: 1, Epoch: 2, Loss: 0, Valid: true},
		{RouterID: 1, Epoch: 3, Loss: 0, Valid: true},
	}
	if got := s.HandleFeedbackBatch(batch, t0.Add(time.Second)); got != 2 {
		t.Fatalf("batch accepted %d labels, want 2", got)
	}
}

func TestSessionGammaResetOnRouterChange(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newTestSession(t, Config{}, &captureWriter{}, t0)
	initial := s.Gamma()
	if initial != s.cfg.Gamma.Initial {
		t.Fatalf("gamma starts at %v, want Initial %v", initial, s.cfg.Gamma.Initial)
	}

	// Adapt γ upward against heavy loss from router 1.
	for e := uint64(1); e <= 10; e++ {
		s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: e, Loss: 0.7, Valid: true}, t0)
	}
	if s.Gamma() <= initial {
		t.Fatal("precondition: gamma did not adapt upward")
	}

	// The bottleneck moves: router 9, epoch counter restarted. γ restarts
	// from Initial instead of stepping with a cross-router delta.
	if !s.HandleFeedback(packet.Feedback{RouterID: 9, Epoch: 1, Loss: 0.7, Valid: true}, t0) {
		t.Fatal("post-change feedback rejected")
	}
	st := s.Stats()
	if st.Gamma != initial {
		t.Fatalf("gamma = %v after router change, want Initial %v", st.Gamma, initial)
	}
	if st.RouterChanges != 1 {
		t.Fatalf("router changes %d, want 1", st.RouterChanges)
	}

	// Subsequent labels from the new router adapt normally again.
	s.HandleFeedback(packet.Feedback{RouterID: 9, Epoch: 2, Loss: 0.7, Valid: true}, t0)
	if s.Gamma() <= initial {
		t.Fatal("gamma frozen after reset")
	}
}

func TestSessionStaleDecayAndRecovery(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cfg := Config{StaleTimeout: 100 * time.Millisecond}
	s := newTestSession(t, cfg, &captureWriter{}, t0)
	watchdog := func(now time.Time) Stats {
		s.mu.Lock()
		s.checkStaleLocked(now.Sub(s.origin))
		s.mu.Unlock()
		return s.Stats()
	}

	// A fresh label arms the watchdog.
	if !s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: 1, Valid: true}, t0) {
		t.Fatal("first feedback rejected")
	}
	full := s.Rate()

	// Within the horizon: nothing decays.
	now := t0.Add(50 * time.Millisecond)
	if st := watchdog(now); st.Degrade != 1 || st.StaleDecays != 0 {
		t.Fatalf("decayed inside the horizon: %+v", st)
	}

	// Past the horizon: one decay, and at most one per elapsed horizon.
	now = now.Add(100 * time.Millisecond)
	watchdog(now)
	if st := watchdog(now); st.Degrade != 0.5 || st.StaleDecays != 1 {
		t.Fatalf("want a single 0.5 decay: %+v", st)
	}
	// The pump runs the same watchdog at every wake.
	now = now.Add(100 * time.Millisecond)
	s.pump(now, newScratch())
	if st := s.Stats(); st.Degrade != 0.25 || st.StaleDecays != 2 {
		t.Fatalf("want second decay to 0.25 at the next pump: %+v", st)
	}

	// However long the outage, the effective rate keeps a floor: the MKC
	// minimum rate (the degraded stream falls back to the base layer, it
	// does not go silent).
	for i := 0; i < 40; i++ {
		now = now.Add(100 * time.Millisecond)
		watchdog(now)
	}
	s.mu.Lock()
	eff := s.effectiveRateLocked()
	s.mu.Unlock()
	if min := s.cfg.MKC.MinRate; eff != min {
		t.Fatalf("effective rate %v after 40 horizons, want the MKC floor %v", eff, min)
	}

	// One fresh label restores the controller rate in a single step.
	if !s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: 2, Valid: true}, now) {
		t.Fatal("recovery feedback rejected")
	}
	st := s.Stats()
	if st.Degrade != 1 || st.Recoveries != 1 {
		t.Fatalf("watchdog did not recover: recoveries=%d degrade=%v", st.Recoveries, st.Degrade)
	}
	if st.Rate < full {
		t.Fatalf("controller rate regressed across the outage: %v < %v", st.Rate, full)
	}
}

// TestNewServerValidatesGamma: a template whose γ controller NewSession
// would refuse fails at NewServer, not at every hello with a
// Reject(bad-config).
func TestNewServerValidatesGamma(t *testing.T) {
	cfg := Config{Gamma: fgs.DefaultGammaConfig()}
	if _, err := NewServer(ServerConfig{Conn: &ctlConn{}, Clock: &fakeClock{}, Session: cfg}); err != nil {
		t.Fatalf("NewServer refused the default γ: %v", err)
	}
	cfg.Gamma.Sigma = 2 // outside the stability bound (0, 2)
	if _, err := NewServer(ServerConfig{Conn: &ctlConn{}, Clock: &fakeClock{}, Session: cfg}); err == nil {
		t.Fatal("NewServer accepted σ = 2")
	}
}

func TestSessionDrainClosesAtFrameBoundary(t *testing.T) {
	t0 := time.Unix(1000, 0)
	out := &captureWriter{}
	s := newTestSession(t, Config{}, out, t0) // MaxFrames 0: would stream forever
	// Pump a little, then drain mid-stream.
	now := t0
	w := newScratch()
	for i := 0; i < 10; i++ {
		next, done := s.pump(now, w)
		if done {
			t.Fatal("session closed before Drain")
		}
		now = s.origin.Add(next)
	}
	s.Drain()
	end := drive(t, s, now, 1000)
	if s.State() != StateClosed {
		t.Fatalf("state %v after drain, want closed", s.State())
	}
	// The frame in flight must complete: the last frame's datagram count
	// equals its plan, i.e. no frame ends mid-sequence with a dangling
	// index. Verify indices within the final frame are contiguous from 0.
	last := out.headers[len(out.headers)-1].Frame
	var idxs []uint16
	for _, h := range out.headers {
		if h.Frame == last {
			idxs = append(idxs, h.Index)
		}
	}
	for i, idx := range idxs {
		if int(idx) != i {
			t.Fatalf("final frame %d has gap at packet %d (index %d)", last, i, idx)
		}
	}
	_ = end
}

func TestSessionMinRateFloor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cfg := Config{}
	cfg.MKC.InitialRate = 128 * units.Kbps
	cfg.MKC.MinRate = 64 * units.Kbps
	cfg.MKC.Alpha = 10 * units.Kbps
	cfg.MKC.Beta = 0.5
	cfg.MKC.DedupEpochs = true
	s := newTestSession(t, cfg, &captureWriter{}, t0)
	// Heavy loss for many epochs drives the controller to its floor, not
	// below.
	for e := uint64(1); e <= 200; e++ {
		s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: e, Loss: 0.9, Valid: true}, t0)
	}
	if r := s.Rate(); r < cfg.MKC.MinRate {
		t.Fatalf("rate %v fell below the MKC floor %v", r, cfg.MKC.MinRate)
	}
}

// TestSessionRateCeiling gives a session spare capacity, a −0.1 label every
// frame interval, and checks that MKC grows to R_max and no further. Once
// there, the session streams no more frames a second than the video has:
// 1/FrameInterval, plus the one frame the last boundary can start early.
// (While the rate still grows, frames run short, because the rate rises
// under a frame planned at the lower one.)
func TestSessionRateCeiling(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// 20 packets of 100 B every 10 ms: R_max = 1.6 Mb/s, 100 frames a second.
	cfg := Config{
		Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 20, GreenPackets: 2},
		FrameInterval: 10 * time.Millisecond,
	}
	s := newTestSession(t, cfg, discard{}, t0)
	rmax := cfg.Frame.MaxRate(cfg.FrameInterval)
	w := newScratch()
	now, label := t0, t0
	var epoch uint64
	run := func(until time.Time) Stats {
		for now.Before(until) {
			if !now.Before(label) {
				epoch++
				s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: epoch, Loss: -0.1, Valid: true}, now)
				label = label.Add(cfg.FrameInterval)
			}
			next, done := s.pump(now, w)
			if done {
				t.Fatal("session closed under spare capacity")
			}
			now = s.origin.Add(next)
			if label.Before(now) {
				now = label
			}
		}
		return s.Stats()
	}
	warm := run(t0.Add(time.Second))
	if warm.Rate != rmax {
		t.Fatalf("rate %v after %d spare-capacity labels, want R_max %v", warm.Rate, epoch, rmax)
	}
	st := run(t0.Add(2 * time.Second))
	if st.Rate != rmax {
		t.Errorf("rate %v after %d spare-capacity labels, want R_max %v", st.Rate, epoch, rmax)
	}
	if n, limit := st.Frames-warm.Frames, int(time.Second/cfg.FrameInterval)+1; n > limit {
		t.Errorf("%d frames in 1 s of a %v-interval video, want at most %d", n, cfg.FrameInterval, limit)
	}
}
