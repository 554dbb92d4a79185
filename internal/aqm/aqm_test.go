package aqm

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func feedbackConfig() FeedbackConfig {
	return FeedbackConfig{
		RouterID: 1,
		Interval: 30 * time.Millisecond,
		Capacity: 2 * units.Mbps,
	}
}

// offer pushes n PELS packets of size bytes through the processor.
func offer(f *Feedback, n, size int, c packet.Color) {
	for i := 0; i < n; i++ {
		f.Process(&packet.Packet{ID: uint64(i), Size: size, Color: c})
	}
}

func TestFeedbackLossEquation(t *testing.T) {
	// Offer 4 mb/s against a 2 mb/s capacity: p = (R−C)/R = 0.5 (eq. 11).
	eng := sim.NewEngine(1)
	f := NewFeedback(eng, feedbackConfig())
	// 4 mb/s over 30 ms = 15000 bytes.
	offer(f, 30, 500, packet.Yellow)
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := f.Loss(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("loss = %v, want 0.5", got)
	}
	if f.meter.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", f.meter.Epoch())
	}
}

func TestFeedbackNegativeLossOnUnderload(t *testing.T) {
	// Offer 1 mb/s against 2 mb/s: p = (1−2)/1 = −1.
	eng := sim.NewEngine(1)
	f := NewFeedback(eng, feedbackConfig())
	offer(f, 15, 250, packet.Yellow) // 3750 B / 30 ms = 1 mb/s
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := f.Loss(); math.Abs(got-(-1)) > 1e-9 {
		t.Errorf("loss = %v, want -1", got)
	}
}

func TestFeedbackMinLossClamp(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFeedback(eng, feedbackConfig())
	offer(f, 1, 10, packet.Yellow) // trickle: raw p would be hugely negative
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := f.Loss(); got != packet.MinLoss {
		t.Errorf("loss = %v, want clamp at %v", got, packet.MinLoss)
	}
}

func TestFeedbackIdleInterval(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFeedback(eng, feedbackConfig())
	if err := eng.RunUntil(90 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if f.meter.Epoch() != 3 {
		t.Errorf("epoch = %d after 3 idle intervals, want 3", f.meter.Epoch())
	}
	if got := f.Loss(); got != packet.MinLoss {
		t.Errorf("idle loss = %v, want %v", got, packet.MinLoss)
	}
}

func TestFeedbackEpochIncrements(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := obs.NewRegistry()
	cfg := feedbackConfig()
	cfg.Obs = reg
	f := NewFeedback(eng, cfg)
	if err := eng.RunUntil(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("feedback_epochs").Value(); got != 5 {
		t.Fatalf("epoch counter = %d, want 5", got)
	}
	if f.meter.Epoch() != 5 {
		t.Errorf("Epoch() = %d, want 5", f.meter.Epoch())
	}
	loss := reg.Series("feedback_loss").TimeSeries()
	if loss.Len() != 5 {
		t.Fatalf("recorded %d loss samples, want 5", loss.Len())
	}
	for i := 0; i < loss.Len(); i++ {
		if got, want := loss.Sample(i).At, time.Duration(i+1)*30*time.Millisecond; got != want {
			t.Errorf("sample %d at %v, want %v (sim time, not wall time)", i, got, want)
		}
	}
}

func TestFeedbackStampsPELSColors(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFeedback(eng, feedbackConfig())
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, c := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
		p := &packet.Packet{Size: 500, Color: c}
		f.Process(p)
		if !p.Feedback.Valid || p.Feedback.RouterID != 1 || p.Feedback.Epoch != 1 {
			t.Errorf("%v packet not stamped: %+v", c, p.Feedback)
		}
	}
	// TCP and ACK packets are never stamped.
	for _, c := range []packet.Color{packet.TCP, packet.ACK, packet.BestEffort} {
		p := &packet.Packet{Size: 500, Color: c}
		f.Process(p)
		if p.Feedback.Valid {
			t.Errorf("%v packet stamped without StampBestEffort", c)
		}
	}
}

func TestFeedbackStampBestEffortMode(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := feedbackConfig()
	cfg.StampBestEffort = true
	f := NewFeedback(eng, cfg)
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Size: 500, Color: packet.BestEffort}
	f.Process(p)
	if !p.Feedback.Valid {
		t.Error("best-effort packet not stamped with StampBestEffort")
	}
}

func TestFeedbackGreenOnlyMode(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := feedbackConfig()
	cfg.GreenOnly = true
	f := NewFeedback(eng, cfg)
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	g := &packet.Packet{Size: 500, Color: packet.Green}
	y := &packet.Packet{Size: 500, Color: packet.Yellow}
	f.Process(g)
	f.Process(y)
	if !g.Feedback.Valid {
		t.Error("green packet not stamped in GreenOnly mode")
	}
	if y.Feedback.Valid {
		t.Error("yellow packet stamped in GreenOnly mode")
	}
}

func TestFeedbackCountsBestEffortBytesWhenStamping(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := feedbackConfig()
	cfg.StampBestEffort = true
	f := NewFeedback(eng, cfg)
	offer(f, 30, 500, packet.BestEffort) // 4 mb/s
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := f.Loss(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("loss = %v, want 0.5 (best-effort bytes must count toward R)", got)
	}
}

func TestFeedbackMaxLossOverrideAcrossRouters(t *testing.T) {
	// Two routers on the path: the packet must end up labeled by the more
	// congested one regardless of traversal order (paper §5.2).
	eng := sim.NewEngine(1)
	lo := NewFeedback(eng, FeedbackConfig{RouterID: 1, Interval: 30 * time.Millisecond, Capacity: 2 * units.Mbps})
	hi := NewFeedback(eng, FeedbackConfig{RouterID: 2, Interval: 30 * time.Millisecond, Capacity: 2 * units.Mbps})
	offer(lo, 16, 500, packet.Yellow) // ~2.13 mb/s → p ≈ 0.06
	offer(hi, 30, 500, packet.Yellow) // 4 mb/s → p = 0.5
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p1 := &packet.Packet{Size: 500, Color: packet.Yellow}
	lo.Process(p1)
	hi.Process(p1)
	if p1.Feedback.RouterID != 2 {
		t.Errorf("lo→hi order: labeled by router %d, want 2", p1.Feedback.RouterID)
	}
	p2 := &packet.Packet{Size: 500, Color: packet.Yellow}
	hi.Process(p2)
	lo.Process(p2)
	if p2.Feedback.RouterID != 2 {
		t.Errorf("hi→lo order: labeled by router %d, want 2", p2.Feedback.RouterID)
	}
}

func TestFeedbackStop(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFeedback(eng, feedbackConfig())
	f.Stop()
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if f.meter.Epoch() != 0 {
		t.Errorf("epoch advanced to %d after Stop", f.meter.Epoch())
	}
}

func TestFeedbackInvalidConfigPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	for name, cfg := range map[string]FeedbackConfig{
		"zero interval": {RouterID: 1, Capacity: units.Mbps},
		"zero capacity": {RouterID: 1, Interval: time.Millisecond},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFeedback(%s) did not panic", name)
				}
			}()
			NewFeedback(eng, cfg)
		}()
	}
}

func TestBottleneckAssembly(t *testing.T) {
	b := NewBottleneck(DefaultBottleneckConfig())
	// PELS colors land in the priority set; TCP in the Internet FIFO.
	b.Disc.Enqueue(&packet.Packet{ID: 1, Size: 500, Color: packet.Green})
	b.Disc.Enqueue(&packet.Packet{ID: 2, Size: 500, Color: packet.Red})
	b.Disc.Enqueue(&packet.Packet{ID: 3, Size: 1000, Color: packet.TCP})
	if b.PELS.Len() != 2 {
		t.Errorf("PELS queue len = %d, want 2", b.PELS.Len())
	}
	if b.Internet.Len() != 1 {
		t.Errorf("Internet queue len = %d, want 1", b.Internet.Len())
	}
}

func TestBestEffortBottleneckAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBestEffortBottleneck(DefaultBottleneckConfig(), func() float64 { return 0 }, rng)
	b.Disc.Enqueue(&packet.Packet{ID: 1, Size: 500, Color: packet.Green})
	b.Disc.Enqueue(&packet.Packet{ID: 2, Size: 500, Color: packet.BestEffort})
	b.Disc.Enqueue(&packet.Packet{ID: 3, Size: 1000, Color: packet.TCP})
	if b.Video.Len() != 2 {
		t.Errorf("video queue len = %d, want 2", b.Video.Len())
	}
	if b.Internet.Len() != 1 {
		t.Errorf("Internet queue len = %d, want 1", b.Internet.Len())
	}
}

func TestFeedbackSetCapacity(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewFeedback(eng, feedbackConfig())
	f.SetCapacity(units.Mbps)
	offer(f, 15, 250, packet.Yellow) // 1 mb/s
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := f.Loss(); math.Abs(got) > 1e-9 {
		t.Errorf("loss = %v after capacity change, want 0 (R == C)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetCapacity(0) did not panic")
		}
	}()
	f.SetCapacity(0)
}
