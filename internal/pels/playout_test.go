package pels

import (
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/units"
)

// playoutSink builds a sink with the given frame spec and interval, and a
// playout analyzer on it, whose deliver hands it a packet at instant at.
func playoutSink(t *testing.T, spec fgs.FrameSpec, startup, interval time.Duration) (*Sink, *Playout, func(at time.Duration, frame, index int, c packet.Color)) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h := nw.NewHost("dst")
	nw.Connect(h, nw.NewRouter("r"), netsim.LinkConfig{Rate: units.Mbps}, netsim.LinkConfig{Rate: units.Mbps})
	sink, err := NewSink(nw, h, Config{Flow: 1, Config: session.Config{Frame: spec, FrameInterval: interval}})
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(at time.Duration, frame, index int, c packet.Color) {
		p := nw.NewPacket(1, h.ID(), spec.PacketSize, c)
		p.Frame, p.Index = frame, index
		eng.At(at, func() { sink.HandlePacket(p) })
		if err := eng.RunUntil(at); err != nil {
			t.Fatal(err)
		}
	}
	return sink, NewPlayout(sink, startup), deliver
}

func TestPlayoutDeadlines(t *testing.T) {
	spec := fgs.FrameSpec{PacketSize: 100, TotalPackets: 4, GreenPackets: 1}
	sink, pl, deliver := playoutSink(t, spec, 500*time.Millisecond, 100*time.Millisecond)
	// First packet at t=1s: deadlines are 1.5s + f·100ms.
	deliver(time.Second, 0, 0, packet.Green)
	if got := pl.Deadline(0); got != 1500*time.Millisecond {
		t.Errorf("Deadline(0) = %v, want 1.5s", got)
	}
	if got := pl.Deadline(3); got != 1800*time.Millisecond {
		t.Errorf("Deadline(3) = %v, want 1.8s", got)
	}

	// Frame 0: the rest arrives on time except index 3, which is late.
	deliver(1400*time.Millisecond, 0, 1, packet.Yellow)
	deliver(1500*time.Millisecond, 0, 2, packet.Yellow) // exactly on time
	deliver(1501*time.Millisecond, 0, 3, packet.Red)    // late

	// The sink's decoder has every arrival, deadlines ignored.
	onTime, all := pl.OnTimeFrames(), sink.Frames()
	if len(onTime) != 1 || len(all) != 1 {
		t.Fatalf("frames: onTime=%d all=%d", len(onTime), len(all))
	}
	if all[0].UsefulEnh != 3 {
		t.Errorf("all-packets useful = %d, want 3", all[0].UsefulEnh)
	}
	if onTime[0].UsefulEnh != 2 {
		t.Errorf("on-time useful = %d, want 2 (late red excluded)", onTime[0].UsefulEnh)
	}
	if onTime[0].RecvEnh != 3 {
		t.Errorf("on-time received = %d, want 3 (the late red arrived)", onTime[0].RecvEnh)
	}
	if pl.LatePackets() != 1 {
		t.Errorf("LatePackets = %d, want 1", pl.LatePackets())
	}
	if pl.LateByColor()[packet.Red] != 1 {
		t.Errorf("late red = %d, want 1", pl.LateByColor()[packet.Red])
	}
}

func TestPlayoutDeadlineBeforeStart(t *testing.T) {
	_, pl, _ := playoutSink(t, fgs.DefaultFrameSpec(), time.Second, 500*time.Millisecond)
	if pl.Deadline(5) != 0 {
		t.Error("deadline known before any packet arrived")
	}
}

// TestPlayoutEndToEnd runs a congested session and verifies the deadline
// filter's expected structure: green/yellow essentially never late, red
// carrying almost all the lateness, and on-time utility below the
// unfiltered utility but close to it (late red packets were mostly past the
// useful prefix anyway). A late packet was received but is useless, so it
// stays in eq. 3's denominator and can only lower utility.
func TestPlayoutEndToEnd(t *testing.T) {
	cfg := Config{Flow: 1}
	r := newRig(t, cfg, 500*units.Kbps)
	pl := NewPlayout(r.sink, 2*cfg.WithDefaults().FrameInterval)
	r.src.Start(0)
	if err := r.eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	late := pl.LateByColor()
	if late[packet.Green] != 0 {
		t.Errorf("late green packets = %d, want 0", late[packet.Green])
	}
	total := pl.LatePackets()
	if total > 0 && late[packet.Red] < total*9/10 {
		t.Errorf("red lateness %d of %d; red should dominate", late[packet.Red], total)
	}
	onTime := pl.OnTimeStats()
	allStats := r.sink.Stats()
	if onTime.MeanUtility < allStats.MeanUtility-0.1 {
		t.Errorf("on-time utility %.3f far below unfiltered %.3f", onTime.MeanUtility, allStats.MeanUtility)
	}
	if onTime.MeanUtility > allStats.MeanUtility {
		t.Errorf("on-time utility %.3f above unfiltered %.3f: late packets left the denominator", onTime.MeanUtility, allStats.MeanUtility)
	}
	if total > 0 && onTime.MeanUtility >= allStats.MeanUtility {
		t.Errorf("%d late packets, yet on-time utility %.3f is not below unfiltered %.3f", total, onTime.MeanUtility, allStats.MeanUtility)
	}
	if onTime.RecvEnhTotal != allStats.RecvEnhTotal {
		t.Errorf("on-time stats received %d enhancement packets, the sink %d", onTime.RecvEnhTotal, allStats.RecvEnhTotal)
	}
	t.Logf("late: %d total (%v); utility on-time %.3f vs all %.3f",
		total, late, onTime.MeanUtility, allStats.MeanUtility)
}
