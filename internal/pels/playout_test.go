package pels

import (
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/units"
)

func playoutPacket(frame, index int, c packet.Color) *packet.Packet {
	return &packet.Packet{Frame: frame, Index: index, Color: c, Size: 100}
}

func TestPlayoutDeadlines(t *testing.T) {
	spec := fgs.FrameSpec{PacketSize: 100, TotalPackets: 4, GreenPackets: 1}
	pl, err := NewPlayout(spec, 500*time.Millisecond, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// First packet at t=1s: deadlines are 1.5s + f·100ms.
	pl.Observe(time.Second, playoutPacket(0, 0, packet.Green))
	if got := pl.Deadline(0); got != 1500*time.Millisecond {
		t.Errorf("Deadline(0) = %v, want 1.5s", got)
	}
	if got := pl.Deadline(3); got != 1800*time.Millisecond {
		t.Errorf("Deadline(3) = %v, want 1.8s", got)
	}

	// Frame 0: the rest arrives on time except index 3, which is late.
	pl.Observe(1400*time.Millisecond, playoutPacket(0, 1, packet.Yellow))
	pl.Observe(1500*time.Millisecond, playoutPacket(0, 2, packet.Yellow)) // exactly on time
	pl.Observe(1501*time.Millisecond, playoutPacket(0, 3, packet.Red))    // late

	// A decoder fed every arrival, deadlines ignored, as the Sink's is.
	dec, err := fgs.NewDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dec.Receive(0, i)
	}
	onTime, all := pl.OnTimeFrames(), dec.Frames()
	if len(onTime) != 1 || len(all) != 1 {
		t.Fatalf("frames: onTime=%d all=%d", len(onTime), len(all))
	}
	if all[0].UsefulEnh != 3 {
		t.Errorf("all-packets useful = %d, want 3", all[0].UsefulEnh)
	}
	if onTime[0].UsefulEnh != 2 {
		t.Errorf("on-time useful = %d, want 2 (late red excluded)", onTime[0].UsefulEnh)
	}
	if pl.LatePackets() != 1 {
		t.Errorf("LatePackets = %d, want 1", pl.LatePackets())
	}
	if pl.LateByColor()[packet.Red] != 1 {
		t.Errorf("late red = %d, want 1", pl.LateByColor()[packet.Red])
	}
}

func TestPlayoutDeadlineBeforeStart(t *testing.T) {
	spec := fgs.DefaultFrameSpec()
	pl, err := NewPlayout(spec, time.Second, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Deadline(5) != 0 {
		t.Error("deadline known before any packet arrived")
	}
}

// TestPlayoutEndToEnd runs a congested session and verifies the deadline
// filter's expected structure: green/yellow essentially never late, red
// carrying almost all the lateness, and on-time utility close to the
// unfiltered utility (late red packets were mostly past the useful prefix
// anyway).
func TestPlayoutEndToEnd(t *testing.T) {
	cfg := Config{Flow: 1}
	r := newRig(t, cfg, 500*units.Kbps)
	eff := cfg.WithDefaults()
	pl, err := NewPlayout(eff.Frame, 2*eff.FrameInterval, eff.FrameInterval)
	if err != nil {
		t.Fatal(err)
	}
	r.sink.OnPacket = pl.Observe
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
	t.Logf("late: %d total (%v); utility on-time %.3f vs all %.3f",
		total, late, onTime.MeanUtility, allStats.MeanUtility)
}
